// Coverage-guided schedule search: signature extraction, mutation
// operators, corpus serde, and the search loop's determinism and
// guided-beats-uniform properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "chaos/coverage.h"
#include "chaos/mutate.h"
#include "chaos/search.h"
#include "chaos/schedule.h"
#include "core/harness.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using core::FaultSpec;
using testing::minutes;

core::RunConfig small_config() {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 10;
  return config;
}

TEST(Coverage, FeatureHashIsStable) {
  // FNV-1a reference value: the hash lands in corpus files, so it must
  // never drift across platforms or standard libraries.
  EXPECT_EQ(chaos::feature_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(chaos::feature_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(chaos::feature_hash("span:fs:give_up"),
            chaos::feature_hash("span:fs:recovery"));
}

TEST(Coverage, ExtractionIsDeterministicAndNonTrivial) {
  core::RunConfig config = small_config();
  config.telemetry.spans = true;
  config.faults = chaos::generate_schedule(3, config.topology, {});

  const core::RunResult a = core::run_experiment(config);
  const chaos::Coverage cov_a = chaos::extract_coverage(a, config);
  const core::RunResult b = core::run_experiment(config);
  const chaos::Coverage cov_b = chaos::extract_coverage(b, config);

  EXPECT_EQ(cov_a.features, cov_b.features);
  EXPECT_GT(cov_a.size(), 10u);
  // Every run converges its rounds, so the basics are always covered.
  EXPECT_TRUE(cov_a.contains("span:fs:converge_round"));
  EXPECT_TRUE(cov_a.contains("outcome:quiescent"));
}

TEST(Coverage, MergeCountsOnlyNewFeatures) {
  chaos::Coverage a;
  a.features.emplace(chaos::feature_hash("x"), "x");
  chaos::Coverage b;
  b.features.emplace(chaos::feature_hash("x"), "x");
  b.features.emplace(chaos::feature_hash("y"), "y");
  EXPECT_EQ(a.merge(b), 1u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.merge(b), 0u);
}

TEST(Mutation, DeterministicInSeedAndDistinctAcrossSeeds) {
  const core::ClusterTopology topology;
  const auto parent = chaos::generate_schedule(5, topology, {});
  ASSERT_FALSE(parent.empty());
  const std::vector<std::vector<FaultSpec>> corpus = {parent};

  const auto a = chaos::mutate_schedule(parent, corpus, 42, topology);
  const auto b = chaos::mutate_schedule(parent, corpus, 42, topology);
  EXPECT_EQ(a, b);

  // Across many seeds, mutation must actually change something.
  int changed = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    if (chaos::mutate_schedule(parent, corpus, seed, topology) != parent) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 40);
}

TEST(Mutation, ChildrenStayWithinBounds) {
  const core::ClusterTopology topology;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const auto parent =
        chaos::generate_schedule(seed % 7 + 1, topology, {});
    const std::vector<std::vector<FaultSpec>> corpus = {
        parent, chaos::generate_schedule(99, topology, {})};
    const auto child = chaos::mutate_schedule(parent, corpus, seed, topology);
    ASSERT_FALSE(child.empty());
    ASSERT_LE(child.size(), static_cast<size_t>(chaos::kMutateMaxFaults));
    for (const FaultSpec& spec : child) {
      EXPECT_GE(spec.start, 0);
      EXPECT_LE(spec.start, chaos::kMutateHorizon);
      EXPECT_GE(spec.end, spec.start);
      EXPECT_GE(spec.rate, 0.0);
      EXPECT_LE(spec.rate, 1.0);
      EXPECT_GE(spec.dc, 0);
      EXPECT_LT(spec.dc, topology.num_dcs);
    }
  }
}

TEST(Mutation, ReachesBeyondTheGeneratorHorizon) {
  // The scrub-past-give-up states need faults later than the generator
  // ever places them; widening/shifting must be able to get there.
  const core::ClusterTopology topology;
  const chaos::ScheduleOptions gen;
  bool past_generator_horizon = false;
  for (uint64_t seed = 1; seed <= 300 && !past_generator_horizon; ++seed) {
    auto child = chaos::mutate_schedule(
        chaos::generate_schedule(seed, topology, gen), {}, seed, topology);
    for (const FaultSpec& spec : child) {
      if (spec.start > gen.fault_horizon) past_generator_horizon = true;
    }
  }
  EXPECT_TRUE(past_generator_horizon);
}

TEST(CorpusSerde, RoundTripsAndRejectsMalformed) {
  const core::ClusterTopology topology;
  std::vector<std::vector<FaultSpec>> corpus;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    corpus.push_back(chaos::generate_schedule(seed, topology, {}));
    corpus.push_back(chaos::mutate_schedule(corpus.back(), corpus, seed,
                                            topology));
  }
  const Bytes encoded = chaos::encode_corpus(corpus);
  EXPECT_EQ(chaos::decode_corpus(encoded), corpus);

  for (size_t len : {size_t{0}, size_t{3}, encoded.size() - 1}) {
    const Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<long>(len));
    EXPECT_THROW(chaos::decode_corpus(truncated), wire::WireError);
  }
  Bytes trailing = encoded;
  trailing.push_back(0);
  EXPECT_THROW(chaos::decode_corpus(trailing), wire::WireError);
}

// The determinism acceptance criterion: the search trajectory — corpus,
// growth curve, failures, and the rendered summary — is byte-identical for
// every worker count (also exercised under TSan in CI), for a uniform sweep
// (rounds = 0) and for a guided search alike.
TEST(Search, ByteIdenticalForAnyJobs) {
  chaos::SearchOptions options;
  options.batch = 4;
  options.seeds = 3;
  options.base_seed = 7;

  for (int rounds : {0, 2}) {
    options.rounds = rounds;
    std::string first;
    for (int jobs : {1, 2, 8}) {
      options.jobs = jobs;
      const chaos::SearchResult result =
          chaos::run_search(small_config(), options);
      EXPECT_EQ(result.growth.size(), static_cast<size_t>(rounds + 1));
      if (first.empty()) {
        first = result.summary();
        EXPECT_GT(result.coverage.size(), 0u);
      } else {
        EXPECT_EQ(result.summary(), first)
            << "rounds=" << rounds << " jobs=" << jobs;
      }
    }
  }
}

TEST(Search, InitialCorpusSchedulesAreReplayed) {
  chaos::SearchOptions options;
  options.seeds = 1;
  options.initial_corpus = {
      {FaultSpec::frag_corrupt(0, 1, minutes(10))},
  };
  const chaos::SearchResult result =
      chaos::run_search(small_config(), options);
  // initial corpus + 1 generated seed, single round.
  EXPECT_EQ(result.runs, 2);
  ASSERT_FALSE(result.corpus.empty());
  EXPECT_EQ(result.corpus[0].schedule, options.initial_corpus[0]);
}

// A replay of a saved corpus (--seeds=0 --corpus-in=...) runs exactly the
// loaded schedules, no generated one beside them.
TEST(Search, ZeroSeedsReplaysOnlyTheLoadedCorpus) {
  chaos::SearchOptions options;
  options.seeds = 0;
  options.initial_corpus = {
      {FaultSpec::frag_corrupt(0, 1, minutes(10))},
  };
  const chaos::SearchResult result =
      chaos::run_search(small_config(), options);
  EXPECT_EQ(result.runs, 1);
}

// The seed rule: a generated schedule runs under the seed it was generated
// from, so a failure replays with nothing but its seed and the config.
// Corruption without scrub guarantees failures.
TEST(Search, GeneratedSchedulesRunUnderTheirOwnSeed) {
  core::RunConfig config = small_config();
  config.convergence.scrub_interval = 0;

  chaos::SearchOptions options;
  options.seeds = 3;
  options.base_seed = 5;
  options.shrink_failures = false;
  options.schedule.blackouts = false;
  options.schedule.partitions = false;
  options.schedule.loss = false;
  options.schedule.crashes = false;
  options.schedule.proxy_crashes = false;
  options.schedule.duplication = false;
  options.schedule.disk_destroys = false;  // corruption only

  const chaos::SearchResult result = chaos::run_search(config, options);
  ASSERT_FALSE(result.passed());
  for (const chaos::SearchFailure& failure : result.failures) {
    EXPECT_GE(failure.seed, 5u);
    EXPECT_LE(failure.seed, 7u);
    EXPECT_EQ(failure.schedule,
              chaos::generate_schedule(failure.seed, config.topology,
                                       options.schedule));
    core::RunConfig replay = config;
    replay.seed = failure.seed;
    replay.faults = failure.schedule;
    EXPECT_EQ(core::run_experiment(replay).audit.to_string(),
              failure.audit.to_string())
        << "seed " << failure.seed;
  }
}

// The feedback acceptance criterion (the committed CI smoke): on an equal
// run budget and the same base seed, guided search must discover strictly
// more coverage features than the uniform sweep, and must reach each of
// the rare protocol states the issue names.
TEST(Search, GuidedBeatsUniformOnEqualBudgetAndReachesRareStates) {
  const core::RunConfig config = small_config();

  chaos::SearchOptions options;
  options.rounds = 6;
  options.batch = 8;
  options.seeds = 8;
  options.base_seed = 1;
  options.jobs = 0;  // one worker per hardware thread
  const chaos::SearchResult guided = chaos::run_search(config, options);
  EXPECT_TRUE(guided.passed()) << guided.summary();

  options.rounds = 0;
  options.seeds = guided.runs;
  const chaos::SearchResult uniform = chaos::run_search(config, options);

  EXPECT_GT(guided.coverage.size(), uniform.coverage.size())
      << "guided search must strictly beat the uniform sweep on "
      << guided.runs << " runs";

  EXPECT_TRUE(guided.coverage.contains(chaos::kFeatureCollision))
      << guided.summary();
  EXPECT_TRUE(guided.coverage.contains(chaos::kFeatureSiblingRecovery))
      << guided.summary();
  // Under chaos defaults durable versions never give up, so their late
  // scrub re-adds are the *legal* celebrated state — the reachable rare
  // feature is the durable-late one, not the horizon violation.
  EXPECT_TRUE(guided.coverage.contains(chaos::kFeatureDurableScrubLate))
      << guided.summary();
}

// Regression: rare:scrub_past_giveup_window must honor the per-durability-
// class policy, judging each scrub re-add by its class like fs.cpp does:
// durable versions are never given up, so only a non-durable re-add past
// giveup_age violates the horizon. The spans are built directly so each
// class is exercised exactly.
TEST(Coverage, ScrubReaddJudgedAgainstItsOwnClassHorizon) {
  const core::RunConfig config = chaos::chaos_default_config();
  ASSERT_GT(config.convergence.giveup_age, 0);

  sim::Simulator sim(1);
  const NodeId fs{120};
  const SimTime late = config.convergence.giveup_age + kMicrosPerSecond;
  const auto run_with_readd = [&](const char* note) {
    auto run = std::make_unique<core::RunResult>();
    run->spans.enable(&sim);
    ObjectVersionId ov;
    ov.key = Key{"k"};
    ov.ts = Timestamp{0, 1};  // version born at t=0; re-added at `late`
    run->spans.interval(ov, "scrub_readd", fs, late, late, note);
    return run;
  };

  // Durable-class re-add past the give-up age: the legal state the
  // per-class policy exists for, not a horizon violation.
  const auto durable = run_with_readd("class=durable");
  const chaos::Coverage durable_cov = chaos::extract_coverage(*durable,
                                                              config);
  EXPECT_TRUE(durable_cov.contains(chaos::kFeatureDurableScrubLate));
  EXPECT_FALSE(durable_cov.contains(chaos::kFeatureScrubPastGiveup));

  // Non-durable re-add past the give-up age: a genuine disagreement
  // between scrub and the give-up logic.
  const auto non_durable = run_with_readd("class=non-durable");
  const chaos::Coverage non_durable_cov =
      chaos::extract_coverage(*non_durable, config);
  EXPECT_TRUE(non_durable_cov.contains(chaos::kFeatureScrubPastGiveup));
  EXPECT_FALSE(non_durable_cov.contains(chaos::kFeatureDurableScrubLate));
}

}  // namespace
}  // namespace pahoehoe
