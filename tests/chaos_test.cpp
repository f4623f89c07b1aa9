// Chaos engine: schedule generation, serde, the invariant auditor, uniform
// sweeps through the chaos driver, and schedule shrinking.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "chaos/mutate.h"
#include "chaos/schedule.h"
#include "chaos/search.h"
#include "chaos/shrink.h"
#include "core/harness.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using core::FaultSpec;
using testing::minutes;
using testing::seconds;

TEST(ScheduleGenerator, DeterministicInSeed) {
  const core::ClusterTopology topology;
  const chaos::ScheduleOptions options;
  const auto a = chaos::generate_schedule(7, topology, options);
  const auto b = chaos::generate_schedule(7, topology, options);
  EXPECT_EQ(a, b);

  const auto c = chaos::generate_schedule(8, topology, options);
  EXPECT_NE(a, c);
}

TEST(ScheduleGenerator, IntensityScalesFaultCount) {
  const core::ClusterTopology topology;
  chaos::ScheduleOptions options;
  options.intensity = 0.5;
  EXPECT_EQ(chaos::generate_schedule(1, topology, options).size(), 3u);
  options.intensity = 3.0;
  // kUniformLoss is capped at one per schedule, so the count may fall a
  // little short of intensity * 6 but never exceed it.
  const auto big = chaos::generate_schedule(1, topology, options);
  EXPECT_LE(big.size(), 18u);
  EXPECT_GE(big.size(), 15u);
}

TEST(ScheduleGenerator, FamilySwitchesRestrictKinds) {
  const core::ClusterTopology topology;
  chaos::ScheduleOptions options;
  options.blackouts = false;
  options.partitions = false;
  options.loss = false;
  options.crashes = false;
  options.proxy_crashes = false;
  options.duplication = false;
  options.disk_destroys = false;  // corruption only
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const FaultSpec& spec :
         chaos::generate_schedule(seed, topology, options)) {
      EXPECT_EQ(spec.kind, FaultSpec::Kind::kFragCorrupt);
      EXPECT_GE(spec.start, 30 * kMicrosPerSecond);
      EXPECT_LT(spec.dc, topology.num_dcs);
      EXPECT_LT(spec.index_in_dc, topology.fs_per_dc);
    }
  }

  chaos::ScheduleOptions none = options;
  none.corruption = false;  // every family off
  EXPECT_TRUE(chaos::generate_schedule(1, topology, none).empty());
}

TEST(ScheduleOptions, RejectsNegativeIntensity) {
  chaos::ScheduleOptions options;
  options.intensity = -0.5;
  EXPECT_THROW(chaos::generate_schedule(1, core::ClusterTopology{}, options),
               std::invalid_argument);
  try {
    chaos::validate(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("intensity"), std::string::npos);
  }
}

TEST(ScheduleOptions, RejectsLossRateOutsideUnitInterval) {
  chaos::ScheduleOptions options;
  options.max_loss_rate = 1.5;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
  options.max_loss_rate = -0.1;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
}

TEST(ScheduleOptions, RejectsDuplicationRateOutsideUnitInterval) {
  chaos::ScheduleOptions options;
  options.max_duplication_rate = 2.0;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
  options.max_duplication_rate = -1.0;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
}

TEST(ScheduleOptions, RejectsInvertedWindowBounds) {
  chaos::ScheduleOptions options;
  options.min_window = options.max_window + 1;
  try {
    chaos::generate_schedule(1, core::ClusterTopology{}, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("min_window"), std::string::npos);
  }
  options = {};
  options.min_window = -1;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
}

TEST(ScheduleOptions, RejectsNonPositiveFaultHorizon) {
  chaos::ScheduleOptions options;
  options.fault_horizon = 0;
  EXPECT_THROW(chaos::validate(options), std::invalid_argument);
}

TEST(ScheduleOptions, DefaultsValidate) {
  EXPECT_NO_THROW(chaos::validate(chaos::ScheduleOptions{}));
}

TEST(ScheduleSerde, RoundTrips) {
  const auto schedule =
      chaos::generate_schedule(11, core::ClusterTopology{}, {});
  ASSERT_FALSE(schedule.empty());
  const Bytes encoded = chaos::encode_schedule(schedule);
  EXPECT_EQ(chaos::decode_schedule(encoded), schedule);
}

// Property test over generated AND mutated schedules: the binary round
// trip is exact, and the textual repro stays a pastable FaultSpec list for
// every schedule the search can produce.
TEST(ScheduleSerde, GeneratedAndMutatedSchedulesRoundTripManySeeds) {
  const core::ClusterTopology topology;
  std::vector<std::vector<FaultSpec>> corpus;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::vector<FaultSpec> schedule =
        chaos::generate_schedule(seed, topology, {});
    if (seed % 2 == 0) {
      schedule = chaos::mutate_schedule(schedule, corpus, seed, topology);
    }
    corpus.push_back(schedule);

    EXPECT_EQ(chaos::decode_schedule(chaos::encode_schedule(schedule)),
              schedule)
        << "seed " << seed;

    const std::string repro = chaos::format_repro(schedule);
    EXPECT_NE(repro.find("config.faults = {"), std::string::npos);
    size_t factory_calls = 0;
    for (size_t pos = repro.find("core::FaultSpec::");
         pos != std::string::npos;
         pos = repro.find("core::FaultSpec::", pos + 1)) {
      ++factory_calls;
    }
    EXPECT_EQ(factory_calls, schedule.size()) << "seed " << seed;
  }
}

TEST(ScheduleSerde, RejectsBadKindAndTruncation) {
  const auto schedule =
      chaos::generate_schedule(11, core::ClusterTopology{}, {});
  Bytes encoded = chaos::encode_schedule(schedule);

  Bytes bad_kind = encoded;
  bad_kind[4] = 0xff;  // first spec's kind byte, after the u32 count
  EXPECT_THROW(chaos::decode_schedule(bad_kind), wire::WireError);

  for (size_t len : {size_t{0}, size_t{3}, encoded.size() - 1}) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<long>(len));
    EXPECT_THROW(chaos::decode_schedule(truncated), wire::WireError);
  }
}

TEST(FormatRepro, EmitsPastableFactoryCalls) {
  const std::vector<FaultSpec> schedule = {
      FaultSpec::frag_corrupt(1, 2, minutes(5)),
      FaultSpec::uniform_loss(0.05),
  };
  const std::string repro = chaos::format_repro(schedule);
  EXPECT_NE(repro.find("config.faults = {"), std::string::npos);
  EXPECT_NE(repro.find("core::FaultSpec::frag_corrupt(1, 2, 300000000)"),
            std::string::npos);
  EXPECT_NE(repro.find("core::FaultSpec::uniform_loss("), std::string::npos);
}

TEST(Auditor, FlagsBudgetOverruns) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 3;
  config.event_budget = 10;  // absurdly small: must trip
  const core::RunResult result = core::run_experiment(config);
  ASSERT_FALSE(result.audit.passed());
  bool saw_event_budget = false;
  for (const auto& v : result.audit.violations) {
    if (v.kind == core::InvariantViolation::Kind::kEventBudget) {
      saw_event_budget = true;
    }
  }
  EXPECT_TRUE(saw_event_budget);
}

TEST(Auditor, CleanRunPasses) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 5;
  const core::RunResult result = core::run_experiment(config);
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
  EXPECT_EQ(result.puts_acked, 5);
  EXPECT_TRUE(result.quiescent);
  EXPECT_GT(result.gets_attempted, 0);
  EXPECT_EQ(result.gets_mismatched, 0);
}

// The acceptance sweep, sized for ctest (chaos_cli --seeds=50 runs the full
// version): every seed of composed faults must satisfy every invariant.
TEST(ChaosSweep, DefaultIntensityHoldsAllInvariants) {
  chaos::SearchOptions options;
  options.seeds = 12;
  options.shrink_failures = true;
  const chaos::SearchResult result =
      chaos::run_search(chaos::chaos_default_config(), options);
  EXPECT_TRUE(result.passed()) << result.summary();
}

// Disk wipe and rebuild: destroying both disks of an FS loses every
// fragment it held, including fragments of versions already verified AMR
// (off the work-lists). The periodic scrub re-adds the damaged versions and
// convergence rebuilds them from siblings, so the auditor must see every
// acked version back at AMR by quiescence.
TEST(ChaosSweep, DiskWipeAndRebuildConverges) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 10;
  config.faults = {
      FaultSpec::disk_destroy(0, 1, 0, minutes(10)),
      FaultSpec::disk_destroy(0, 1, 1, minutes(10)),
  };
  const core::RunResult result = core::run_experiment(config);
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.amr, result.versions_total);
}

// Negative control: without scrubbing, nothing ever notices the wiped
// fragments of AMR versions, so they stay short of maximum redundancy and
// the audit fails — proving the test above exercises the rebuild path.
TEST(ChaosSweep, DiskWipeWithoutScrubViolates) {
  core::RunConfig config = chaos::chaos_default_config();
  config.convergence.scrub_interval = 0;
  config.workload.num_puts = 10;
  config.faults = {
      FaultSpec::disk_destroy(0, 1, 0, minutes(10)),
      FaultSpec::disk_destroy(0, 1, 1, minutes(10)),
  };
  const core::RunResult result = core::run_experiment(config);
  ASSERT_FALSE(result.audit.passed());
  bool saw_durable_not_amr = false;
  for (const auto& v : result.audit.violations) {
    if (v.kind == core::InvariantViolation::Kind::kDurableNotAmr ||
        v.kind == core::InvariantViolation::Kind::kAckedNotAmr) {
      saw_durable_not_amr = true;
    }
  }
  EXPECT_TRUE(saw_durable_not_amr);
}

TEST(FormatRepro, DiskDestroyEmitsPastableCall) {
  const std::string repro = chaos::format_repro(
      {FaultSpec::disk_destroy(1, 2, 0, minutes(3))});
  EXPECT_NE(repro.find("core::FaultSpec::disk_destroy(1, 2, 0, 180000000)"),
            std::string::npos);
}

// Scrub-and-repair is what keeps silent corruption from violating
// durability: with scrubbing off, a corrupted fragment of an acked version
// is never noticed (the version left the work-list at AMR), so the version
// stays short of maximum redundancy forever and the audit fails.
TEST(ChaosSweep, CorruptionWithoutScrubViolates) {
  core::RunConfig config = chaos::chaos_default_config();
  config.convergence.scrub_interval = 0;
  config.workload.num_puts = 10;
  config.faults = {FaultSpec::frag_corrupt(0, 1, minutes(10))};
  const core::RunResult result = core::run_experiment(config);
  ASSERT_FALSE(result.audit.passed());
}

// Same scenario through the shrinker: a seeded violating schedule padded
// with five harmless faults must reduce to the single corruption fault —
// deterministically, since every probe re-runs the same seed.
TEST(Shrinker, ReducesCorruptionScheduleToMinimalRepro) {
  core::RunConfig config = chaos::chaos_default_config();
  config.convergence.scrub_interval = 0;
  config.workload.num_puts = 10;

  const std::vector<FaultSpec> schedule = {
      FaultSpec::fs_blackout(0, 0, seconds(10), seconds(40)),
      FaultSpec::duplication_burst(0.3, minutes(2), minutes(4)),
      FaultSpec::frag_corrupt(0, 1, minutes(10)),
      FaultSpec::kls_blackout(1, 0, minutes(5), minutes(6)),
      FaultSpec::uniform_loss(0.02),
      FaultSpec::dc_partition(1, minutes(12), minutes(14)),
  };

  const chaos::ShrinkResult first = chaos::shrink_schedule(config, schedule);
  ASSERT_FALSE(first.audit.passed());
  EXPECT_LE(first.schedule.size(), 2u);
  ASSERT_FALSE(first.schedule.empty());
  bool kept_corruption = false;
  for (const FaultSpec& spec : first.schedule) {
    if (spec.kind == FaultSpec::Kind::kFragCorrupt) kept_corruption = true;
  }
  EXPECT_TRUE(kept_corruption) << chaos::format_repro(first.schedule);

  const chaos::ShrinkResult second = chaos::shrink_schedule(config, schedule);
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.runs, second.runs);
}

// --- per-durability-class give-up -------------------------------------------

// A corruption landing AFTER the give-up age: the version is in the FS's
// AMR history, so it is durable-class, scrub re-adds it and convergence
// repairs it — the full chaos audit passes and no durable version is ever
// dropped from a work-list.
TEST(ClassGiveup, LateCorruptionIsRepairedUnderDurableHorizon) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 10;
  const SimTime late =
      config.convergence.giveup_age + 30LL * 60 * kMicrosPerSecond;
  config.faults = {FaultSpec::frag_corrupt(0, 1, late)};

  const core::RunResult result = core::run_experiment(config);
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
  EXPECT_EQ(result.amr, result.versions_total);
  // Everything stored was durable; none of it was given up.
  EXPECT_EQ(result.given_up, 0);
}

// Chaos-audited regression: randomized schedules must hold every invariant
// — in particular, non-durable versions still leave the work-lists at
// giveup_age (quiescence) while durable ones are never dropped.
TEST(ClassGiveup, RandomSchedulesHoldAllInvariants) {
  chaos::SearchOptions options;
  options.seeds = 8;
  options.base_seed = 101;  // disjoint from the acceptance sweep's seeds
  const chaos::SearchResult result =
      chaos::run_search(chaos::chaos_default_config(), options);
  EXPECT_TRUE(result.passed()) << result.summary();
}

// Prove or revoke: past giveup_age a durable holder that a sibling answers
// "not verified" runs a §4.2 sibling recovery. Each repro below is a shrunk
// chaos schedule that leaves a durable holder past the horizon with a
// version it cannot verify.
core::RunResult run_repro(int puts, uint64_t seed,
                          std::vector<FaultSpec> faults) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = puts;
  config.seed = seed;
  config.faults = std::move(faults);
  return core::run_experiment(config);
}

// A failed put with one durable holder and fewer than k intact fragments:
// the holder's recovery runs short of k and revokes the evidence, so the
// version gives up like any non-durable one and the run reaches quiescence.
TEST(ProveOrRevoke, LoneHolderOfAFailedPutRevokes) {
  const core::RunResult result =
      run_repro(10, 9757317561786056431ULL,
                {FaultSpec::disk_destroy(0, 2, 0, 1484076493),
                 FaultSpec::dc_partition(0, 0, 1000000),
                 FaultSpec::fs_blackout(0, 0, 0, 1584074082)});
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
}

// The same class under 20% loss: attempts that lose their fetches take the
// deadline path and keep the evidence, until one exhausts its sources.
TEST(ProveOrRevoke, LoneHolderUnderLossRevokesOnExhaustion) {
  const core::RunResult result =
      run_repro(12, 1073,
                {FaultSpec::fs_blackout(1, 1, 26815475, 540728520),
                 FaultSpec::disk_destroy(1, 2, 0, 510791690),
                 FaultSpec::uniform_loss(0.196232)});
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
}

// The repair case: FS (1,2) loses both fragments while blacked out and
// gives up at giveup_age as non-durable; the other five hold durable
// evidence. The first "no" past the horizon makes one of them regenerate
// and push the two fragments, so the version reaches AMR.
TEST(ProveOrRevoke, DurableHoldersRepairAGivenUpSibling) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const core::RunResult result = run_repro(
        1, seed,
        {FaultSpec::kls_blackout(0, 0, 0, minutes(180)),
         FaultSpec::fs_blackout(1, 2, minutes(1), minutes(150)),
         FaultSpec::disk_destroy(1, 2, 0, minutes(1) + seconds(1)),
         FaultSpec::disk_destroy(1, 2, 1, minutes(1) + seconds(1))});
    EXPECT_TRUE(result.audit.passed())
        << "seed " << seed << ": " << result.audit.to_string();
    EXPECT_EQ(result.amr, result.versions_total) << "seed " << seed;
  }
}

// A fragment a recovery fetched certifies its slot on arrival, even when
// the attempt later times out: under heavy loss that evidence is what lets
// a holder reach the durable class instead of giving the version up.
TEST(ProveOrRevoke, FetchedFragmentsCertifyTheirSlots) {
  const core::RunResult result =
      run_repro(12, 16187693756222617992ULL,
                {FaultSpec::uniform_loss(0.182677),
                 FaultSpec::uniform_loss(0.189109),
                 FaultSpec::uniform_loss(0.170988)});
  EXPECT_TRUE(result.audit.passed()) << result.audit.to_string();
}

// A schedule that does not fail comes back unchanged with a passing audit.
TEST(Shrinker, PassingScheduleIsReturnedUnchanged) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 5;
  const std::vector<FaultSpec> schedule = {
      FaultSpec::fs_blackout(0, 0, seconds(10), seconds(40)),
  };
  const chaos::ShrinkResult result = chaos::shrink_schedule(config, schedule);
  EXPECT_TRUE(result.audit.passed());
  EXPECT_EQ(result.schedule, schedule);
  EXPECT_EQ(result.runs, 1);
}

}  // namespace
}  // namespace pahoehoe
