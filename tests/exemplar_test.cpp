// Determinism and pure-observer contract for tail-latency exemplars and
// cohort attribution (DESIGN.md §13):
//  * worst-K is a total order with value-then-version-id tie-breaks, so
//    colliding latencies retain a unique, insertion-order-independent set;
//  * stores merge to the same bytes in any order (KMV reservoir + sorted
//    worst-K union);
//  * run_many renders worst-K and attribution byte-identically for
//    jobs ∈ {1, 2, 8};
//  * enabling exemplars leaves run digests unchanged (the prof_test
//    side-channel contract);
//  * every retained exemplar's integer components telescope exactly to its
//    AmrTracker latency.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "obs/attribution.h"
#include "obs/exemplar.h"

namespace pahoehoe {
namespace {

obs::Exemplar make_exemplar(const std::string& key, SimTime ts_wall,
                            uint64_t seed, SimTime latency) {
  obs::Exemplar e;
  e.ov = ObjectVersionId{Key{key}, Timestamp{ts_wall, 101}};
  e.seed = seed;
  e.latency_micros = latency;
  // Telescoping components: all of it in recovery_backoff.
  e.components[static_cast<size_t>(obs::PathComponent::kRecoveryBackoff)] =
      latency;
  return e;
}

TEST(ExemplarStore, WorstKIsValueThenVersionIdOrdered) {
  obs::ExemplarStore store(/*worst_k=*/3, /*reservoir=*/8);
  store.add(make_exemplar("obj-2", 2'000'000, 7, 500));
  store.add(make_exemplar("obj-0", 0, 7, 900));
  store.add(make_exemplar("obj-3", 3'000'000, 7, 700));
  store.add(make_exemplar("obj-1", 1'000'000, 7, 600));  // evicted: 4th worst

  ASSERT_EQ(store.worst().size(), 3u);
  EXPECT_EQ(store.worst()[0].ov.key.value, "obj-0");  // 900
  EXPECT_EQ(store.worst()[1].ov.key.value, "obj-3");  // 700
  EXPECT_EQ(store.worst()[2].ov.key.value, "obj-1");  // 600
  EXPECT_EQ(store.count(), 4u);  // the sketch still saw every add
}

TEST(ExemplarStore, TieBreakIsStableWhenLatenciesCollide) {
  // Same latency everywhere: retention must fall back to (version id, seed)
  // and be independent of insertion order.
  std::vector<obs::Exemplar> all;
  for (int i = 0; i < 6; ++i) {
    all.push_back(make_exemplar("obj-" + std::to_string(i),
                                i * kMicrosPerSecond, /*seed=*/42, 1000));
  }
  all.push_back(make_exemplar("obj-0", 0, /*seed=*/43, 1000));  // seed tie

  obs::ExemplarStore forward(/*worst_k=*/4, /*reservoir=*/4);
  for (const obs::Exemplar& e : all) forward.add(e);
  obs::ExemplarStore backward(/*worst_k=*/4, /*reservoir=*/4);
  for (auto it = all.rbegin(); it != all.rend(); ++it) backward.add(*it);

  EXPECT_EQ(forward.to_text(), backward.to_text());
  ASSERT_EQ(forward.worst().size(), 4u);
  // All latencies equal -> version id ascending, seed breaking the ov tie.
  EXPECT_EQ(forward.worst()[0].seed, 42u);
  EXPECT_EQ(forward.worst()[0].ov.key.value, "obj-0");
  EXPECT_EQ(forward.worst()[1].seed, 43u);
  EXPECT_EQ(forward.worst()[1].ov.key.value, "obj-0");
  EXPECT_EQ(forward.worst()[2].ov.key.value, "obj-1");
}

TEST(ExemplarStore, MergeIsOrderIndependent) {
  std::vector<obs::ExemplarStore> parts;
  for (int p = 0; p < 3; ++p) {
    obs::ExemplarStore store(/*worst_k=*/4, /*reservoir=*/6);
    for (int i = 0; i < 10; ++i) {
      store.add(make_exemplar("obj-" + std::to_string(p * 10 + i),
                              (p * 10 + i) * kMicrosPerSecond,
                              /*seed=*/100 + p, (i + 1) * 37 + p));
    }
    parts.push_back(store);
  }
  obs::ExemplarStore left(/*worst_k=*/4, /*reservoir=*/6);
  left.merge(parts[0]);
  left.merge(parts[1]);
  left.merge(parts[2]);
  obs::ExemplarStore right(/*worst_k=*/4, /*reservoir=*/6);
  right.merge(parts[2]);
  right.merge(parts[0]);
  right.merge(parts[1]);
  EXPECT_EQ(left.to_text(), right.to_text());
  EXPECT_EQ(left.worst().size(), 4u);
  EXPECT_EQ(left.reservoir().size(), 6u);
  EXPECT_EQ(left.count(), 30u);
}

TEST(ExemplarStoreDeathTest, MergeRejectsMismatchedCaps) {
  obs::ExemplarStore a(/*worst_k=*/8, /*reservoir=*/64);
  obs::ExemplarStore b(/*worst_k=*/4, /*reservoir=*/64);
  EXPECT_DEATH(a.merge(b), "cap mismatch.*8 vs 4");
}

TEST(ExemplarStore, StratifiedBucketsTheReservoirByDecile) {
  obs::ExemplarStore store(/*worst_k=*/2, /*reservoir=*/64);
  for (int i = 1; i <= 50; ++i) {
    store.add(make_exemplar("obj-" + std::to_string(i),
                            i * kMicrosPerSecond, 9,
                            static_cast<SimTime>(i) * 100'000));
  }
  const auto strata = store.stratified(/*per_decile=*/2);
  ASSERT_EQ(strata.size(), 10u);
  size_t total = 0;
  double prev_max = -1.0;
  for (const auto& stratum : strata) {
    ASSERT_LE(stratum.size(), 2u);
    total += stratum.size();
    for (const obs::Exemplar& e : stratum) {
      // Strata ascend: everything here is >= the previous stratum's top.
      EXPECT_GE(e.seconds(), prev_max - 1e-12);
    }
    if (!stratum.empty()) prev_max = stratum.back().seconds();
  }
  EXPECT_GT(total, 0u);
}

// --- attribution ------------------------------------------------------------

TEST(Attribution, SplitsCohortsAndRanksTheGap) {
  // 18 versions at 1 s, one at 10 s, one at 601 s. The p95 rank (18 of 20)
  // lands on the 10 s version, whose sketch bucket midpoint sits strictly
  // above 10 s, so the >= tail test keeps it in the body and only the 601 s
  // version crosses the threshold. (An all-equal body would clamp the
  // threshold onto the point mass and pull everything into the tail — the
  // >= is what guarantees the max-latency version is never dropped.)
  obs::ExemplarStore store(/*worst_k=*/4, /*reservoir=*/16);
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 20; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * kMicrosPerSecond, 101}};
    path.components[static_cast<size_t>(obs::PathComponent::kNetworkWait)] =
        i == 18 ? 10 * kMicrosPerSecond : kMicrosPerSecond;
    // The last version is the tail: +600 s of recovery_backoff.
    if (i == 19) {
      path.components[static_cast<size_t>(
          obs::PathComponent::kRecoveryBackoff)] = 600 * kMicrosPerSecond;
    }
    path.confirm_time = path.ack_time + path.total();
    store.add(obs::Exemplar{path.ov, /*seed=*/1, path.total(),
                            path.components});
    paths.push_back(path);
  }
  obs::AttributionBuilder builder(store);
  for (const obs::VersionCriticalPath& path : paths) builder.add(path);
  const obs::AttributionReport report = builder.finish();

  EXPECT_EQ(report.versions, 20u);
  EXPECT_GT(report.tail_threshold_s, 9.0);
  EXPECT_LT(report.tail_threshold_s, 11.0);
  EXPECT_EQ(report.tail.versions, 1u);
  EXPECT_EQ(report.body.versions, 19u);
  // Exact integer accumulation per cohort: tail 1+600 s, body 18x1 + 10 s.
  EXPECT_EQ(report.tail.latency_micros,
            static_cast<uint64_t>(601 * kMicrosPerSecond));
  EXPECT_EQ(report.body.latency_micros,
            static_cast<uint64_t>(28 * kMicrosPerSecond));
  ASSERT_FALSE(report.ranked.empty());
  EXPECT_EQ(report.ranked.front().component,
            obs::PathComponent::kRecoveryBackoff);
  EXPECT_GT(report.ranked.front().gap_share, 0.99);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("recovery_backoff"), std::string::npos);
  EXPECT_NE(text.find("top exemplar key=obj-19"), std::string::npos);
}

TEST(Attribution, JsonRoundTripPreservesIntegersExactly) {
  obs::ExemplarStore store(/*worst_k=*/3, /*reservoir=*/8);
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 5; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * 10, 7}};
    path.components[0] = 123 + i;
    path.components[2] = i == 4 ? 987654321 : 17;
    path.confirm_time = path.total();
    store.add(obs::Exemplar{path.ov, 55, path.total(), path.components});
    paths.push_back(path);
  }
  obs::AttributionBuilder builder(store);
  for (const obs::VersionCriticalPath& path : paths) builder.add(path);
  const obs::AttributionReport report = builder.finish();

  obs::JsonWriter w;
  obs::attribution_to_json(w, report);
  const std::optional<obs::JsonValue> doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  const std::optional<obs::AttributionReport> parsed =
      obs::attribution_from_json(*doc);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->versions, report.versions);
  EXPECT_EQ(parsed->tail.versions, report.tail.versions);
  EXPECT_EQ(parsed->tail.latency_micros, report.tail.latency_micros);
  EXPECT_EQ(parsed->body.component_micros, report.body.component_micros);
  ASSERT_EQ(parsed->top.size(), report.top.size());
  for (size_t i = 0; i < report.top.size(); ++i) {
    EXPECT_EQ(parsed->top[i], report.top[i]);
  }
  ASSERT_EQ(parsed->ranked.size(), report.ranked.size());
  EXPECT_EQ(parsed->ranked.front().component,
            report.ranked.front().component);
}

TEST(Attribution, EmptyStoreYieldsEmptyReport) {
  obs::ExemplarStore store;
  obs::AttributionBuilder builder(store);
  const obs::AttributionReport report = builder.finish();
  EXPECT_TRUE(report.empty());
  EXPECT_NE(report.to_text().find("no resolved versions"), std::string::npos);
}

// --- harness integration ----------------------------------------------------

core::RunConfig small_config() {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = 8;
  config.workload.value_size = 8 * 1024;
  config.workload.get_fraction = 0.5;
  // A mid-run blackout so recovery/backoff phases produce a real tail.
  config.faults.push_back(core::FaultSpec::fs_blackout(
      0, 1, 30 * kMicrosPerSecond, 600 * kMicrosPerSecond));
  config.telemetry.exemplars = true;
  return config;
}

void append_exact(std::ostringstream& os, const std::vector<double>& values) {
  os.precision(17);
  for (double v : values) os << v << ';';
  os << '\n';
}

/// Everything observable about an aggregate except the exemplar side
/// channel itself — the prof_test digest, reused to prove exemplars are a
/// pure observer.
std::string digest(const core::AggregateResult& agg) {
  std::ostringstream os;
  os << agg.seeds << '\n';
  append_exact(os, agg.msg_count.values());
  append_exact(os, agg.msg_bytes.values());
  append_exact(os, agg.wan_bytes.values());
  append_exact(os, agg.puts_attempted.values());
  append_exact(os, agg.puts_acked.values());
  append_exact(os, agg.amr.values());
  append_exact(os, agg.excess_amr.values());
  append_exact(os, agg.durable_not_amr.values());
  append_exact(os, agg.non_durable.values());
  append_exact(os, agg.end_time_s.values());
  append_exact(os, agg.put_latency_mean_s.values());
  os.precision(17);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    os << agg.put_latency_s.quantile(q) << ';'
       << agg.get_latency_s.quantile(q) << ';'
       << agg.time_to_amr_s.quantile(q) << ';';
  }
  os << '\n';
  os << agg.metrics.to_text();
  os << agg.critical_path.to_text();
  return os.str();
}

TEST(ExemplarHarness, ByteIdenticalForAnyJobs) {
  const core::RunConfig config = small_config();
  const core::AggregateResult serial = core::run_many(config, 4, 42, 1);
  const std::string amr_text = serial.amr_exemplars.to_text();
  const std::string put_text = serial.put_op_exemplars.to_text();
  const std::string get_text = serial.get_op_exemplars.to_text();
  const std::string attribution_text = serial.attribution.to_text();
  EXPECT_GT(serial.amr_exemplars.count(), 0u);
  EXPECT_FALSE(serial.attribution.empty());

  for (int jobs : {2, 8}) {
    const core::AggregateResult parallel = core::run_many(config, 4, 42, jobs);
    EXPECT_EQ(parallel.amr_exemplars.to_text(), amr_text) << "jobs=" << jobs;
    EXPECT_EQ(parallel.put_op_exemplars.to_text(), put_text)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.get_op_exemplars.to_text(), get_text)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.attribution.to_text(), attribution_text)
        << "jobs=" << jobs;
  }
}

TEST(ExemplarHarness, PureObserverDigestIdenticalOnVsOff) {
  core::RunConfig config = small_config();
  config.telemetry.exemplars = false;
  config.telemetry.spans = true;  // hold spans fixed; toggle only exemplars
  const core::AggregateResult off = core::run_many(config, 4, 42, 2);
  EXPECT_EQ(off.amr_exemplars.count(), 0u);
  EXPECT_TRUE(off.attribution.empty());

  config.telemetry.exemplars = true;
  const core::AggregateResult on = core::run_many(config, 4, 42, 2);
  EXPECT_GT(on.amr_exemplars.count(), 0u);
  EXPECT_EQ(digest(on), digest(off));
}

TEST(ExemplarHarness, ComponentsTelescopeToAmrLatencyForEveryExemplar) {
  const core::RunConfig config = small_config();
  const core::AggregateResult agg = core::run_many(config, 4, 42, 2);

  // The AMR exemplar stream is exactly the AmrTracker-confirmed stream.
  EXPECT_EQ(agg.amr_exemplars.count(), agg.time_to_amr_s.count());
  const auto check = [](const obs::Exemplar& e) {
    SimTime sum = 0;
    for (SimTime micros : e.components) sum += micros;
    EXPECT_EQ(sum, e.latency_micros) << obs::exemplar_to_text(e);
  };
  ASSERT_FALSE(agg.amr_exemplars.worst().empty());
  for (const obs::Exemplar& e : agg.amr_exemplars.worst()) check(e);
  for (const obs::Exemplar& e : agg.amr_exemplars.reservoir()) check(e);
  for (const obs::Exemplar& e : agg.attribution.top) check(e);

  // Cohort integer totals partition the critical-path totals exactly.
  for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
    const auto component = static_cast<obs::PathComponent>(c);
    EXPECT_EQ(agg.attribution.tail.component_micros[c] +
                  agg.attribution.body.component_micros[c],
              agg.critical_path.total_micros(component))
        << obs::to_string(component);
  }
  EXPECT_EQ(agg.attribution.versions, agg.critical_path.versions());
}

}  // namespace
}  // namespace pahoehoe
