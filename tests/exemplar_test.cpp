// Determinism and pure-observer contract for tail attribution
// (obs/attribution.h, DESIGN.md §13):
//  * the worst versions are a total order with value-then-version-id
//    tie-breaks, so colliding latencies keep a unique set whatever the
//    order of the paths, the runs and the seeds;
//  * cohorts split at the latency sketch's p95 and the gap is ranked;
//  * run_many renders the pooled report byte-identically for
//    jobs ∈ {1, 2, 8};
//  * enabling spans leaves run digests unchanged (the prof_test
//    side-channel contract);
//  * every top exemplar's integer components telescope exactly to its
//    AmrTracker latency.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "obs/attribution.h"

namespace pahoehoe {
namespace {

/// A critical path of `latency` micros, all of it in recovery_backoff.
obs::VersionCriticalPath make_path(const std::string& key, SimTime ts_wall,
                                   SimTime latency) {
  obs::VersionCriticalPath path;
  path.ov = ObjectVersionId{Key{key}, Timestamp{ts_wall, 101}};
  path.components[static_cast<size_t>(obs::PathComponent::kRecoveryBackoff)] =
      latency;
  path.confirm_time = path.ack_time + latency;
  return path;
}

// --- the worst versions ------------------------------------------------------

TEST(Attribution, WorstEightAreValueThenVersionIdOrdered) {
  // Twelve distinct latencies, scattered over the keys so the ranking is
  // not the walk order: the report keeps the 8 worst, worst first.
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 12; ++i) {
    const int rank = (i * 5) % 12;  // a permutation of 0..11
    paths.push_back(make_path("obj-" + std::to_string(i),
                              i * kMicrosPerSecond, (rank + 1) * 100));
  }
  const obs::AttributionReport report = obs::attribute({{7, paths}});

  EXPECT_EQ(report.versions, 12u);
  ASSERT_EQ(report.top.size(), obs::AttributionReport::kTopK);
  for (size_t i = 0; i < report.top.size(); ++i) {
    EXPECT_EQ(report.top[i].latency_micros, static_cast<SimTime>(12 - i) * 100)
        << i;
    EXPECT_EQ(report.top[i].seed, 7u);
  }
  EXPECT_EQ(report.top[0].ov.key.value, "obj-7");  // 1200
  EXPECT_EQ(report.top[1].ov.key.value, "obj-2");  // 1100
  EXPECT_EQ(report.top[7].ov.key.value, "obj-8");  // 500; 100-400 dropped
}

TEST(Attribution, TieBreakIsStableOverPermutedRunsAndSeeds) {
  // The same six versions under two seeds, every latency equal: the worst
  // versions fall back to version id, then seed, so reversing the paths
  // within each run and the order of the runs changes no byte.
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 6; ++i) {
    paths.push_back(
        make_path("obj-" + std::to_string(i), i * kMicrosPerSecond, 1000));
  }
  const std::vector<obs::VersionCriticalPath> reversed(paths.rbegin(),
                                                       paths.rend());
  const obs::AttributionReport forward =
      obs::attribute({{42, paths}, {43, paths}});
  const obs::AttributionReport backward =
      obs::attribute({{43, reversed}, {42, reversed}});

  EXPECT_EQ(forward.to_text(), backward.to_text());
  EXPECT_EQ(forward.top, backward.top);
  ASSERT_EQ(forward.top.size(), obs::AttributionReport::kTopK);
  for (size_t i = 0; i < forward.top.size(); ++i) {
    EXPECT_EQ(forward.top[i].ov.key.value, "obj-" + std::to_string(i / 2))
        << i;
    EXPECT_EQ(forward.top[i].seed, 42u + i % 2) << i;
  }
}

// --- cohorts -----------------------------------------------------------------

TEST(Attribution, SplitsCohortsAndRanksTheGap) {
  // 18 versions at 1 s, one at 10 s, one at 601 s. The p95 rank (18 of 20)
  // lands on the 10 s version, whose sketch bucket midpoint sits strictly
  // above 10 s, so the >= tail test keeps it in the body and only the 601 s
  // version crosses the threshold. (An all-equal body would clamp the
  // threshold onto the point mass and pull everything into the tail — the
  // >= is what guarantees the max-latency version is never dropped.)
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
    paths.push_back(path);
  }
  const obs::AttributionReport report = obs::attribute({{1, paths}});

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
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 5; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * 10, 7}};
    path.components[0] = 123 + i;
    path.components[2] = i == 4 ? 987654321 : 17;
    path.confirm_time = path.total();
    paths.push_back(path);
  }
  const obs::AttributionReport report = obs::attribute({{55, paths}});

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

TEST(Attribution, NoPathsYieldAnEmptyReport) {
  const obs::AttributionReport report = obs::attribute({});
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(report.top.empty());
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
  config.telemetry.spans = true;
  return config;
}

void append_exact(std::ostringstream& os, const std::vector<double>& values) {
  os.precision(17);
  for (double v : values) os << v << ';';
  os << '\n';
}

/// Everything observable about an aggregate except what span tracing adds
/// (critical paths and attribution) — the prof_test digest, reused to prove
/// spans are a pure observer.
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
  return os.str();
}

TEST(ExemplarHarness, ByteIdenticalForAnyJobs) {
  const core::RunConfig config = small_config();
  const core::AggregateResult serial = core::run_many(config, 4, 42, 1);
  const std::string attribution_text = serial.attribution.to_text();
  EXPECT_FALSE(serial.attribution.empty());
  EXPECT_FALSE(serial.attribution.top.empty());

  for (int jobs : {2, 8}) {
    const core::AggregateResult parallel = core::run_many(config, 4, 42, jobs);
    EXPECT_EQ(parallel.attribution.to_text(), attribution_text)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.attribution.top, serial.attribution.top)
        << "jobs=" << jobs;
  }
}

TEST(ExemplarHarness, PureObserverDigestIdenticalOnVsOff) {
  core::RunConfig config = small_config();
  config.telemetry.spans = false;
  const core::AggregateResult off = core::run_many(config, 4, 42, 2);
  EXPECT_TRUE(off.attribution.empty());

  config.telemetry.spans = true;
  const core::AggregateResult on = core::run_many(config, 4, 42, 2);
  EXPECT_FALSE(on.attribution.empty());
  EXPECT_EQ(digest(on), digest(off));
}

TEST(ExemplarHarness, ComponentsTelescopeToAmrLatencyForEveryExemplar) {
  const core::RunConfig config = small_config();
  const core::AggregateResult agg = core::run_many(config, 4, 42, 2);

  // The attributed versions are exactly the AmrTracker-confirmed stream.
  EXPECT_EQ(agg.attribution.versions, agg.time_to_amr_s.count());
  ASSERT_FALSE(agg.attribution.top.empty());
  for (const obs::Exemplar& e : agg.attribution.top) {
    SimTime sum = 0;
    for (SimTime micros : e.components) sum += micros;
    EXPECT_EQ(sum, e.latency_micros) << obs::exemplar_to_text(e);
  }

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
