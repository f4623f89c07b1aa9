// Tests for the causal span tracer (obs/span.h) and the critical-path
// decomposition (obs/critical_path.h): exactness of the put-ack → AMR
// attribution against the AmrTracker, presence of the lifecycle spans under
// a long FS blackout, byte-identical aggregation for every --jobs value,
// Perfetto export round-tripping through the JSON parser, the pure-observer
// guarantee, and the chaos driver's forensics + exit-code contracts.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "chaos/search.h"
#include "core/harness.h"
#include "obs/json.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using obs::JsonValue;
using obs::JsonWriter;

core::RunConfig traced_config(int puts = 1) {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = puts;
  config.workload.value_size = 16 * 1024;
  config.telemetry.spans = true;
  return config;
}

/// One put behind a 10-minute blackout of FS (0,0): the put still acks (10
/// of the 12 fragments land, ≥ min_frags_for_success = 8) but AMR has to
/// wait for convergence to push the last two fragments once the FS returns.
core::RunConfig blackout_config() {
  core::RunConfig config = traced_config(1);
  config.faults.push_back(
      core::FaultSpec::fs_blackout(0, 0, 0, testing::minutes(10)));
  return config;
}

TEST(SpanTest, CriticalPathComponentsSumExactlyToTimeToAmr) {
  const core::RunResult result = core::run_experiment(blackout_config());
  ASSERT_TRUE(result.audit.passed()) << result.audit.to_string();
  ASSERT_EQ(result.puts_acked, 1);
  ASSERT_EQ(result.critical_paths.size(), 1u);

  const obs::VersionCriticalPath& path = result.critical_paths[0];
  EXPECT_GT(path.confirm_time, path.ack_time);
  // The attribution clock banks every interval into exactly one component,
  // so the components telescope to the ack → confirm distance with no gap
  // and no overlap — integer microseconds, compared exactly.
  SimTime sum = 0;
  for (const SimTime c : path.components) {
    EXPECT_GE(c, 0);
    sum += c;
  }
  EXPECT_EQ(sum, path.confirm_time - path.ack_time);
  EXPECT_EQ(sum, path.total());

  // And the sum must agree with what the AmrTracker reported: one sample,
  // and QuantileSketch min/max are exact, so this is bitwise equality of
  // the same double computation.
  ASSERT_EQ(result.time_to_amr_s.count(), 1u);
  EXPECT_EQ(result.time_to_amr_s.quantile(1.0),
            static_cast<double>(sum) /
                static_cast<double>(kMicrosPerSecond));

  // Ten minutes of blackout dwarf everything else: the wait components
  // (round scheduling + recovery backoff) must dominate.
  const SimTime waits =
      path.components[static_cast<size_t>(
          obs::PathComponent::kRoundScheduling)] +
      path.components[static_cast<size_t>(
          obs::PathComponent::kRecoveryBackoff)];
  EXPECT_GT(waits, testing::minutes(5));
}

TEST(SpanTest, BlackoutLifecycleTreeHasConvergenceAndBackoffSpans) {
  core::RunResult result = core::run_experiment(blackout_config());
  ASSERT_TRUE(result.audit.passed()) << result.audit.to_string();
  const std::vector<ObjectVersionId> versions = result.spans.versions();
  ASSERT_EQ(versions.size(), 1u);
  const ObjectVersionId& ov = versions[0];
  EXPECT_TRUE(result.spans.has_version(ov));
  EXPECT_GT(result.spans.span_count(ov), 20u);
  EXPECT_EQ(result.spans.spans_dropped(), 0u);

  const std::string tree = result.spans.render_tree(ov);
  for (const char* needle :
       {"put", "erasure_encode", "msg ", "converge_round", "backoff_wait",
        "amr_confirmed", "time_to_amr", "critical_path:", "network_wait"}) {
    EXPECT_NE(tree.find(needle), std::string::npos)
        << "span tree missing \"" << needle << "\":\n" << tree;
  }
  // Renders are deterministic: same run, same bytes.
  core::RunResult again = core::run_experiment(blackout_config());
  EXPECT_EQ(tree, again.spans.render_tree(ov));
}

TEST(SpanTest, EnablingSpansDoesNotPerturbTheRun) {
  core::RunConfig off = blackout_config();
  off.telemetry.spans = false;
  const core::RunResult a = core::run_experiment(off);
  const core::RunResult b = core::run_experiment(blackout_config());
  // Pure observer: no events, no RNG draws, identical simulation.
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.stats.total_sent_count(), b.stats.total_sent_count());
  EXPECT_EQ(a.stats.total_sent_bytes(), b.stats.total_sent_bytes());
  EXPECT_EQ(a.metrics.to_text(), b.metrics.to_text());
  EXPECT_EQ(a.spans.versions().size(), 0u);  // off: nothing traced
}

TEST(SpanTest, FullTreeDropsSpansAndUntracksMessagesButPathTelescopes) {
  sim::Simulator sim(1);
  obs::SpanTracer tracer;
  tracer.enable(&sim);
  const ObjectVersionId ov{Key{"obj-0"}, Timestamp{0, 101}};
  const NodeId fs{8};
  constexpr size_t kCap = obs::SpanTracer::kMaxSpansPerVersion;
  constexpr size_t kExtra = 10;

  tracer.on_put_acked(ov, fs);  // one span, and the critical-path clock
  tracer.report_work(ov, fs, /*next_attempt=*/5 * kMicrosPerSecond,
                     /*recovering=*/false);
  for (size_t i = 1; i < kCap + kExtra; ++i) {
    tracer.interval(ov, "filler", fs, 0, 0);
  }
  EXPECT_EQ(tracer.span_count(ov), kCap);
  EXPECT_EQ(tracer.spans_dropped(), kExtra);

  sim.schedule_at(2 * kMicrosPerSecond, [&] {
    const obs::SpanTracer::Scope scope =
        tracer.version_scope(ov, "converge_round", fs);
    // The tree is full: the message gets no span, so no token and no
    // network_wait.
    EXPECT_EQ(tracer.on_send(fs, NodeId{9}, "FSConvergeReq"), 0u);
  });
  sim.schedule_at(8 * kMicrosPerSecond,
                  [&] { tracer.on_amr_confirmed(ov, fs); });
  sim.run();

  EXPECT_EQ(tracer.span_count(ov), kCap);
  // The scope, the message and the amr_confirmed instant were dropped too.
  EXPECT_EQ(tracer.spans_dropped(), kExtra + 3);
  ASSERT_EQ(tracer.critical_paths().size(), 1u);
  const obs::VersionCriticalPath& path = tracer.critical_paths()[0];
  EXPECT_EQ(path.total(), path.confirm_time - path.ack_time);
  EXPECT_EQ(path.total(), 8 * kMicrosPerSecond);
  EXPECT_EQ(path.components[static_cast<size_t>(
                obs::PathComponent::kNetworkWait)],
            0);
  EXPECT_EQ(path.components[static_cast<size_t>(
                obs::PathComponent::kRecoveryBackoff)],
            5 * kMicrosPerSecond);
}

TEST(SpanTest, AggregateCriticalPathByteIdenticalAcrossJobCounts) {
  core::RunConfig config = traced_config(3);
  constexpr int kSeeds = 5;
  std::optional<std::string> base;
  for (const int jobs : {1, 2, 8}) {
    core::AggregateResult agg = core::run_many(config, kSeeds, 7, jobs);
    EXPECT_EQ(agg.critical_path.versions(),
              static_cast<uint64_t>(kSeeds) * 3u);
    const std::string text = agg.critical_path.to_text();
    EXPECT_NE(text.find("network_wait"), std::string::npos);
    if (!base.has_value()) {
      base = text;
    } else {
      EXPECT_EQ(*base, text) << "jobs=" << jobs;
    }
  }
}

TEST(SpanTest, PerfettoExportRoundTripsThroughJsonParse) {
  core::RunResult result = core::run_experiment(blackout_config());
  JsonWriter w;
  result.spans.export_perfetto(w);
  const std::optional<JsonValue> doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value()) << "export is not valid JSON";
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_GT(events->array.size(), 20u);

  size_t metadata = 0, complete = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    const JsonValue* pid = e.find("pid");
    ASSERT_NE(pid, nullptr);
    EXPECT_GE(pid->number, 0.0);  // pid is the node id value
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (ph->string == "M") {
      ++metadata;
      EXPECT_EQ(e.find("name")->string, "process_name");
    } else {
      ASSERT_EQ(ph->string, "X") << "unexpected event phase";
      ++complete;
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      EXPECT_GE(e.find("ts")->number, 0.0);
      EXPECT_GE(e.find("dur")->number, 0.0);
    }
  }
  EXPECT_GT(metadata, 0u);  // one process_name per node
  EXPECT_EQ(complete, result.spans.span_count(result.spans.versions()[0]));
}

TEST(SpanTest, SpanForensicsNameTheViolatingVersion) {
  // End the run before the blackout lifts (but after min_age, so
  // convergence rounds do run first): the acked version is durable but not
  // yet AMR, and the audit's kAckedNotAmr violation names it, so the
  // harness attaches its span tree as forensics.
  core::RunConfig config = blackout_config();
  config.max_sim_time = testing::minutes(7);
  const core::RunResult result = core::run_experiment(config);
  ASSERT_FALSE(result.audit.passed());
  ASSERT_FALSE(result.span_forensics.empty());
  EXPECT_NE(result.span_forensics.find("version "), std::string::npos);
  EXPECT_NE(result.span_forensics.find("converge_round"), std::string::npos);
}

// --- chaos driver integration -----------------------------------------------

TEST(ChaosSpanTest, BudgetOnlyFailureMakesTheSweepExitNonZero) {
  // No faults at all: every version resolves, and a one-message budget
  // makes the run-global kMessageBudget the run's ONLY violation. The sweep
  // must still fail and exit non-zero — this is the regression test for
  // chaos_cli's exit code.
  core::RunConfig config = traced_config(2);
  config.message_budget = 1;

  chaos::SearchOptions options;
  options.seeds = 2;
  options.shrink_failures = false;  // the budget is not a schedule property
  options.schedule.corruption = false;
  options.schedule.crashes = false;
  options.schedule.proxy_crashes = false;
  options.schedule.partitions = false;
  options.schedule.loss = false;
  options.schedule.blackouts = false;
  options.schedule.duplication = false;
  options.schedule.disk_destroys = false;

  const chaos::SearchResult result = chaos::run_search(config, options);
  EXPECT_EQ(result.failures.size(), 2u);
  EXPECT_FALSE(result.passed());
  EXPECT_NE(result.exit_code(), 0);
  for (const chaos::SearchFailure& failure : result.failures) {
    ASSERT_EQ(failure.audit.violations.size(), 1u);
    EXPECT_EQ(failure.audit.violations[0].kind,
              core::InvariantViolation::Kind::kMessageBudget);
  }
  // Sanity: without the budget the same sweep passes with exit code 0.
  config.message_budget = 0;
  const chaos::SearchResult clean = chaos::run_search(config, options);
  EXPECT_TRUE(clean.passed());
  EXPECT_EQ(clean.exit_code(), 0);
}

TEST(ChaosSpanTest, FailingSeedForensicsIncludeTheSpanTree) {
  core::RunConfig config = traced_config(1);
  config.faults.push_back(
      core::FaultSpec::fs_blackout(0, 0, 0, testing::minutes(10)));
  config.max_sim_time = testing::minutes(7);  // inside the blackout
  config.telemetry.trace_capacity = 256;

  chaos::SearchOptions options;
  options.seeds = 1;
  options.shrink_failures = false;
  options.schedule.corruption = false;
  options.schedule.crashes = false;
  options.schedule.proxy_crashes = false;
  options.schedule.partitions = false;
  options.schedule.loss = false;
  options.schedule.blackouts = false;
  options.schedule.duplication = false;
  options.schedule.disk_destroys = false;

  const chaos::SearchResult result = chaos::run_search(config, options);
  ASSERT_EQ(result.failures.size(), 1u);
  const std::string& forensics = result.failures[0].forensics;
  EXPECT_NE(forensics.find("span tree of first violating version"),
            std::string::npos);
  EXPECT_NE(forensics.find("converge_round"), std::string::npos);
}

TEST(ChaosSpanTest, FailingSeedForensicsIncludeTailAttribution) {
  // A blackout long enough to put recovery_backoff on the critical path,
  // with the audit failure coming from a one-message budget rather than
  // give-up — versions still resolve, so the violating seed's forensics
  // must carry the cohort attribution naming which component carries the
  // tail, and the exemplar lines pointing at concrete versions.
  core::RunConfig config = traced_config(3);
  config.faults.push_back(
      core::FaultSpec::fs_blackout(0, 0, 0, testing::minutes(10)));
  config.message_budget = 1;

  chaos::SearchOptions options;
  options.seeds = 1;
  options.shrink_failures = false;
  options.schedule.corruption = false;
  options.schedule.crashes = false;
  options.schedule.proxy_crashes = false;
  options.schedule.partitions = false;
  options.schedule.loss = false;
  options.schedule.blackouts = false;
  options.schedule.duplication = false;
  options.schedule.disk_destroys = false;

  const chaos::SearchResult result = chaos::run_search(config, options);
  ASSERT_EQ(result.failures.size(), 1u);
  const std::string& forensics = result.failures[0].forensics;
  EXPECT_NE(forensics.find("tail attribution:"), std::string::npos);
  EXPECT_NE(forensics.find("of gap"), std::string::npos);
  EXPECT_NE(forensics.find("top exemplar key="), std::string::npos);
}

}  // namespace
}  // namespace pahoehoe
