// Tests for the obs/ telemetry subsystem: metric registry semantics and
// determinism, time-to-AMR tracking against hand-computed values, the
// simulator-driven sampler, JSON round-tripping, and the end-to-end
// guarantee that merged per-seed registries are identical for every --jobs
// value.
#include <gtest/gtest.h>

#include <optional>

#include "core/harness.h"
#include "obs/amr_tracker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using obs::AmrTracker;
using obs::JsonValue;
using obs::JsonWriter;
using obs::Labels;
using obs::MetricRegistry;
using obs::Sampler;
using obs::TimeSeries;

ObjectVersionId ov(uint32_t n) {
  return ObjectVersionId{Key{"k" + std::to_string(n)}, Timestamp{n, 1}};
}

// --- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistryTest, FindOrCreateReturnsStableInstances) {
  MetricRegistry reg;
  obs::Counter& a = reg.counter("puts_total", {{"node", "n101"}});
  a.inc(3);
  obs::Counter& b = reg.counter("puts_total", {{"node", "n101"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  reg.counter("puts_total", {{"node", "n102"}}).inc();
  EXPECT_EQ(reg.counter_sum("puts_total"), 4u);
  EXPECT_EQ(reg.counter_sum("absent"), 0u);
}

TEST(MetricRegistryTest, LabelOrderIsNormalized) {
  MetricRegistry reg;
  reg.counter("m", {{"b", "2"}, {"a", "1"}}).inc(5);
  EXPECT_EQ(reg.counter("m", {{"a", "1"}, {"b", "2"}}).value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, ToTextIsInsertionOrderIndependent) {
  MetricRegistry forward;
  forward.counter("a_total").inc(1);
  forward.gauge("backlog").set(7);
  forward.counter("z_total", {{"node", "n101"}}).inc(2);
  MetricRegistry backward;
  backward.counter("z_total", {{"node", "n101"}}).inc(2);
  backward.gauge("backlog").set(7);
  backward.counter("a_total").inc(1);
  EXPECT_EQ(forward.to_text(), backward.to_text());
}

TEST(MetricRegistryTest, GaugeTracksPeak) {
  MetricRegistry reg;
  obs::Gauge& g = reg.gauge("backlog");
  g.set(5);
  g.add(3);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 8);
}

TEST(MetricRegistryTest, MergeAddsAndIsAssociative) {
  auto make = [](uint64_t c, int64_t gauge_v, double h) {
    MetricRegistry reg;
    reg.counter("c_total").inc(c);
    reg.gauge("g").set(gauge_v);
    reg.histogram("h_s").observe(h);
    return reg;
  };
  const MetricRegistry r1 = make(1, 10, 1.0);
  const MetricRegistry r2 = make(2, 20, 2.0);
  const MetricRegistry r3 = make(3, 30, 3.0);

  MetricRegistry left;  // (r1 + r2) + r3
  left.merge(r1);
  left.merge(r2);
  left.merge(r3);
  MetricRegistry right;  // r1 + (r2 + r3)
  MetricRegistry tail = make(2, 20, 2.0);
  tail.merge(r3);
  right.merge(r1);
  right.merge(tail);
  EXPECT_EQ(left.to_text(), right.to_text());

  EXPECT_EQ(left.counter_sum("c_total"), 6u);
  EXPECT_EQ(left.gauge("g").value(), 60);
  EXPECT_EQ(left.histogram("h_s").count(), 3u);
  EXPECT_DOUBLE_EQ(left.histogram("h_s").sum(), 6.0);
}

TEST(MetricRegistryTest, HistogramQuantilesMatchHandComputedValues) {
  MetricRegistry reg;
  obs::Histogram& h = reg.histogram("lat_s");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  // DDSketch-style bounded relative error (1% default).
  EXPECT_NEAR(h.quantile(0.50), 50.0, 50.0 * 0.011);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 99.0 * 0.011);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 100.0 * 0.011);
}

// --- AmrTracker -------------------------------------------------------------

TEST(AmrTrackerTest, LatencyMatchesHandComputedValues) {
  AmrTracker tracker;
  tracker.on_put_acked(ov(1), testing::seconds(1));
  tracker.on_amr_confirmed(ov(1), testing::seconds(5));  // 4 s
  tracker.on_put_acked(ov(2), testing::seconds(2));
  tracker.on_amr_confirmed(ov(2), 2 * kMicrosPerSecond + 500'000);  // 0.5 s
  ASSERT_EQ(tracker.resolved(), 2u);
  const QuantileSketch& lat = tracker.latency_s();
  EXPECT_NEAR(lat.quantile(0.0), 0.5, 0.5 * 0.011);
  EXPECT_NEAR(lat.quantile(1.0), 4.0, 4.0 * 0.011);
}

TEST(AmrTrackerTest, ConfirmationBeforeAckCountsAsZeroLatency) {
  AmrTracker tracker;
  tracker.on_amr_confirmed(ov(1), testing::seconds(3));
  tracker.on_put_acked(ov(1), testing::seconds(4));
  EXPECT_EQ(tracker.resolved(), 1u);
  EXPECT_EQ(tracker.backlog(), 0u);
  EXPECT_DOUBLE_EQ(tracker.latency_s().quantile(1.0), 0.0);
}

TEST(AmrTrackerTest, DuplicateConfirmationsAreIgnored) {
  AmrTracker tracker;
  tracker.on_put_acked(ov(1), testing::seconds(1));
  tracker.on_amr_confirmed(ov(1), testing::seconds(2));
  tracker.on_amr_confirmed(ov(1), testing::seconds(9));
  EXPECT_EQ(tracker.confirmed(), 1u);
  EXPECT_EQ(tracker.resolved(), 1u);
  EXPECT_NEAR(tracker.latency_s().quantile(1.0), 1.0, 0.011);
}

TEST(AmrTrackerTest, BacklogAndPeakTrackPendingVersions) {
  AmrTracker tracker;
  tracker.on_put_acked(ov(1), 1);
  tracker.on_put_acked(ov(2), 2);
  tracker.on_put_acked(ov(3), 3);
  EXPECT_EQ(tracker.backlog(), 3u);
  tracker.on_amr_confirmed(ov(2), 4);
  tracker.on_amr_confirmed(ov(1), 5);
  EXPECT_EQ(tracker.backlog(), 1u);
  EXPECT_EQ(tracker.backlog_peak(), 3u);
  EXPECT_EQ(tracker.acked(), 3u);
  EXPECT_EQ(tracker.confirmed(), 2u);
}

// --- Sampler / TimeSeries ---------------------------------------------------

TEST(SamplerTest, SamplesOnTheTickGridAndStopsWhenQueueDrains) {
  sim::Simulator sim(1);
  int fired = 0;
  sim.schedule_at(35 * kMicrosPerSecond, [&fired] { ++fired; });
  Sampler sampler(sim, testing::seconds(10), {"fired"},
                  [&fired](SimTime) {
                    return std::vector<double>{static_cast<double>(fired)};
                  });
  sim.run();
  EXPECT_EQ(fired, 1);
  const auto& rows = sampler.series().rows();
  // Baseline at t=0, ticks at 10..40; the t=40 tick sees an empty queue and
  // does not re-arm, so the simulation actually ends.
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].t, static_cast<SimTime>(i) * testing::seconds(10));
    if (i > 0) {
      EXPECT_LT(rows[i - 1].t, rows[i].t);
    }
  }
  EXPECT_EQ(sampler.series().value(0, 0), 0.0);
  EXPECT_EQ(sampler.series().value(4, 0), 1.0);
}

TEST(SamplerTest, MaxSamplesCapsTheSeries) {
  sim::Simulator sim(1);
  sim.schedule_at(testing::minutes(10), [] {});
  Sampler sampler(sim, testing::seconds(10), {"x"},
                  [](SimTime) { return std::vector<double>{1.0}; },
                  /*max_samples=*/3);
  sim.run();
  EXPECT_EQ(sampler.series().rows().size(), 3u);
}

TEST(TimeSeriesTest, MergeAlignedAveragesRowsByIndex) {
  TimeSeries a({"v"});
  a.append(0, {1.0});
  a.append(10, {3.0});
  TimeSeries b({"v"});
  b.append(0, {5.0});  // shorter series: contributes to fewer rows

  TimeSeries merged;
  merged.merge_aligned(a);
  merged.merge_aligned(b);
  ASSERT_EQ(merged.rows().size(), 2u);
  EXPECT_EQ(merged.rows()[0].n, 2u);
  EXPECT_DOUBLE_EQ(merged.value(0, 0), 3.0);
  EXPECT_EQ(merged.rows()[1].n, 1u);
  EXPECT_DOUBLE_EQ(merged.value(1, 0), 3.0);
}

// --- JSON -------------------------------------------------------------------

TEST(JsonTest, WriterOutputRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "quote\" backslash\\ newline\n");
  w.kv("count", static_cast<uint64_t>(42));
  w.kv("ratio", 0.125);
  w.kv("flag", true);
  w.key("series");
  w.begin_array();
  w.value(1.5).value(-2.0);
  w.end_array();
  w.end_object();

  const std::optional<JsonValue> doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("name")->string, "quote\" backslash\\ newline\n");
  EXPECT_DOUBLE_EQ(doc->find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc->find("ratio")->number, 0.125);
  EXPECT_TRUE(doc->find("flag")->boolean);
  ASSERT_EQ(doc->find("series")->array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc->find("series")->array[1].number, -2.0);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::json_parse("{\"a\": }").has_value());
  EXPECT_FALSE(obs::json_parse("[1, 2,]").has_value());
  EXPECT_FALSE(obs::json_parse("{} trailing").has_value());
  EXPECT_TRUE(obs::json_parse("{\"a\": [1, 2]} \n").has_value());
}

// --- end to end through the harness ----------------------------------------

core::RunConfig small_config() {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = 3;
  config.workload.value_size = 8 * 1024;
  return config;
}

TEST(TelemetryHarnessTest, RunPopulatesMetricsAndAmrTracking) {
  core::RunConfig config = small_config();
  config.telemetry.sample_interval = testing::seconds(5);
  config.telemetry.trace_capacity = 4096;
  const core::RunResult result = core::run_experiment(config);

  ASSERT_TRUE(result.audit.passed()) << result.audit.to_string();
  // Failure-free: every put acked, every acked version reached AMR.
  EXPECT_EQ(result.metrics.counter_sum("amr_acked_total"),
            static_cast<uint64_t>(result.puts_acked));
  EXPECT_EQ(result.time_to_amr_s.count(),
            static_cast<uint64_t>(result.puts_acked));
  EXPECT_EQ(result.amr_backlog_final, 0u);
  EXPECT_GE(result.amr_confirmed, static_cast<uint64_t>(result.puts_acked));
  EXPECT_GT(result.metrics.counter_sum("proxy_puts_total"), 0u);
  EXPECT_GT(result.metrics.counter_sum("fs_rounds_total"), 0u);
  // Sampler rows are on the tick grid, strictly increasing.
  ASSERT_FALSE(result.timeline.empty());
  for (size_t i = 1; i < result.timeline.rows().size(); ++i) {
    EXPECT_LT(result.timeline.rows()[i - 1].t, result.timeline.rows()[i].t);
  }
  // Audit passed, so no forensics were captured.
  EXPECT_TRUE(result.trace_tail.empty());
}

TEST(TelemetryHarnessTest, TelemetryOffLeavesRunByteIdentical) {
  core::RunConfig plain = small_config();
  core::RunConfig sampled = small_config();
  sampled.telemetry.trace_capacity = 1024;  // tracing must not perturb
  const core::RunResult a = core::run_experiment(plain);
  const core::RunResult b = core::run_experiment(sampled);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.stats.total_sent_count(), b.stats.total_sent_count());
  EXPECT_EQ(a.metrics.to_text(), b.metrics.to_text());
}

TEST(TelemetryHarnessTest, FailedAuditCapturesTraceForensics) {
  core::RunConfig config = small_config();
  config.telemetry.trace_capacity = 64;
  config.event_budget = 1;  // guaranteed violation
  const core::RunResult result = core::run_experiment(config);
  ASSERT_FALSE(result.audit.passed());
  EXPECT_FALSE(result.trace_tail.empty());
  EXPECT_GT(result.trace_overflowed, 0u);
}

TEST(TelemetryDeterminismTest, AggregateTelemetryIdenticalAcrossJobCounts) {
  core::RunConfig config = small_config();
  config.workload.num_puts = 4;
  config.telemetry.sample_interval = testing::seconds(5);
  constexpr int kSeeds = 6;

  std::optional<core::AggregateResult> base;
  for (const int jobs : {1, 2, 8}) {
    core::AggregateResult agg = core::run_many(config, kSeeds, 77, jobs);
    if (!base.has_value()) {
      base.emplace(std::move(agg));
      continue;
    }
    // Byte equality of the rendered registry is the definition of
    // "identical telemetry".
    EXPECT_EQ(base->metrics.to_text(), agg.metrics.to_text())
        << "jobs=" << jobs;
    ASSERT_EQ(base->timeline.rows().size(), agg.timeline.rows().size());
    for (size_t i = 0; i < agg.timeline.rows().size(); ++i) {
      EXPECT_EQ(base->timeline.rows()[i].t, agg.timeline.rows()[i].t);
      EXPECT_EQ(base->timeline.rows()[i].n, agg.timeline.rows()[i].n);
      EXPECT_EQ(base->timeline.rows()[i].sums, agg.timeline.rows()[i].sums);
    }
    EXPECT_EQ(base->time_to_amr_s.count(), agg.time_to_amr_s.count());
    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(base->time_to_amr_s.quantile(q), agg.time_to_amr_s.quantile(q))
          << "q=" << q << " jobs=" << jobs;
    }
    EXPECT_EQ(base->amr_confirmed.values(), agg.amr_confirmed.values());
    EXPECT_EQ(base->amr_backlog_final.values(), agg.amr_backlog_final.values());
  }
}

}  // namespace
}  // namespace pahoehoe
