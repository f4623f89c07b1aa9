// Determinism lock-down for the parallel seed-sweep engine: a T-thread run
// must be byte-identical to the serial run, for both the chaos driver's
// failures (schedules, audit reports, and shrunk repros) and the bench
// harness aggregation (AggregateResult).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "chaos/search.h"
#include "common/parallel.h"
#include "core/harness.h"

namespace pahoehoe {
namespace {

using core::FaultSpec;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_for(37, jobs, [&](int i) { ++hits[static_cast<size_t>(i)]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
  int calls = 0;
  parallel_for(0, 4, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  EXPECT_THROW(parallel_for(8, 4,
                            [](int i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ResolveJobsClampsToWork) {
  EXPECT_EQ(resolve_jobs(8, 3), 3);
  EXPECT_EQ(resolve_jobs(2, 100), 2);
  EXPECT_EQ(resolve_jobs(4, 0), 1);
  EXPECT_GE(resolve_jobs(0, 100), 1);  // hardware default, at least 1
}

void expect_same_failure(const chaos::SearchFailure& a,
                         const chaos::SearchFailure& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.audit.to_string(), b.audit.to_string());
  EXPECT_EQ(a.shrunk, b.shrunk);
  EXPECT_EQ(a.shrink_runs, b.shrink_runs);
}

// Seeds with failures exercise the shrinker inside worker threads; the
// shrunk repros and per-seed run counts must be reproduced exactly. Scrub
// off + corruption on guarantees failures (corruption is never repaired).
TEST(ParallelSweep, FailingSweepShrinksIdenticallyAcrossJobCounts) {
  core::RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 8;
  config.convergence.scrub_interval = 0;

  chaos::SearchOptions options;
  options.seeds = 4;
  options.schedule.blackouts = false;
  options.schedule.partitions = false;
  options.schedule.loss = false;
  options.schedule.crashes = false;
  options.schedule.proxy_crashes = false;
  options.schedule.duplication = false;
  options.schedule.disk_destroys = false;  // corruption only

  const chaos::SearchResult serial = chaos::run_search(config, options);
  EXPECT_FALSE(serial.passed());

  options.jobs = 8;
  const chaos::SearchResult parallel = chaos::run_search(config, options);
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.shrink_runs, serial.shrink_runs);
  ASSERT_EQ(parallel.failures.size(), serial.failures.size());
  for (size_t i = 0; i < serial.failures.size(); ++i) {
    expect_same_failure(parallel.failures[i], serial.failures[i]);
  }
  EXPECT_EQ(parallel.summary(), serial.summary());
}

void expect_same_stats(const SampleStats& a, const SampleStats& b) {
  // Bitwise equality of the full value sequence: aggregation order must
  // match the serial run exactly, not merely approximately.
  EXPECT_EQ(a.values(), b.values());
}

TEST(ParallelRunMany, AggregateIsByteIdenticalAcrossJobCounts) {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = 10;
  config.workload.value_size = 8 * 1024;
  config.workload.get_fraction = 0.5;

  const core::AggregateResult serial = core::run_many(config, 6, 42, 1);
  for (int jobs : {2, 8}) {
    const core::AggregateResult parallel = core::run_many(config, 6, 42, jobs);
    EXPECT_EQ(parallel.seeds, serial.seeds);
    expect_same_stats(parallel.msg_count, serial.msg_count);
    expect_same_stats(parallel.msg_bytes, serial.msg_bytes);
    expect_same_stats(parallel.wan_bytes, serial.wan_bytes);
    for (int t = 0; t < wire::kMessageTypeCount; ++t) {
      expect_same_stats(parallel.count_by_type[static_cast<size_t>(t)],
                        serial.count_by_type[static_cast<size_t>(t)]);
      expect_same_stats(parallel.bytes_by_type[static_cast<size_t>(t)],
                        serial.bytes_by_type[static_cast<size_t>(t)]);
    }
    expect_same_stats(parallel.puts_attempted, serial.puts_attempted);
    expect_same_stats(parallel.puts_acked, serial.puts_acked);
    expect_same_stats(parallel.amr, serial.amr);
    expect_same_stats(parallel.excess_amr, serial.excess_amr);
    expect_same_stats(parallel.durable_not_amr, serial.durable_not_amr);
    expect_same_stats(parallel.non_durable, serial.non_durable);
    expect_same_stats(parallel.end_time_s, serial.end_time_s);
    expect_same_stats(parallel.put_latency_mean_s, serial.put_latency_mean_s);
    EXPECT_EQ(parallel.put_latency_s.count(), serial.put_latency_s.count());
    EXPECT_EQ(parallel.get_latency_s.count(), serial.get_latency_s.count());
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(parallel.put_latency_s.quantile(q),
                serial.put_latency_s.quantile(q))
          << "jobs=" << jobs << " q=" << q;
      EXPECT_EQ(parallel.get_latency_s.quantile(q),
                serial.get_latency_s.quantile(q))
          << "jobs=" << jobs << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace pahoehoe
