// Golden outcome pins: small fixed runs shaped like the three perfbench
// workloads, a short chaos sweep and the telemetry preset, each hashed the
// way perfbench's outcome digest hashes a seed-run and compared with a
// constant.
//
// A host-cost change must leave every simulated outcome exactly as it was,
// so these constants never move with one: a mismatch means a change touched
// event order, an RNG draw or protocol state (for example a walk that sees
// hash order). A change that alters behaviour on purpose records the new
// digests here, with the reason, in the same commit; the test prints every
// digest it computes so that edit is a copy.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "core/harness.h"

namespace pahoehoe::core {
namespace {

constexpr SimTime kMinute = 60 * kMicrosPerSecond;

/// FNV-1a over the outcome's text form, as perfbench/bench.cpp computes it.
class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  template <typename T>
  void add_number(T v) {
    std::ostringstream out;
    out.precision(17);
    out << v << ';';
    add(out.str());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The network stats table, the outcome counts, end time, event count,
/// latencies, time-to-AMR quantiles and the metric registry minus the line
/// naming the host's GF(2^8) kernel. A run that traced spans or sampled a
/// timeline also hashes its critical-path aggregate, its tail attribution
/// and every timeline row; a run without those observers hashes only the
/// outcome.
uint64_t outcome_digest(const RunResult& r) {
  Digest d;
  d.add(r.stats.to_table());
  for (int v : {r.puts_attempted, r.puts_acked, r.puts_failed,
                r.gets_attempted, r.gets_ok, r.gets_mismatched,
                r.versions_total, r.amr, r.excess_amr, r.durable_not_amr,
                r.non_durable, r.given_up}) {
    d.add_number(v);
  }
  d.add_number(r.stats.wan_sent_bytes());
  d.add_number(r.end_time);
  d.add_number(r.events);
  d.add_number(r.quiescent);
  for (double v : r.put_latency_s) d.add_number(v);
  for (double v : r.get_latency_s) d.add_number(v);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    d.add_number(r.time_to_amr_s.quantile(q));
  }
  std::istringstream lines(r.metrics.to_text());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("erasure_kernel_runs_total") == std::string::npos) {
      d.add(line);
    }
  }
  if (r.critical_path.versions() > 0) d.add(r.critical_path.to_text());
  if (!r.attribution.empty()) d.add(r.attribution.to_text());
  for (const obs::TimeSeries::Row& row : r.timeline.rows()) {
    d.add_number(row.t);
    for (double v : row.sums) d.add_number(v);
  }
  return d.value();
}

/// What a mismatch prints with it: the run's time-to-AMR quantiles and its
/// critical-path aggregate (all zero unless spans were on).
std::string amr_context(const RunResult& r) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "\ntime_to_amr_s count %llu p50 %.6g p95 %.6g p99 %.6g "
                "max %.6g\n",
                static_cast<unsigned long long>(r.time_to_amr_s.count()),
                r.time_to_amr_s.quantile(0.50), r.time_to_amr_s.quantile(0.95),
                r.time_to_amr_s.quantile(0.99), r.time_to_amr_s.max());
  return line + r.critical_path.to_text();
}

struct Pin {
  uint64_t seed;
  uint64_t digest;
};

/// Runs `config` under each pinned seed and compares its digest.
void expect_pins(RunConfig config, const std::vector<Pin>& pins,
                 const char* shape) {
  for (const Pin& pin : pins) {
    config.seed = pin.seed;
    const RunResult r = run_experiment(config);
    EXPECT_TRUE(r.audit.passed()) << shape << " seed " << pin.seed << ": "
                                  << r.audit.to_string();
    const uint64_t digest = outcome_digest(r);
    std::printf("%s seed %llu: 0x%016llx\n", shape,
                static_cast<unsigned long long>(pin.seed),
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, pin.digest)
        << shape << " seed " << pin.seed << amr_context(r);
  }
}

RunConfig all_opts(int puts, size_t value_size) {
  RunConfig config = paper_default_config();
  config.convergence = ConvergenceOptions::all_opts();
  config.workload.num_puts = puts;
  config.workload.value_size = value_size;
  return config;
}

// perfbench put_100k: failure-free 100 KiB puts.
TEST(GoldenOutcomeTest, FailureFreeLargePuts) {
  expect_pins(all_opts(6, 100 * 1024),
              {{1, 0x9ec09fdf21ddc35aULL}, {2, 0xca5ea0593f91625eULL}},
              "put_100k");
}

// perfbench fs_outage_backlog: 1 KiB puts while FS 0 of each data center is
// blacked out for an hour.
TEST(GoldenOutcomeTest, FsOutageBacklog) {
  RunConfig config = all_opts(30, 1024);
  config.faults = {FaultSpec::fs_blackout(0, 0, 0, 60 * kMinute),
                   FaultSpec::fs_blackout(1, 0, 0, 60 * kMinute)};
  expect_pins(config,
              {{1, 0xab6e3eb0f57fbb24ULL}, {2, 0x9806965e9f007c28ULL}},
              "fs_outage_backlog");
}

// perfbench lossy_read_write: open-loop Poisson 100 KiB puts at 10% loss,
// with retries, every object read back.
TEST(GoldenOutcomeTest, LossyReadWrite) {
  RunConfig config = all_opts(10, 100 * 1024);
  config.workload.arrivals = ArrivalProcess::kOpenPoisson;
  config.workload.arrival_rate_per_s = 4.0;
  config.workload.retry_failed = true;
  config.workload.get_fraction = 1.0;
  config.workload.get_delay = 30 * kMicrosPerSecond;
  config.faults = {FaultSpec::uniform_loss(0.10)};
  expect_pins(config,
              {{1, 0xe427562247727d16ULL}, {2, 0xee22f2069d777362ULL}},
              "lossy_read_write");
}

// The chaos default config (scrub every 5 min, read-back, retries) under
// generated schedules, each run under the seed it was generated from, as
// chaos_cli's seeding round runs them.
TEST(GoldenOutcomeTest, ChaosSweep) {
  const std::vector<Pin> pins = {
      {1, 0x3809fec5b76e5917ULL},
      {2, 0xaa749a840da8e12cULL},
      {3, 0x8ad77288e748b436ULL},
      {4, 0x9c7afdaf5f1e9a60ULL},
      {5, 0xd16445e99464140fULL},
      {6, 0x9b1239f8f711c7f5ULL},
      {7, 0x2b00f420d4e9d758ULL},
      {8, 0x60caa6a4c34afe3eULL},
      {9, 0x222e65ed9bc7f806ULL},
      {10, 0x770d390895d51b54ULL},
      {11, 0x55deb045cf340e0cULL},
      {12, 0x825671933969e4b0ULL},
      {13, 0x91234da88e9151c2ULL},
      {14, 0x46df908535dfbe29ULL},
      {15, 0x3aa1eac3fb73ed95ULL},
      {16, 0xf681e1e4a1bf7afaULL},
  };
  RunConfig config = chaos::chaos_default_config();
  config.workload.num_puts = 8;
  std::set<FaultSpec::Kind> kinds;
  for (const Pin& pin : pins) {
    RunConfig run = config;
    run.faults = chaos::generate_schedule(pin.seed, run.topology);
    for (const FaultSpec& f : run.faults) kinds.insert(f.kind);
    expect_pins(run, {pin}, "chaos");
  }
  // The sweep covers what scrub exists to repair, and crashes.
  for (const FaultSpec::Kind kind :
       {FaultSpec::Kind::kFragCorrupt, FaultSpec::Kind::kDiskDestroy,
        FaultSpec::Kind::kFsCrash}) {
    EXPECT_EQ(kinds.count(kind), 1u)
        << "fault kind " << static_cast<int>(kind);
  }
}

// The telemetry preset (convergence_telemetry --puts=6 --object-kib=8
// --sample-interval-s=5): FS 0 of data center 0 is blacked out for the first
// 10 minutes, with spans and sampling on.
RunConfig telemetry_preset() {
  RunConfig config = paper_default_config();
  config.workload.num_puts = 6;
  config.workload.value_size = 8 * 1024;
  config.telemetry.sample_interval = 5 * kMicrosPerSecond;
  config.telemetry.spans = true;
  config.faults = {FaultSpec::fs_blackout(0, 0, 0, 10 * kMinute)};
  return config;
}

// The preset under each Figure 5 variant, seeds 5000 and 5001. none and
// FSAMR-S synchronize their rounds, which no all_opts pin above exercises.
TEST(GoldenOutcomeTest, TelemetryPreset) {
  RunConfig config = telemetry_preset();
  struct Variant {
    const char* shape;
    ConvergenceOptions convergence;
    std::vector<Pin> pins;
  };
  const std::vector<Variant> variants = {
      {"telemetry none", ConvergenceOptions::naive(),
       {{5000, 0x4743be9def90fd81ULL}, {5001, 0x4ce47d5014e3505dULL}}},
      {"telemetry FSAMR-S", ConvergenceOptions::fs_amr_sync(),
       {{5000, 0x8163d7ff2ea637e3ULL}, {5001, 0x2ee1e7354bd65221ULL}}},
      {"telemetry FSAMR-U", ConvergenceOptions::fs_amr_unsync(),
       {{5000, 0x179463a6ef97abf7ULL}, {5001, 0x081954d37e8d0ee0ULL}}},
      {"telemetry All", ConvergenceOptions::all_opts(),
       {{5000, 0x219e309924748ad2ULL}, {5001, 0xf7891f5949308cbeULL}}},
  };
  for (const Variant& variant : variants) {
    config.convergence = variant.convergence;
    expect_pins(config, variant.pins, variant.shape);
  }
}

// The tail attribution run_many pools over both preset seeds (as
// convergence_telemetry --seeds=2 --jobs=2 reports it): one sketch over every
// seed's critical paths fixes the threshold, and the worst versions are
// ranked across seeds.
TEST(GoldenOutcomeTest, PooledTailAttribution) {
  RunConfig config = telemetry_preset();
  struct Variant {
    const char* shape;
    ConvergenceOptions convergence;
    uint64_t digest;
  };
  const std::vector<Variant> variants = {
      {"pooled none", ConvergenceOptions::naive(), 0xe9c96efe9ee40577ULL},
      {"pooled FSAMR-S", ConvergenceOptions::fs_amr_sync(),
       0xc59baba61bbc072fULL},
      {"pooled FSAMR-U", ConvergenceOptions::fs_amr_unsync(),
       0x95c9412f8b613fd2ULL},
      {"pooled All", ConvergenceOptions::all_opts(), 0x9ebcb29cebcf28e7ULL},
  };
  for (const Variant& variant : variants) {
    config.convergence = variant.convergence;
    const AggregateResult agg = run_many(config, 2, 5000, 2);
    const std::string text = agg.attribution.to_text();
    Digest d;
    d.add(text);
    std::printf("%s: 0x%016llx\n", variant.shape,
                static_cast<unsigned long long>(d.value()));
    EXPECT_FALSE(agg.attribution.empty()) << variant.shape;
    EXPECT_EQ(d.value(), variant.digest) << variant.shape << "\n" << text;
  }
}

}  // namespace
}  // namespace pahoehoe::core
