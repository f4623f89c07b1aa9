// Determinism lock-down for the kernel dispatches: the whole simulation's
// output must not depend on which GF(2^8) mul_acc kernel or SHA-256 block
// kernel ran. A `run_many` sweep executed under the scalar kernel and under
// the best available hardware kernel (for SHA-256, under every supported
// one: the 16-lane kernel hashes batches through its own code) must
// produce byte-identical RunResult digests for any --jobs (reusing the
// jobs-identity machinery of parallel_sweep_test). For GF(2^8) the only permitted difference is the
// erasure_kernel_runs_total metric label, which records which path a run
// took; the SHA-256 kernel leaves no trace at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "core/harness.h"
#include "erasure/gf256.h"

namespace pahoehoe {
namespace {

struct KernelGuard {
  ~KernelGuard() {
    gf256::reset_kernel();
    sha256::reset_kernel();
  }
};

/// Registry text minus the one line that names the kernel.
std::string metrics_modulo_kernel(const obs::MetricRegistry& metrics) {
  std::istringstream in(metrics.to_text());
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("erasure_kernel_runs_total") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void append_exact(std::ostringstream& os, const std::vector<double>& values) {
  os.precision(17);
  for (double v : values) os << v << ';';
  os << '\n';
}

/// Everything observable about one run, rendered byte-exactly.
std::string digest(const core::RunResult& r) {
  std::ostringstream os;
  os << r.stats.total_sent_count() << ' ' << r.stats.total_sent_bytes() << ' '
     << r.stats.wan_sent_bytes() << '\n';
  os << r.puts_attempted << ' ' << r.puts_acked << ' ' << r.puts_failed << ' '
     << r.gets_attempted << ' ' << r.gets_ok << ' ' << r.gets_mismatched
     << '\n';
  os << r.versions_total << ' ' << r.amr << ' ' << r.excess_amr << ' '
     << r.durable_not_amr << ' ' << r.non_durable << ' ' << r.given_up << '\n';
  os << r.end_time << ' ' << r.events << ' ' << r.quiescent << '\n';
  append_exact(os, r.put_latency_s);
  append_exact(os, r.get_latency_s);
  os << r.audit.to_string() << '\n';
  os << metrics_modulo_kernel(r.metrics);
  os << r.amr_confirmed << ' ' << r.amr_backlog_final << ' '
     << r.amr_backlog_peak << '\n';
  os.precision(17);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    os << r.time_to_amr_s.quantile(q) << ';';
  }
  return os.str();
}

/// Aggregate digest: every SampleStats value sequence plus merged metrics.
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
  os << metrics_modulo_kernel(agg.metrics);
  return os.str();
}

core::RunConfig small_config() {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = 8;
  config.workload.value_size = 8 * 1024;
  config.workload.get_fraction = 0.5;
  // A mid-run blackout so recovery (decode + regenerate) runs too.
  config.faults.push_back(core::FaultSpec::fs_blackout(
      0, 1, 30 * kMicrosPerSecond, 600 * kMicrosPerSecond));
  return config;
}

TEST(KernelDeterminism, RunResultDigestIdenticalScalarVsSimd) {
  KernelGuard guard;
  const gf256::Kernel best = gf256::best_kernel();
  if (best == gf256::Kernel::kScalar) {
    GTEST_SKIP() << "no SIMD kernel available on this host";
  }
  const core::RunConfig config = small_config();
  for (uint64_t seed : {1ull, 7ull}) {
    core::RunConfig c = config;
    c.seed = seed;
    gf256::force_kernel(gf256::Kernel::kScalar);
    const std::string scalar_digest = digest(core::run_experiment(c));
    gf256::force_kernel(best);
    const std::string simd_digest = digest(core::run_experiment(c));
    EXPECT_EQ(scalar_digest, simd_digest)
        << "seed " << seed << " diverged under " << gf256::to_string(best);
  }
}

TEST(KernelDeterminism, RunManyDigestIdenticalScalarVsSimdForAnyJobs) {
  KernelGuard guard;
  const gf256::Kernel best = gf256::best_kernel();
  if (best == gf256::Kernel::kScalar) {
    GTEST_SKIP() << "no SIMD kernel available on this host";
  }
  const core::RunConfig config = small_config();

  gf256::force_kernel(gf256::Kernel::kScalar);
  const core::AggregateResult serial = core::run_many(config, 4, 42, 1);
  const std::string scalar_digest = digest(serial);
  // The scalar sweep recorded its kernel.
  EXPECT_EQ(serial.metrics.counter_sum("erasure_kernel_runs_total"), 4u);

  for (int jobs : {1, 2}) {
    gf256::force_kernel(best);
    const core::AggregateResult simd = core::run_many(config, 4, 42, jobs);
    EXPECT_EQ(digest(simd), scalar_digest)
        << "jobs=" << jobs << " kernel=" << gf256::to_string(best);
    // ... and the SIMD sweep recorded *its* kernel: the label is the single
    // intended difference between the two registries.
    const std::string expected_line =
        std::string("counter erasure_kernel_runs_total{kernel=") +
        gf256::to_string(best) + "} 4\n";
    EXPECT_NE(simd.metrics.to_text().find(expected_line), std::string::npos)
        << "jobs=" << jobs;
  }
}

/// Every supported SHA-256 kernel but the scalar oracle.
std::vector<sha256::Kernel> hardware_sha256_kernels() {
  std::vector<sha256::Kernel> out = sha256::supported_kernels();
  out.erase(std::remove(out.begin(), out.end(), sha256::Kernel::kScalar),
            out.end());
  return out;
}

TEST(KernelDeterminism, RunResultDigestIdenticalAcrossSha256Kernels) {
  KernelGuard guard;
  if (hardware_sha256_kernels().empty()) {
    GTEST_SKIP() << "no hardware SHA-256 kernel on this host";
  }
  const core::RunConfig config = small_config();
  for (uint64_t seed : {1ull, 7ull}) {
    core::RunConfig c = config;
    c.seed = seed;
    sha256::force_kernel(sha256::Kernel::kScalar);
    const core::RunResult scalar = core::run_experiment(c);
    for (sha256::Kernel k : hardware_sha256_kernels()) {
      sha256::force_kernel(k);
      const core::RunResult hw = core::run_experiment(c);
      EXPECT_EQ(digest(hw), digest(scalar))
          << sha256::to_string(k) << " seed " << seed;
      // No exempt metric line: the whole registry must match.
      EXPECT_EQ(hw.metrics.to_text(), scalar.metrics.to_text())
          << sha256::to_string(k) << " seed " << seed;
    }
  }
}

TEST(KernelDeterminism, RunManyDigestIdenticalAcrossSha256KernelsForAnyJobs) {
  KernelGuard guard;
  if (hardware_sha256_kernels().empty()) {
    GTEST_SKIP() << "no hardware SHA-256 kernel on this host";
  }
  const core::RunConfig config = small_config();
  sha256::force_kernel(sha256::Kernel::kScalar);
  const core::AggregateResult scalar = core::run_many(config, 4, 42, 1);
  for (sha256::Kernel k : hardware_sha256_kernels()) {
    for (int jobs : {1, 2}) {
      sha256::force_kernel(k);
      const core::AggregateResult hw = core::run_many(config, 4, 42, jobs);
      EXPECT_EQ(digest(hw), digest(scalar))
          << sha256::to_string(k) << " jobs=" << jobs;
      EXPECT_EQ(hw.metrics.to_text(), scalar.metrics.to_text())
          << sha256::to_string(k) << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace pahoehoe
