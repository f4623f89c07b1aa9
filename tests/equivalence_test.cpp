// Cross-optimization equivalence: the §4 optimizations change who does the
// convergence work and how many messages it takes — but the *final archive
// state* must be identical. With deterministic placement, every
// configuration that drives the same workload to quiescence must end with
// byte-identical fragments on the same disks and identical metadata at the
// KLSs. The cluster state digest makes this a one-line assertion.
#include <gtest/gtest.h>

#include "common/sha256.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using testing::SimCluster;
using testing::minutes;

std::vector<std::pair<std::string, ConvergenceOptions>> all_presets() {
  return {
      {"naive", ConvergenceOptions::naive()},
      {"fsamr-s", ConvergenceOptions::fs_amr_sync()},
      {"fsamr-u", ConvergenceOptions::fs_amr_unsync()},
      {"putamr", ConvergenceOptions::put_amr()},
      {"sibling", ConvergenceOptions::sibling_only()},
      {"all", ConvergenceOptions::all_opts()},
  };
}

Sha256::Digest run_and_digest(const ConvergenceOptions& conv, int fs_down,
                              uint64_t seed) {
  SimCluster tc(conv, {}, seed);
  for (int f = 0; f < fs_down; ++f) {
    tc.blackout_fs(f % 2, f / 2, 0, minutes(10));
  }
  // Issue puts at fixed absolute times so the Pahoehoe-assigned version
  // timestamps — part of the archive state — are identical across presets
  // and seeds (different presets consume the RNG differently, so
  // "put-after-previous-completes" timing would diverge).
  for (int i = 0; i < 6; ++i) {
    tc.sim.schedule_at(i * 10 * kMicrosPerSecond, [&tc, i] {
      tc.cluster.proxy(0).put(Key{"eq-" + std::to_string(i)},
                              tc.make_value(3000, static_cast<uint8_t>(i + 1)),
                              Policy{}, [](const core::PutResult&) {});
    });
  }
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  return tc.cluster.state_digest();
}

TEST(EquivalenceTest, AllOptimizationsYieldIdenticalArchiveFailureFree) {
  const auto presets = all_presets();
  const Sha256::Digest reference =
      run_and_digest(presets[0].second, 0, 11);
  for (size_t i = 1; i < presets.size(); ++i) {
    EXPECT_EQ(run_and_digest(presets[i].second, 0, 11), reference)
        << presets[i].first;
  }
}

TEST(EquivalenceTest, AllOptimizationsYieldIdenticalArchiveAfterRepair) {
  // Two FSs blacked out during the puts: each configuration repairs
  // differently (plain vs sibling recovery, different indication flows) but
  // must regenerate the exact same fragments in the same places.
  const auto presets = all_presets();
  const Sha256::Digest reference =
      run_and_digest(presets[0].second, 2, 12);
  for (size_t i = 1; i < presets.size(); ++i) {
    EXPECT_EQ(run_and_digest(presets[i].second, 2, 12), reference)
        << presets[i].first;
  }
}

TEST(EquivalenceTest, DigestIsSeedInvariantForConvergedState) {
  // Different latency samples, same archive: the digest depends only on
  // the stored state, not on the path that built it.
  EXPECT_EQ(run_and_digest(ConvergenceOptions::all_opts(), 1, 21),
            run_and_digest(ConvergenceOptions::all_opts(), 1, 22));
}

TEST(EquivalenceTest, DigestIdenticalAcrossSha256Kernels) {
  // The archive, and the digest over it, must not depend on which SHA-256
  // block kernel hashed the fragments.
  if (sha256::supported_kernels().size() < 2) {
    GTEST_SKIP() << "no hardware SHA-256 kernel on this host";
  }
  struct KernelGuard {
    ~KernelGuard() { sha256::reset_kernel(); }
  } guard;
  sha256::force_kernel(sha256::Kernel::kScalar);
  const Sha256::Digest scalar =
      run_and_digest(ConvergenceOptions::all_opts(), 2, 12);
  for (sha256::Kernel k : sha256::supported_kernels()) {
    if (k == sha256::Kernel::kScalar) continue;
    sha256::force_kernel(k);
    EXPECT_EQ(run_and_digest(ConvergenceOptions::all_opts(), 2, 12), scalar)
        << sha256::to_string(k);
  }
}

TEST(EquivalenceTest, DigestDetectsContentDifference) {
  SimCluster a(ConvergenceOptions::all_opts(), {}, 5);
  SimCluster b(ConvergenceOptions::all_opts(), {}, 5);
  a.put(Key{"k"}, a.make_value(1000, 1));
  b.put(Key{"k"}, b.make_value(1000, 2));  // different content
  a.run_to_quiescence();
  b.run_to_quiescence();
  EXPECT_NE(a.cluster.state_digest(), b.cluster.state_digest());
}

TEST(EquivalenceTest, DigestDetectsCorruption) {
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 5);
  const auto r = tc.put(Key{"k"}, tc.make_value(1000));
  tc.run_to_quiescence();
  const auto before = tc.cluster.state_digest();
  ASSERT_TRUE(tc.cluster.fs(0).corrupt_fragment(r.ov, 0) ||
              tc.cluster.fs(1).corrupt_fragment(r.ov, 0) ||
              tc.cluster.fs(2).corrupt_fragment(r.ov, 0));
  EXPECT_NE(tc.cluster.state_digest(), before);
}

}  // namespace
}  // namespace pahoehoe
