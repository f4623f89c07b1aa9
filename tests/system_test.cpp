// System-level integration tests: long mixed workloads under rolling
// failures, verifying the archive's global invariants at every checkpoint:
//   * durability — every acked put remains readable with identical bytes,
//   * eventual consistency — at quiescence every durable version is AMR,
//   * monotonicity — gets never go back in time for a key,
//   * stability — AMR versions stay AMR through later faults.
#include <gtest/gtest.h>

#include <map>

#include "common/sha256.h"
#include "core/harness.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using core::VersionStatus;
using testing::SimCluster;
using testing::hours;
using testing::minutes;
using testing::seconds;

class Archive {
 public:
  explicit Archive(SimCluster& tc) : tc_(tc) {}

  void put(const std::string& key, uint8_t salt) {
    const Bytes value = tc_.make_value(4096 + salt * 17, salt);
    const auto r = tc_.put(Key{key}, value, Policy{});
    if (r.success) {
      acked_[Key{key}] = Sha256::hash(value);
      last_acked_ts_[Key{key}] = r.ov.ts;
    }
    put_versions_.push_back(r.ov);
  }

  void verify_every_acked_readable() {
    for (const auto& [key, digest] : acked_) {
      const auto got = tc_.get(key);
      ASSERT_TRUE(got.success) << key.value;
      // The content may be a NEWER acked version of the key; the digest
      // must match whatever version was returned — verify via timestamp
      // monotonicity plus content hash of the latest acked version.
      if (got.ts == last_acked_ts_[key]) {
        EXPECT_EQ(Sha256::hash(got.value), digest) << key.value;
      }
      // Gets never return a version older than the last acked one
      // (an acked version is durable, and AMR versions bound the floor).
      auto it = observed_ts_.find(key);
      if (it != observed_ts_.end()) {
        EXPECT_GE(got.ts, it->second) << "get went back in time: " << key.value;
      }
      observed_ts_[key] = got.ts;
    }
  }

  void verify_all_durable_amr_at_quiescence() {
    for (const auto& ov : put_versions_) {
      EXPECT_NE(tc_.cluster.classify(ov), VersionStatus::kDurableNotAmr)
          << to_string(ov);
    }
    EXPECT_EQ(tc_.cluster.total_pending_versions(), 0u);
  }

  size_t acked_count() const { return acked_.size(); }

 private:
  SimCluster& tc_;
  std::map<Key, Sha256::Digest> acked_;
  std::map<Key, Timestamp> last_acked_ts_;
  std::map<Key, Timestamp> observed_ts_;
  std::vector<ObjectVersionId> put_versions_;
};

TEST(SystemTest, RollingFailuresLongWorkload) {
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 2026);
  Archive archive(tc);

  // Phase 1: normal operation.
  for (int i = 0; i < 10; ++i) {
    archive.put("p1-" + std::to_string(i), static_cast<uint8_t>(i + 1));
  }
  archive.verify_every_acked_readable();

  // Phase 2: an FS crashes (volatile state lost), writes continue.
  tc.cluster.fs(2).crash();
  for (int i = 0; i < 10; ++i) {
    archive.put("p2-" + std::to_string(i), static_cast<uint8_t>(i + 30));
  }
  archive.verify_every_acked_readable();
  tc.cluster.fs(2).recover();

  // Phase 3: a KLS blackout overlapping more writes.
  tc.blackout_kls(1, 0, 0, minutes(8));
  for (int i = 0; i < 10; ++i) {
    archive.put("p3-" + std::to_string(i), static_cast<uint8_t>(i + 60));
  }
  archive.verify_every_acked_readable();

  // Phase 4: quiesce and check the global invariant.
  tc.run_to_quiescence();
  archive.verify_all_durable_amr_at_quiescence();
  archive.verify_every_acked_readable();
  EXPECT_EQ(archive.acked_count(), 30u);
}

TEST(SystemTest, OverlappingUpdatesOfFewKeysUnderLoss) {
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 7);
  tc.net.add_fault(std::make_shared<net::UniformLoss>(0.05));
  Archive archive(tc);
  // 30 writes over 6 keys: version chains with overlapping repair work.
  for (int i = 0; i < 30; ++i) {
    archive.put("key-" + std::to_string(i % 6), static_cast<uint8_t>(i + 1));
    tc.run_for(seconds(3));
  }
  tc.run_to_quiescence();
  archive.verify_all_durable_amr_at_quiescence();
  archive.verify_every_acked_readable();
}

TEST(SystemTest, CrashFaultSpecsThroughHarness) {
  core::RunConfig config = core::paper_default_config();
  config.convergence = ConvergenceOptions::all_opts();
  config.workload.num_puts = 15;
  config.workload.value_size = 4096;
  // A true crash (volatile state loss) mid-put-phase, unlike a blackout.
  config.faults.push_back(
      core::FaultSpec::fs_crash(0, 1, 5 * kMicrosPerSecond,
                                10LL * 60 * kMicrosPerSecond));
  config.faults.push_back(
      core::FaultSpec::kls_crash(1, 1, 0, 5LL * 60 * kMicrosPerSecond));
  const auto r = core::run_experiment(config);
  EXPECT_EQ(r.amr, 15);
  EXPECT_EQ(r.durable_not_amr, 0);
  EXPECT_TRUE(r.quiescent);
}

TEST(SystemTest, EverythingAtOnce) {
  // Loss + an FS blackout + a KLS crash + a disk destruction, interleaved
  // with writes and reads. The archive must still converge completely.
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 99);
  Archive archive(tc);
  tc.net.add_fault(std::make_shared<net::UniformLoss>(0.03));
  tc.blackout_fs(1, 1, 0, minutes(6));
  tc.cluster.kls(0, 1).crash();

  for (int i = 0; i < 12; ++i) {
    archive.put("chaos-" + std::to_string(i), static_cast<uint8_t>(i + 1));
    tc.run_for(seconds(2));
  }
  tc.cluster.kls(0, 1).recover();

  // Destroy a disk after some data has converged, then scrub.
  tc.run_for(minutes(3));
  tc.cluster.fs(0).destroy_disk(0);
  tc.cluster.fs(0).scrub();

  tc.run_to_quiescence();
  archive.verify_all_durable_amr_at_quiescence();
  archive.verify_every_acked_readable();
}

TEST(SystemTest, ColdReadOfFullyRepairedArchiveFromMinorityFragments) {
  // Write with most of one DC down, converge, then read with most of the
  // OTHER DC down: proves the repaired fragments carry real data, not just
  // bookkeeping.
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 5);
  tc.blackout_fs(1, 0, 0, minutes(10));
  tc.blackout_fs(1, 1, 0, minutes(10));
  std::vector<std::pair<Key, Sha256::Digest>> digests;
  for (int i = 0; i < 8; ++i) {
    const Key key{"cold-" + std::to_string(i)};
    const Bytes value = tc.make_value(20000, static_cast<uint8_t>(i + 1));
    digests.emplace_back(key, Sha256::hash(value));
    tc.put(key, value);
  }
  tc.run_to_quiescence();  // heal + converge

  // Now DC 0 goes almost entirely dark; reads must be served by DC 1's
  // regenerated fragments (4 of the 6 DC-1 fragments suffice).
  tc.blackout_fs(0, 0, 0, minutes(10));
  tc.blackout_fs(0, 1, 0, minutes(10));
  tc.blackout_fs(0, 2, 0, minutes(10));
  for (const auto& [key, digest] : digests) {
    const auto got = tc.get(key);
    ASSERT_TRUE(got.success) << key.value;
    EXPECT_EQ(Sha256::hash(got.value), digest) << key.value;
  }
}

}  // namespace
}  // namespace pahoehoe
