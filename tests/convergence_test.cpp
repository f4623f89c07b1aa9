// Convergence protocol tests (paper §3.4 naïve protocol, §4 optimizations).
#include <gtest/gtest.h>

#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using core::VersionStatus;
using testing::SimCluster;
using testing::hours;
using testing::minutes;
using testing::seconds;
using wire::MessageType;

uint64_t sent(const SimCluster& tc, MessageType type) {
  return tc.net.stats().of(type).sent_count;
}

TEST(NaiveConvergenceTest, FailureFreeVersionsReachAmrViaVerification) {
  SimCluster tc(ConvergenceOptions::naive());
  const auto r = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_GT(tc.cluster.total_pending_versions(), 0u);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  // Every FS ran a full verification step: converge messages to all 4 KLSs
  // and 5 sibling FSs, each answered.
  EXPECT_EQ(sent(tc, MessageType::kKlsConvergeReq), 6u * 4u);
  EXPECT_EQ(sent(tc, MessageType::kKlsConvergeRep), 6u * 4u);
  EXPECT_EQ(sent(tc, MessageType::kFsConvergeReq), 6u * 5u);
  EXPECT_EQ(sent(tc, MessageType::kFsConvergeRep), 6u * 5u);
  EXPECT_EQ(sent(tc, MessageType::kAmrIndication), 0u);
  // No repair traffic in the failure-free case.
  EXPECT_EQ(sent(tc, MessageType::kRetrieveFragReq), 0u);
  EXPECT_EQ(sent(tc, MessageType::kSiblingStoreReq), 0u);
}

TEST(NaiveConvergenceTest, EachFsConvergesIndependently) {
  SimCluster tc(ConvergenceOptions::naive());
  tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    EXPECT_EQ(tc.cluster.fs(i).versions_converged(), 1u) << "fs " << i;
  }
}

TEST(FsAmrIndicationTest, UnsynchronizedStartSuppressesSiblingSteps) {
  SimCluster tc(ConvergenceOptions::fs_amr_unsync());
  tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  // The first FS to round verifies AMR and tells the others; most FSs never
  // run their own step.
  EXPECT_EQ(sent(tc, MessageType::kAmrIndication), 5u);
  uint64_t converged = 0;
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    converged += tc.cluster.fs(i).versions_converged();
  }
  EXPECT_EQ(converged, 1u);
  EXPECT_EQ(sent(tc, MessageType::kKlsConvergeReq), 4u);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

TEST(FsAmrIndicationTest, SynchronizedStartDuplicatesWork) {
  SimCluster sync(ConvergenceOptions::fs_amr_sync());
  sync.put(Key{"k"}, sync.make_value(4096));
  sync.run_to_quiescence();
  // All six FSs step at the same instant; indications arrive too late to
  // save work and add their own messages (the paper's FSAMR-S +13%).
  EXPECT_EQ(sent(sync, MessageType::kKlsConvergeReq), 24u);
  EXPECT_EQ(sent(sync, MessageType::kAmrIndication), 30u);
  EXPECT_EQ(sync.cluster.total_pending_versions(), 0u);
}

TEST(PutAmrIndicationTest, MinAgeDefersEarlyConvergence) {
  ConvergenceOptions conv = ConvergenceOptions::put_amr();
  SimCluster tc(conv);
  tc.put(Key{"k"}, tc.make_value(4096));
  // Work list drains via the proxy's indication, not via rounds.
  tc.run_for(seconds(1));
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  EXPECT_EQ(sent(tc, MessageType::kAmrIndication), 6u);
  EXPECT_EQ(sent(tc, MessageType::kKlsConvergeReq), 0u);
}

TEST(NaiveConvergenceTest, ProxyClockAheadOfTheFssIsNoHiddenMinAge) {
  // min_age applies only with PutAMR (DESIGN.md §7). A proxy whose clock
  // runs 10 min ahead stamps versions in the FSs' future; without min-age
  // that must not delay convergence past the first synchronized round.
  core::ProxyOptions proxy_options;
  proxy_options.clock_skew = minutes(10);
  SimCluster tc(ConvergenceOptions::naive(), {}, 42, proxy_options);
  const auto r = tc.put(Key{"k"}, tc.make_value(4096));
  ASSERT_TRUE(r.success);
  tc.sim.run(seconds(90));
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    EXPECT_EQ(tc.cluster.fs(i).versions_converged(), 1u) << "fs " << i;
  }
}

TEST(PutAmrIndicationTest, LostIndicationsOnlyCostExtraConvergenceWork) {
  // Drop every AMR indication: the optimization is not needed for
  // correctness (§4.1) — FSs fall back to running convergence steps after
  // min_age and the version still reaches AMR.
  ConvergenceOptions conv = ConvergenceOptions::put_amr();
  conv.min_age = seconds(30);
  SimCluster tc(conv);
  tc.net.add_fault(
      std::make_shared<net::TypedDrop>(wire::MessageType::kAmrIndication));
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  // Convergence work actually happened (it would not have, had the
  // indications been delivered).
  EXPECT_GT(sent(tc, MessageType::kKlsConvergeReq), 0u);
}

TEST(ConvergenceTest, FsBlackoutHealsToAmr) {
  for (const auto& conv :
       {ConvergenceOptions::put_amr(), ConvergenceOptions::fs_amr_unsync(),
        ConvergenceOptions::sibling_only(), ConvergenceOptions::all_opts(),
        ConvergenceOptions::naive()}) {
    SimCluster tc(conv);
    tc.blackout_fs(0, 0, 0, minutes(10));
    const auto r = tc.put(Key{"k"}, tc.make_value(8192));
    EXPECT_TRUE(r.success);  // 10 acks ≥ 8
    tc.run_to_quiescence();
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr)
        << core::describe(conv);
    EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  }
}

TEST(ConvergenceTest, FourFsBlackoutStillHealsToAmr) {
  // 4 of 6 FSs down: exactly k=4 fragments stored; everything else must be
  // regenerated after the heal.
  for (const auto& conv :
       {ConvergenceOptions::all_opts(), ConvergenceOptions::naive()}) {
    SimCluster tc(conv);
    tc.blackout_fs(0, 0, 0, minutes(10));
    tc.blackout_fs(0, 1, 0, minutes(10));
    tc.blackout_fs(1, 0, 0, minutes(10));
    tc.blackout_fs(1, 1, 0, minutes(10));
    const auto r = tc.put(Key{"k"}, tc.make_value(8192));
    EXPECT_FALSE(r.success);  // only 4 acks < 8
    tc.run_to_quiescence();
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr)
        << core::describe(conv);
  }
}

TEST(ConvergenceTest, RecoveredFragmentsAreBitExact) {
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.blackout_fs(0, 0, 0, minutes(10));
  const Bytes value = tc.make_value(100 * 1024);
  const auto r = tc.put(Key{"k"}, value);
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  // A get served entirely by the recovered data center's FSs round-trips.
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(ConvergenceTest, SiblingRecoveryPushesFragments) {
  // Two FSs down → after heal, one recovery run regenerates both FSs'
  // fragments; SiblingStore pushes appear.
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.blackout_fs(0, 0, 0, minutes(10));
  tc.blackout_fs(1, 0, 0, minutes(10));
  const auto r = tc.put(Key{"k"}, tc.make_value(8192));
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  EXPECT_GE(sent(tc, MessageType::kSiblingStoreReq), 1u);
  // Total fragment reads bounded near k (one amortized recovery), not
  // 2 × k (each FS reading independently).
  EXPECT_LE(sent(tc, MessageType::kRetrieveFragReq), 6u);
}

TEST(ConvergenceTest, PlainRecoveryWithoutSiblingOptimization) {
  // Same scenario without §4.2: each needy FS performs its own get-style
  // recovery; no SiblingStore messages, more fragment reads.
  ConvergenceOptions conv = ConvergenceOptions::fs_amr_unsync();
  SimCluster tc(conv);
  tc.blackout_fs(0, 0, 0, minutes(10));
  tc.blackout_fs(1, 0, 0, minutes(10));
  const auto r = tc.put(Key{"k"}, tc.make_value(8192));
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  EXPECT_EQ(sent(tc, MessageType::kSiblingStoreReq), 0u);
  EXPECT_GE(sent(tc, MessageType::kRetrieveFragReq), 10u);
}

TEST(ConvergenceTest, LowerIdBacksOffWhenRecoveriesCollide) {
  // Force simultaneous recovery intents with synchronized rounds: both
  // needy FSs step at the same instant; the lower id must stand down.
  ConvergenceOptions conv;
  conv.sibling_recovery = true;
  conv.unsync_rounds = false;
  SimCluster tc(conv);
  tc.blackout_fs(0, 0, 0, minutes(10));
  tc.blackout_fs(1, 0, 0, minutes(10));
  const auto r = tc.put(Key{"k"}, tc.make_value(8192));
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  uint64_t backoffs = 0;
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    backoffs += tc.cluster.fs(i).recovery_backoffs();
  }
  EXPECT_GE(backoffs, 1u);
}

TEST(ConvergenceTest, KlsBlackoutLearnsVersionThroughConvergence) {
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.blackout_kls(0, 0, 0, minutes(10));
  const auto r = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_TRUE(r.success);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  // The blacked-out KLS now stores the timestamp and complete metadata,
  // learned from FS converge messages after the heal.
  EXPECT_TRUE(tc.cluster.kls(0, 0).timestamp_store().contains(r.ov.key,
                                                              r.ov.ts));
  const Metadata* meta = tc.cluster.kls(0, 0).meta_store().find(r.ov);
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->complete());
}

TEST(ConvergenceTest, WanPartitionStyleKlsFailureHealsToAmr) {
  // The paper's 2P case: both KLSs of DC 1 unreachable during the put, so
  // no DC-1 locations are decided and only DC 0's six fragments exist.
  // After the heal, convergence must (a) complete the metadata via an
  // FS decide_locs, (b) notify the DC-1 FSs, (c) recover their fragments.
  for (const auto& conv :
       {ConvergenceOptions::all_opts(), ConvergenceOptions::naive()}) {
    SimCluster tc(conv);
    tc.blackout_kls(1, 0, 0, minutes(10));
    tc.blackout_kls(1, 1, 0, minutes(10));
    const auto r = tc.put(Key{"k"}, tc.make_value(8192));
    EXPECT_FALSE(r.success);  // 6 acks < 8
    tc.run_to_quiescence();
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr)
        << core::describe(conv);
    EXPECT_GE(sent(tc, MessageType::kFsDecideLocsReq), 1u)
        << core::describe(conv);
  }
}

TEST(ConvergenceTest, KlsNotifiesSiblingsOfFsLocationDecision) {
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.blackout_kls(1, 0, 0, minutes(10));
  tc.blackout_kls(1, 1, 0, minutes(10));
  tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  EXPECT_GE(sent(tc, MessageType::kKlsLocsNotify), 1u);
}

TEST(ConvergenceTest, LossyNetworkEventuallyConverges) {
  net::NetworkConfig net_config;
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 42, {}, net_config);
  tc.net.add_fault(std::make_shared<net::UniformLoss>(0.10));
  std::vector<core::PutResult> results;
  for (int i = 0; i < 10; ++i) {
    results.push_back(
        tc.put(Key{"k" + std::to_string(i)}, tc.make_value(4096, static_cast<uint8_t>(i))));
  }
  tc.run_to_quiescence();
  for (const auto& r : results) {
    const auto status = tc.cluster.classify(r.ov);
    EXPECT_NE(status, VersionStatus::kDurableNotAmr)
        << "durable versions must converge";
  }
  EXPECT_TRUE(tc.cluster.converged_quiescent());
}

TEST(ConvergenceTest, NonDurableVersionGivesUpAtCutoff) {
  ConvergenceOptions conv = ConvergenceOptions::all_opts();
  conv.giveup_age = hours(2);  // shorten the two-month horizon for the test
  SimCluster tc(conv);
  // 5 FSs down long enough that only ≤2 fragments ever exist, and the
  // blackout outlives the give-up horizon.
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      if (dc == 0 && i == 0) continue;
      tc.blackout_fs(dc, i, 0, hours(3));
    }
  }
  const auto r = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_FALSE(r.success);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kNonDurable);
  uint64_t given_up = 0;
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    given_up += tc.cluster.fs(i).versions_given_up();
  }
  EXPECT_GE(given_up, 1u);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

TEST(ConvergenceTest, ExponentialBackoffBoundsRetryTraffic) {
  // One FS permanently down: convergence can never finish for its
  // fragments, but backoff must keep the retry traffic sub-linear in time.
  ConvergenceOptions conv = ConvergenceOptions::all_opts();
  conv.giveup_age = hours(50);
  SimCluster tc(conv);
  tc.blackout_fs(0, 0, 0, hours(49));
  const auto r = tc.put(Key{"k"}, tc.make_value(2048));
  EXPECT_TRUE(r.success);

  tc.run_for(hours(1));
  const uint64_t early = tc.net.stats().total_sent_count();
  tc.run_for(hours(8));
  const uint64_t late = tc.net.stats().total_sent_count();
  // 8 further hours must cost (much) less than 8× the first hour.
  EXPECT_LT(late - early, 4 * early);
}

TEST(ConvergenceTest, AmrIsStableAcrossCrashRecover) {
  SimCluster tc(ConvergenceOptions::all_opts());
  const Bytes value = tc.make_value(4096);
  const auto r = tc.put(Key{"k"}, value);
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);

  for (int i = 0; i < tc.cluster.num_fs(); ++i) tc.cluster.fs(i).crash();
  tc.run_for(seconds(10));
  for (int i = 0; i < tc.cluster.num_fs(); ++i) tc.cluster.fs(i).recover();
  tc.run_to_quiescence();
  // Persistent stores survived: still AMR, no convergence work resumed.
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(ConvergenceTest, CrashDuringConvergenceResumesFromStableStorage) {
  SimCluster tc(ConvergenceOptions::naive());
  tc.blackout_fs(0, 0, 0, minutes(10));
  const auto r = tc.put(Key{"k"}, tc.make_value(4096));
  // Crash a live FS mid-convergence; its work-list is persistent.
  tc.run_for(minutes(2));
  tc.cluster.fs(1).crash();
  tc.run_for(minutes(2));
  tc.cluster.fs(1).recover();
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
}

TEST(ConvergenceTest, ConvergeRequestDoesNotResurrectAmrVersion) {
  SimCluster tc(ConvergenceOptions::naive());
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.total_pending_versions(), 0u);
  // Hand-deliver a converge request for the already-AMR version.
  const Metadata* meta = tc.cluster.kls(0).meta_store().find(r.ov);
  ASSERT_NE(meta, nullptr);
  tc.net.send(tc.cluster.fs(1).id(), tc.cluster.fs(0).id(),
              wire::FsConvergeReq{r.ov, *meta, false});
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.fs(0).pending_versions(), 0u);
}

TEST(ConvergenceTest, CorruptedFragmentRepairedAfterScrub) {
  SimCluster tc(ConvergenceOptions::all_opts());
  const Bytes value = tc.make_value(8192);
  const auto r = tc.put(Key{"k"}, value);
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);

  // Find an FS owning a fragment and corrupt it.
  const Metadata* meta = tc.cluster.kls(0).meta_store().find(r.ov);
  ASSERT_NE(meta, nullptr);
  core::FragmentServer* victim = nullptr;
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    if (tc.cluster.fs(i).id() == meta->locs[0]->fs) {
      victim = &tc.cluster.fs(i);
    }
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(victim->corrupt_fragment(r.ov, 0));
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kDurableNotAmr);

  EXPECT_EQ(victim->scrub(), 1u);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(ConvergenceTest, DestroyedDiskRebuiltAfterScrub) {
  SimCluster tc(ConvergenceOptions::all_opts());
  const auto r1 = tc.put(Key{"a"}, tc.make_value(4096, 1));
  const auto r2 = tc.put(Key{"b"}, tc.make_value(4096, 2));
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r1.ov), VersionStatus::kAmr);

  const size_t lost = tc.cluster.fs(0).destroy_disk(0);
  EXPECT_GE(lost, 1u);
  EXPECT_GE(tc.cluster.fs(0).scrub(), 1u);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r1.ov), VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.classify(r2.ov), VersionStatus::kAmr);
}

TEST(ConvergenceTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    SimCluster tc(ConvergenceOptions::all_opts(), {}, seed);
    tc.blackout_fs(0, 0, 0, minutes(10));
    tc.put(Key{"k"}, tc.make_value(4096));
    tc.run_to_quiescence();
    return std::make_pair(tc.net.stats().total_sent_count(),
                          tc.net.stats().total_sent_bytes());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ConvergenceTest, ManyKeysAllConverge) {
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.blackout_fs(1, 2, 0, minutes(10));
  std::vector<core::PutResult> results;
  for (int i = 0; i < 25; ++i) {
    results.push_back(tc.put(Key{"key-" + std::to_string(i)},
                             tc.make_value(2048, static_cast<uint8_t>(i))));
  }
  tc.run_to_quiescence();
  for (const auto& r : results) {
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  }
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

}  // namespace
}  // namespace pahoehoe
