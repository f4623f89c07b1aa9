// Unit tests for the Proxy's put/get state machines, exercising edge cases
// via targeted fault injection on specific message types.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using testing::SimCluster;
using testing::minutes;
using testing::seconds;
using wire::MessageType;

uint64_t sent(const SimCluster& tc, MessageType type) {
  return tc.net.stats().of(type).sent_count;
}

TEST(ProxyPutTest, FailureFreeMessagePattern) {
  // The exact Fig 2 message pattern with both latency optimizations:
  // 4 decide-locs (+4 replies), 2×4 metadata stores (+8 replies),
  // 6+12 fragment stores (+18 replies), 6 AMR indications.
  SimCluster tc(ConvergenceOptions::put_amr());
  tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  EXPECT_EQ(sent(tc, MessageType::kDecideLocsReq), 4u);
  EXPECT_EQ(sent(tc, MessageType::kDecideLocsRep), 4u);
  EXPECT_EQ(sent(tc, MessageType::kStoreMetadataReq), 8u);
  EXPECT_EQ(sent(tc, MessageType::kStoreMetadataRep), 8u);
  EXPECT_EQ(sent(tc, MessageType::kStoreFragmentReq), 18u);
  EXPECT_EQ(sent(tc, MessageType::kStoreFragmentRep), 18u);
  EXPECT_EQ(sent(tc, MessageType::kAmrIndication), 6u);
}

TEST(ProxyPutTest, SecondDecideLocsReplyPerDcIgnored) {
  // Both KLSs of each DC answer; only the first per DC triggers stores
  // (useful_locs, Fig 2 line 7): still exactly 2 store rounds.
  SimCluster tc(ConvergenceOptions::put_amr());
  tc.put(Key{"k"}, tc.make_value(1024));
  tc.run_to_quiescence();
  EXPECT_EQ(sent(tc, MessageType::kStoreMetadataReq), 8u);
}

TEST(ProxyPutTest, NoAmrIndicationWhenMetadataAckLost) {
  // Drop all metadata-store replies: the proxy cannot conclude AMR, so no
  // indications; the client still gets success from fragment acks, and
  // convergence finishes the job.
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.net.add_fault(std::make_shared<net::TypedDrop>(
      MessageType::kStoreMetadataRep));
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  EXPECT_TRUE(r.success);
  tc.run_to_quiescence();
  // The proxy stayed unsure and sent no indications (the FSs, which DID
  // converge, sent their own — count the proxy's separately).
  EXPECT_EQ(tc.cluster.proxy(0).amr_indications_sent(), 0u);
  EXPECT_GT(sent(tc, MessageType::kKlsConvergeReq), 0u);
  EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
}

TEST(ProxyPutTest, NoAmrIndicationWhenFragmentAckLost) {
  SimCluster tc(ConvergenceOptions::all_opts());
  tc.net.add_fault(std::make_shared<net::TypedDrop>(
      MessageType::kStoreFragmentRep));
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  EXPECT_FALSE(r.success);  // no fragment acks at all → below threshold
  tc.run_to_quiescence();
  // Fragments were stored (only the acks vanished); convergence repairs
  // the proxy's uncertainty.
  EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
}

TEST(ProxyPutTest, TimesOutWhenAllKlssUnreachable) {
  SimCluster tc;
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 2; ++i) tc.blackout_kls(dc, i, 0, minutes(30));
  }
  const SimTime start = tc.sim.now();
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.frag_acks, 0);
  // Failed via the put timeout, not instantly.
  EXPECT_GE(tc.sim.now() - start, core::Proxy::kPutTimeout);
}

TEST(ProxyPutTest, LateRepliesAfterTimeoutAreIgnored) {
  // Delay beyond the put timeout by parking replies behind a blackout that
  // ends after the timeout: the op is gone; late replies must not crash or
  // double-fire the callback.
  SimCluster tc;
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      tc.blackout_fs(dc, i, 0, 12 * kMicrosPerSecond);  // > 10 s put timeout
    }
  }
  int callbacks = 0;
  tc.cluster.proxy(0).put(Key{"k"}, tc.make_value(1024), Policy{},
                          [&](const core::PutResult&) { ++callbacks; });
  tc.run_for(minutes(2));
  EXPECT_EQ(callbacks, 1);
}

TEST(ProxyPutTest, PolicySuccessThresholdRespected) {
  // min_frags_for_success = 12 (all) with one FS down: must fail.
  Policy strict;
  strict.min_frags_for_success = 12;
  SimCluster tc;
  tc.blackout_fs(0, 0, 0, minutes(5));
  const auto r = tc.put(Key{"k"}, tc.make_value(1024), strict);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.frag_acks, 10);

  // min_frags_for_success = 4 with the same failure: must succeed.
  Policy lax;
  lax.min_frags_for_success = 4;
  const auto r2 = tc.put(Key{"k2"}, tc.make_value(1024), lax);
  EXPECT_TRUE(r2.success);
}

TEST(ProxyGetTest, DecodesFromFirstKFragments) {
  // Fragment replies race; the proxy decodes as soon as any k arrive.
  SimCluster tc;
  const Bytes value = tc.make_value(40960);
  tc.put(Key{"k"}, value);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
  // It asked every decided location (Fig 3 line 26).
  EXPECT_EQ(sent(tc, MessageType::kRetrieveFragReq), 12u);
}

TEST(ProxyGetTest, RetrieveTsFanoutAndEarlyStart) {
  SimCluster tc;
  tc.put(Key{"k"}, tc.make_value(1024));
  tc.get(Key{"k"});
  EXPECT_EQ(sent(tc, MessageType::kRetrieveTsReq), 4u);
}

TEST(ProxyGetTest, LostTsRepliesStillServeFromRemainingKlss) {
  SimCluster tc;
  const Bytes value = tc.make_value(2048);
  tc.put(Key{"k"}, value);
  // Three of four KLSs unreachable for the get.
  tc.blackout_kls(0, 0, 0, minutes(5));
  tc.blackout_kls(0, 1, 0, minutes(5));
  tc.blackout_kls(1, 0, 0, minutes(5));
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(ProxyGetTest, AbortsWhenNoVersionRecoverableAndAllKlssReplied) {
  // A version that is registered at the KLSs but whose fragments are all
  // unreachable: the get must abort (failure), not hang.
  SimCluster tc;
  tc.put(Key{"k"}, tc.make_value(2048));
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) tc.blackout_fs(dc, i, 0, minutes(5));
  }
  const auto got = tc.get(Key{"k"});
  EXPECT_FALSE(got.success);
}

TEST(ProxyGetTest, SkipsNonDurableLatestAndReturnsOlderAmr) {
  // Covered end-to-end in put_get_test; here check the message economy:
  // the proxy must not retry the dead version's fragments more than once.
  core::ConvergenceOptions conv;
  SimCluster tc(conv);
  const Bytes v1 = tc.make_value(2048, 1);
  tc.put(Key{"k"}, v1);

  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      if (dc == 0 && i == 0) continue;
      tc.blackout_fs(dc, i, 0, seconds(30));
    }
  }
  const auto r2 = tc.put(Key{"k"}, tc.make_value(2048, 2));
  EXPECT_FALSE(r2.success);
  tc.run_for(seconds(40));  // heal

  const uint64_t frag_reqs_before = sent(tc, MessageType::kRetrieveFragReq);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, v1);
  const uint64_t frag_reqs = sent(tc, MessageType::kRetrieveFragReq) -
                             frag_reqs_before;
  EXPECT_LE(frag_reqs, 24u);  // one wave for v2 (12) + one wave for v1 (12)
}

TEST(ProxyGetTest, ConcurrentGetSameKeyRejected) {
  SimCluster tc;
  tc.put(Key{"k"}, tc.make_value(128));
  tc.cluster.proxy(0).get(Key{"k"}, [](const core::GetResult&) {});
  EXPECT_DEATH(tc.cluster.proxy(0).get(Key{"k"}, [](const core::GetResult&) {}),
               "one get at a time");
}

TEST(ProxyGetTest, GetUnderDuplicatingNetwork) {
  net::NetworkConfig config;
  config.duplication_rate = 0.3;  // bounded duplication (system model §3.1)
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 42, {}, config);
  const Bytes value = tc.make_value(8192);
  const auto r = tc.put(Key{"k"}, value);
  EXPECT_TRUE(r.success);
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(ProxyGetTest, ValuesOfEveryVersionRetrievable) {
  // Multiple versions of one key: the latest is returned by get; earlier
  // versions remain stored (nothing is ever deleted, §3.6).
  SimCluster tc(ConvergenceOptions::all_opts());
  std::vector<core::PutResult> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(
        tc.put(Key{"k"}, tc.make_value(1024, static_cast<uint8_t>(i))));
  }
  tc.run_to_quiescence();
  for (const auto& r : results) {
    EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
  }
}


TEST(ProxyGetPagingTest, PagedRetrievalFindsLatestVersion) {
  core::ProxyOptions proxy;
  proxy.get_page_size = 1;  // one version per page: worst-case paging
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 42, proxy);
  Bytes latest;
  for (int i = 0; i < 5; ++i) {
    latest = tc.make_value(2048, static_cast<uint8_t>(i + 1));
    tc.put(Key{"k"}, latest);
  }
  tc.run_to_quiescence();
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, latest);
  // The latest version is on every KLS's first page; no continuation pages
  // were needed.
  EXPECT_EQ(sent(tc, MessageType::kRetrieveTsReq), 4u);
}

TEST(ProxyGetPagingTest, PagesDeeperWhenLatestVersionsUnrecoverable) {
  core::ProxyOptions proxy;
  proxy.get_page_size = 1;
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 42, proxy);
  const Bytes good = tc.make_value(2048, 1);
  tc.put(Key{"k"}, good);
  tc.run_to_quiescence();

  // Two newer versions whose fragments are mostly lost (5 of 6 FSs down).
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      if (dc == 0 && i == 0) continue;
      tc.blackout_fs(dc, i, 0, testing::seconds(25));
    }
  }
  tc.put(Key{"k"}, tc.make_value(2048, 2));
  tc.put(Key{"k"}, tc.make_value(2048, 3));
  tc.run_for(testing::seconds(30));  // heal

  const uint64_t ts_reqs_before = sent(tc, MessageType::kRetrieveTsReq);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, good);
  // Reaching the third-newest version required continuation pages.
  EXPECT_GT(sent(tc, MessageType::kRetrieveTsReq) - ts_reqs_before, 4u);
}

TEST(ProxyGetPagingTest, MissingKeyAbortsAfterDrainingAllPages) {
  core::ProxyOptions proxy;
  proxy.get_page_size = 2;
  SimCluster tc(ConvergenceOptions::all_opts(), {}, 42, proxy);
  tc.put(Key{"other"}, tc.make_value(512));
  const auto got = tc.get(Key{"missing"});
  EXPECT_FALSE(got.success);
}

}  // namespace
}  // namespace pahoehoe
