// Unit tests for the Key Lookup Server, driving it with hand-crafted
// messages through the network (no proxy/FS involved).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "test_util.h"

namespace pahoehoe {
namespace {

using testing::SimCluster;
using wire::MessageType;

// A scripted peer: records everything addressed to it.
class Probe : public net::MessageHandler {
 public:
  void handle(wire::Envelope&& env) override {
    received.push_back(std::move(env));
  }

  /// Every message of `type` received so far.
  template <typename M>
  std::vector<M> all(MessageType type) const {
    std::vector<M> out;
    for (const auto& env : received) {
      if (env.type == type) out.push_back(std::get<M>(env.msg));
    }
    return out;
  }

  std::vector<wire::Envelope> received;
};

class KlsTest : public ::testing::Test {
 protected:
  KlsTest() : tc(core::ConvergenceOptions::naive()) {
    probe_id = NodeId{9999};
    tc.net.register_node(probe_id, &probe);
    kls = &tc.cluster.kls(0, 0);
  }

  ObjectVersionId ov(const std::string& key, SimTime t = 100) {
    return ObjectVersionId{Key{key}, Timestamp{t, 1}};
  }

  template <typename M>
  void deliver_and_run(M msg) {
    tc.net.send(probe_id, kls->id(), std::move(msg));
    // Bounded horizon: enough for request + reply + notifications, short of
    // any convergence round the side effects may have scheduled on FSs.
    tc.run_for(testing::seconds(5));
  }

  SimCluster tc;
  NodeId probe_id;
  Probe probe;
  core::KeyLookupServer* kls = nullptr;
};

TEST_F(KlsTest, ProxyDecideLocsSuggestsOwnDcOnly) {
  deliver_and_run(wire::DecideLocsReq{ov("k"), Policy{}, 0, false});
  auto reps = probe.all<wire::DecideLocsRep>(MessageType::kDecideLocsRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].dc, DataCenterId{0});
  EXPECT_EQ(reps[0].meta.decided_count(), 6);
  for (int slot = 0; slot < 6; ++slot) {
    ASSERT_TRUE(reps[0].meta.locs[static_cast<size_t>(slot)].has_value());
    EXPECT_EQ(tc.cluster.view()->dc_of(
                  reps[0].meta.locs[static_cast<size_t>(slot)]->fs),
              DataCenterId{0});
  }
  // Proxy-originated requests are NOT persisted (§3.5).
  EXPECT_FALSE(kls->meta_store().contains(ov("k")));
  EXPECT_FALSE(kls->timestamp_store().contains(ov("k").key, ov("k").ts));
}

TEST_F(KlsTest, BothKlssOfADcSuggestIdentically) {
  auto& other = tc.cluster.kls(0, 1);
  tc.net.send(probe_id, kls->id(),
              wire::DecideLocsReq{ov("k"), Policy{}, 0, false});
  tc.net.send(probe_id, other.id(),
              wire::DecideLocsReq{ov("k"), Policy{}, 0, false});
  tc.run_to_quiescence();
  auto reps = probe.all<wire::DecideLocsRep>(MessageType::kDecideLocsRep);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0].meta, reps[1].meta);
}

TEST_F(KlsTest, FsDecideLocsPersistsAndNotifiesSiblings) {
  deliver_and_run(wire::DecideLocsReq{ov("k"), Policy{}, 4096, true});
  // Persisted before replying (§3.5).
  EXPECT_TRUE(kls->meta_store().contains(ov("k")));
  EXPECT_TRUE(kls->timestamp_store().contains(ov("k").key, ov("k").ts));
  // Sibling FSs notified of the decision (all suggested FSs except the
  // requester — the probe is not an FS, so all of them).
  const size_t notified =
      tc.net.stats().of(MessageType::kKlsLocsNotify).sent_count;
  EXPECT_EQ(notified, 3u);  // 3 distinct FSs host the 6 DC-0 slots
}

TEST_F(KlsTest, StoreMetadataPersistsBoth) {
  Metadata meta{Policy{}, 4096};
  meta.locs[0] = Location{tc.cluster.fs(0).id(), 0};
  deliver_and_run(wire::StoreMetadataReq{ov("k"), meta});
  auto reps =
      probe.all<wire::StoreMetadataRep>(MessageType::kStoreMetadataRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].status, wire::Status::kSuccess);
  EXPECT_TRUE(kls->timestamp_store().contains(ov("k").key, ov("k").ts));
  const Metadata* stored = kls->meta_store().find(ov("k"));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->value_size, 4096u);
}

TEST_F(KlsTest, StoreMetadataMergesAcrossRequests) {
  Metadata first{Policy{}};
  first.locs[0] = Location{tc.cluster.fs(0).id(), 0};
  Metadata second{Policy{}};
  second.locs[1] = Location{tc.cluster.fs(1).id(), 0};
  deliver_and_run(wire::StoreMetadataReq{ov("k"), first});
  deliver_and_run(wire::StoreMetadataReq{ov("k"), second});
  EXPECT_EQ(kls->meta_store().find(ov("k"))->decided_count(), 2);
}

TEST_F(KlsTest, RetrieveTsReturnsAllVersionsWithMetadata) {
  for (SimTime t : {100, 300, 200}) {
    deliver_and_run(wire::StoreMetadataReq{ov("k", t), Metadata{Policy{}}});
  }
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, {}, 0});
  auto reps =
      probe.all<wire::RetrieveTsRep>(MessageType::kRetrieveTsRep);
  ASSERT_EQ(reps.size(), 1u);
  ASSERT_EQ(reps[0].entries.size(), 3u);
  // Newest first (store order irrelevant), single unbounded page.
  EXPECT_EQ(reps[0].entries[0].ts.wall_micros, 300);
  EXPECT_EQ(reps[0].entries[2].ts.wall_micros, 100);
  EXPECT_FALSE(reps[0].more);
}

TEST_F(KlsTest, RetrieveTsPagesNewestFirst) {
  for (SimTime t : {100, 200, 300, 400, 500}) {
    deliver_and_run(wire::StoreMetadataReq{ov("k", t), Metadata{Policy{}}});
  }
  // Page 1: the two newest.
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, Timestamp{}, 2});
  auto reps =
      probe.all<wire::RetrieveTsRep>(MessageType::kRetrieveTsRep);
  ASSERT_EQ(reps.size(), 1u);
  ASSERT_EQ(reps[0].entries.size(), 2u);
  EXPECT_EQ(reps[0].entries[0].ts.wall_micros, 500);
  EXPECT_EQ(reps[0].entries[1].ts.wall_micros, 400);
  EXPECT_TRUE(reps[0].more);

  // Page 2: continue strictly below the floor of page 1.
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, reps[0].entries[1].ts, 2});
  reps = probe.all<wire::RetrieveTsRep>(MessageType::kRetrieveTsRep);
  ASSERT_EQ(reps.size(), 2u);
  ASSERT_EQ(reps[1].entries.size(), 2u);
  EXPECT_EQ(reps[1].entries[0].ts.wall_micros, 300);
  EXPECT_EQ(reps[1].entries[1].ts.wall_micros, 200);
  EXPECT_TRUE(reps[1].more);

  // Final page.
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, reps[1].entries[1].ts, 2});
  reps = probe.all<wire::RetrieveTsRep>(MessageType::kRetrieveTsRep);
  ASSERT_EQ(reps.size(), 3u);
  ASSERT_EQ(reps[2].entries.size(), 1u);
  EXPECT_EQ(reps[2].entries[0].ts.wall_micros, 100);
  EXPECT_FALSE(reps[2].more);
}

TEST_F(KlsTest, RetrieveTsUnknownKeyIsEmpty) {
  deliver_and_run(wire::RetrieveTsReq{Key{"nope"}, {}, 0});
  auto reps =
      probe.all<wire::RetrieveTsRep>(MessageType::kRetrieveTsRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(reps[0].entries.empty());
}

TEST_F(KlsTest, ConvergeVerifiesCompleteness) {
  Metadata partial{Policy{}};
  partial.locs[0] = Location{tc.cluster.fs(0).id(), 0};
  deliver_and_run(wire::KlsConvergeReq{ov("k"), partial});
  auto reps =
      probe.all<wire::KlsConvergeRep>(MessageType::kKlsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_FALSE(reps[0].verified);

  Metadata complete{Policy{}};
  for (size_t i = 0; i < complete.locs.size(); ++i) {
    complete.locs[i] = Location{tc.cluster.fs(static_cast<int>(i) % 6).id(),
                                static_cast<uint8_t>(i / 6)};
  }
  deliver_and_run(wire::KlsConvergeReq{ov("k"), complete});
  reps = probe.all<wire::KlsConvergeRep>(MessageType::kKlsConvergeRep);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_TRUE(reps[1].verified);
  // Convergence also registered the timestamp so gets can find it.
  EXPECT_TRUE(kls->timestamp_store().contains(ov("k").key, ov("k").ts));
}

TEST_F(KlsTest, ConvergeMergeIsMonotonic) {
  Metadata complete{Policy{}};
  for (size_t i = 0; i < complete.locs.size(); ++i) {
    complete.locs[i] = Location{tc.cluster.fs(static_cast<int>(i) % 6).id(),
                                static_cast<uint8_t>(i / 6)};
  }
  deliver_and_run(wire::KlsConvergeReq{ov("k"), complete});
  // A later converge with *less* information cannot regress the store.
  deliver_and_run(wire::KlsConvergeReq{ov("k"), Metadata{Policy{}}});
  EXPECT_TRUE(kls->meta_store().find(ov("k"))->complete());
  auto reps =
      probe.all<wire::KlsConvergeRep>(MessageType::kKlsConvergeRep);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_TRUE(reps[1].verified);
}

TEST_F(KlsTest, CrashedKlsIsSilent) {
  kls->crash();
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, {}, 0});
  EXPECT_TRUE(probe.received.empty());
  kls->recover();
  deliver_and_run(wire::RetrieveTsReq{Key{"k"}, {}, 0});
  EXPECT_EQ(probe.received.size(), 1u);
}

TEST_F(KlsTest, StateSurvivesCrashRecover) {
  deliver_and_run(wire::StoreMetadataReq{ov("k"), Metadata{Policy{}, 99}});
  kls->crash();
  kls->recover();
  EXPECT_TRUE(kls->meta_store().contains(ov("k")));
  EXPECT_EQ(kls->meta_store().find(ov("k"))->value_size, 99u);
}

// Every metadata insert records the version's timestamp and neither store
// ever erases, so a KLS's two stores hold the same versions; that is why a
// merge into a version the KLS already holds skips the timestamp store.
// KLS blackouts make KLSs first learn versions from FS convergence, and a
// data center with both KLSs down leaves metadata for FSs to complete with
// their own decide-locations requests.
TEST(KlsStoresTest, TimestampStoreHoldsExactlyTheMetadataStoresVersions) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    SimCluster tc(core::ConvergenceOptions::all_opts(), {}, seed);
    tc.blackout_kls(0, 1, 0, testing::minutes(20));
    tc.blackout_kls(1, 0, 0, testing::minutes(20));
    tc.blackout_kls(1, 1, 0, testing::minutes(20));
    tc.blackout_fs(0, 2, 0, testing::minutes(30));
    tc.blackout_fs(1, 0, testing::seconds(10), testing::minutes(30));
    for (int p = 0; p < 8; ++p) {
      tc.put(Key{"k" + std::to_string(p % 3)},
             tc.make_value(2000, static_cast<uint8_t>(p)));
    }
    tc.run_for(testing::hours(3));
    EXPECT_GT(tc.net.stats().of(MessageType::kFsDecideLocsReq).sent_count,
              0u);
    for (int i = 0; i < tc.cluster.num_kls(); ++i) {
      const core::KeyLookupServer& kls = tc.cluster.kls(i);
      std::map<Key, std::vector<Timestamp>> versions;
      for (const auto* item : kls.meta_store().sorted()) {
        versions[item->first.key].push_back(item->first.ts);
      }
      EXPECT_FALSE(versions.empty()) << "seed " << seed << ", kls " << i;
      EXPECT_EQ(kls.timestamp_store().key_count(), versions.size());
      for (const auto& [key, timestamps] : versions) {
        EXPECT_EQ(kls.timestamp_store().find(key), timestamps)
            << "seed " << seed << ", kls " << i << ", " << key.value;
      }
    }
  }
}

}  // namespace
}  // namespace pahoehoe
