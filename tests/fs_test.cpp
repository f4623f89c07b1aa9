// Unit tests for the Fragment Server, driving it with hand-crafted messages
// through a probe node (no proxy involved).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>
#include <variant>

#include "common/rng.h"
#include "common/sha256.h"
#include "erasure/reed_solomon.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using testing::SimCluster;
using testing::minutes;
using testing::seconds;
using wire::MessageType;

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

class FsTest : public ::testing::Test {
 protected:
  explicit FsTest(core::ConvergenceOptions conv =
                      core::ConvergenceOptions::naive())
      : tc(conv) {
    probe_id = NodeId{9999};
    tc.net.register_node(probe_id, &probe);
    fs = &tc.cluster.fs(0, 0);
    codec = std::make_unique<erasure::ReedSolomon>(4, 12);
  }

  /// Complete metadata placing fragment i on cluster FS (i % 6), disks
  /// alternating — our test FS (0,0) owns fragments 0 and 6.
  Metadata complete_meta(uint64_t value_size) {
    Metadata meta{Policy{}, value_size};
    for (size_t i = 0; i < meta.locs.size(); ++i) {
      meta.locs[i] = Location{tc.cluster.fs(static_cast<int>(i % 6)).id(),
                              static_cast<uint8_t>(i / 6)};
    }
    return meta;
  }

  ObjectVersionId ov(const std::string& key, SimTime t = 100) {
    return ObjectVersionId{Key{key}, Timestamp{t, 1}};
  }

  template <typename M>
  void deliver(NodeId to, M msg) {
    tc.net.send(probe_id, to, std::move(msg));
    tc.run_for(seconds(1));
  }

  /// A store of fragment `index` in a fresh buffer, which the receiving FS
  /// hashes, as it would a fragment decoded from bytes.
  wire::StoreFragmentReq store_req(const ObjectVersionId& version,
                                   const Metadata& meta, int index,
                                   const std::vector<Bytes>& frags) {
    const Bytes& bytes = frags[static_cast<size_t>(index)];
    return wire::StoreFragmentReq{version, meta, static_cast<uint16_t>(index),
                                  Fragment(bytes), Sha256::hash(bytes)};
  }

  SimCluster tc;
  NodeId probe_id;
  Probe probe;
  core::FragmentServer* fs = nullptr;
  std::unique_ptr<erasure::ReedSolomon> codec;
};

TEST_F(FsTest, StoreFragmentPersistsAndAcks) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  deliver(fs->id(), store_req(ov("k"), meta, 0, frags));
  auto reps =
      probe.all<wire::StoreFragmentRep>(MessageType::kStoreFragmentRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].status, wire::Status::kSuccess);
  EXPECT_EQ(reps[0].frag_index, 0);
  EXPECT_NE(fs->frag_store().fragment_if_intact(ov("k"), 0), nullptr);
  // The version entered the convergence work-list (Fig 2 fs lines 3–5).
  EXPECT_EQ(fs->pending_versions(), 1u);
}

TEST_F(FsTest, StoreFragmentRejectsBadDigest) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  auto req = store_req(ov("k"), complete_meta(value.size()), 0, frags);
  req.digest[0] ^= 0xff;  // corrupted in transit
  deliver(fs->id(), req);
  auto reps =
      probe.all<wire::StoreFragmentRep>(MessageType::kStoreFragmentRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].status, wire::Status::kFailure);
  EXPECT_EQ(fs->frag_store().fragment_if_intact(ov("k"), 0), nullptr);
}

TEST_F(FsTest, RetrieveMissingFragmentRepliesBottom) {
  deliver(fs->id(), wire::RetrieveFragReq{ov("k"), 0});
  auto reps =
      probe.all<wire::RetrieveFragRep>(MessageType::kRetrieveFragRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_FALSE(reps[0].found);
  EXPECT_TRUE(reps[0].fragment.empty());
}

TEST_F(FsTest, RetrieveStoredFragmentRoundTrips) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  deliver(fs->id(), store_req(ov("k"), complete_meta(value.size()), 0, frags));
  deliver(fs->id(), wire::RetrieveFragReq{ov("k"), 0});
  auto reps =
      probe.all<wire::RetrieveFragRep>(MessageType::kRetrieveFragRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(reps[0].found);
  EXPECT_EQ(reps[0].fragment.bytes(), frags[0]);
}

TEST_F(FsTest, CorruptFragmentReadsAsBottom) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  deliver(fs->id(), store_req(ov("k"), complete_meta(value.size()), 0, frags));
  ASSERT_TRUE(fs->corrupt_fragment(ov("k"), 0));
  deliver(fs->id(), wire::RetrieveFragReq{ov("k"), 0});
  auto reps =
      probe.all<wire::RetrieveFragRep>(MessageType::kRetrieveFragRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_FALSE(reps[0].found);
}

TEST_F(FsTest, ConvergeRequestForUnknownVersionCreatesWork) {
  // Fig 4 line 17: a converge request for a version the FS never saw
  // creates metadata + a ⊥ fragment entry, entering convergence.
  const Metadata meta = complete_meta(4096);
  deliver(fs->id(), wire::FsConvergeReq{ov("k"), meta, false});
  EXPECT_EQ(fs->pending_versions(), 1u);
  EXPECT_TRUE(fs->frag_store().contains(ov("k")));
  auto reps =
      probe.all<wire::FsConvergeRep>(MessageType::kFsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_FALSE(reps[0].verified);  // fragments are ⊥
}

TEST_F(FsTest, ConvergeReplyVerifiedWhenLocalStateComplete) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  // Store both fragments this FS is responsible for (slots 0 and 6).
  for (int slot : meta.fragments_for(fs->id())) {
    deliver(fs->id(), store_req(ov("k"), meta, slot, frags));
  }
  deliver(fs->id(), wire::FsConvergeReq{ov("k"), meta, false});
  auto reps =
      probe.all<wire::FsConvergeRep>(MessageType::kFsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(reps[0].verified);
}

TEST_F(FsTest, ConvergeWithRecoveryIntentReportsNeededFragments) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  // Only slot 0 stored; slot 6 (also ours) missing.
  deliver(fs->id(), store_req(ov("k"), meta, 0, frags));
  deliver(fs->id(),
          wire::FsConvergeReq{ov("k"), meta, /*intends_recovery=*/true});
  auto reps =
      probe.all<wire::FsConvergeRep>(MessageType::kFsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_FALSE(reps[0].verified);
  EXPECT_EQ(reps[0].needed_fragments, (std::vector<uint16_t>{6}));
}

TEST_F(FsTest, ConvergeWithoutRecoveryIntentOmitsNeeds) {
  const Metadata meta = complete_meta(4096);
  deliver(fs->id(), wire::FsConvergeReq{ov("k"), meta, false});
  auto reps =
      probe.all<wire::FsConvergeRep>(MessageType::kFsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(reps[0].needed_fragments.empty());
}

TEST_F(FsTest, AmrIndicationClearsWorkButKeepsFragments) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  deliver(fs->id(), store_req(ov("k"), meta, 0, frags));
  ASSERT_EQ(fs->pending_versions(), 1u);
  deliver(fs->id(), wire::AmrIndication{ov("k")});
  EXPECT_EQ(fs->pending_versions(), 0u);
  EXPECT_NE(fs->frag_store().fragment_if_intact(ov("k"), 0), nullptr);
}

TEST_F(FsTest, ConvergeAfterAmrDoesNotResurrect) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  deliver(fs->id(), store_req(ov("k"), meta, 0, frags));
  deliver(fs->id(), wire::AmrIndication{ov("k")});
  deliver(fs->id(), wire::FsConvergeReq{ov("k"), meta, false});
  EXPECT_EQ(fs->pending_versions(), 0u);
  // It still answers the converge request truthfully.
  auto reps =
      probe.all<wire::FsConvergeRep>(MessageType::kFsConvergeRep);
  ASSERT_EQ(reps.size(), 1u);
}

TEST_F(FsTest, AmrIndicationForUnknownVersionIsHarmless) {
  deliver(fs->id(), wire::AmrIndication{ov("never-seen")});
  EXPECT_EQ(fs->pending_versions(), 0u);
}

TEST_F(FsTest, SiblingStorePersistsFragment) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  const Metadata meta = complete_meta(value.size());
  wire::SiblingStoreReq req;
  req.ov = ov("k");
  req.meta = meta;
  req.frag_index = 6;
  req.fragment = Fragment(frags[6]);
  req.digest = Sha256::hash(frags[6]);
  deliver(fs->id(), req);
  auto reps =
      probe.all<wire::SiblingStoreRep>(MessageType::kSiblingStoreRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].status, wire::Status::kSuccess);
  EXPECT_NE(fs->frag_store().fragment_if_intact(ov("k"), 6), nullptr);
}

// --- fragment receipt ----------------------------------------------------------

/// Proxy stores and sibling pushes share one receipt path; every case runs
/// through both messages.
class FsReceiptTest : public FsTest,
                      public ::testing::WithParamInterface<MessageType> {
 protected:
  static constexpr int kSlot = 6;  // FS (0,0) holds slot 6 on disk 1

  FsReceiptTest() : frag(codec->encode(tc.make_value(4096))[kSlot]) {}

  /// Push `fragment` under `digest` for slot kSlot of ov("k"), as the
  /// message under test with `meta` (complete metadata by default), and
  /// return the reply's status.
  wire::Status push(const Bytes& fragment, const Sha256::Digest& digest,
                    std::optional<Metadata> meta = std::nullopt) {
    probe.received.clear();
    if (!meta.has_value()) meta = complete_meta(4096);
    if (GetParam() == MessageType::kStoreFragmentReq) {
      return push_as<wire::StoreFragmentReq, wire::StoreFragmentRep>(
          fragment, digest, *meta, MessageType::kStoreFragmentRep);
    }
    return push_as<wire::SiblingStoreReq, wire::SiblingStoreRep>(
        fragment, digest, *meta, MessageType::kSiblingStoreRep);
  }

  template <typename Req, typename Rep>
  wire::Status push_as(const Bytes& fragment, const Sha256::Digest& digest,
                       const Metadata& meta, MessageType rep_type) {
    deliver(fs->id(), Req{ov("k"), meta, kSlot, Fragment(fragment), digest});
    const auto reps = probe.all<Rep>(rep_type);
    EXPECT_EQ(reps.size(), 1u);
    return reps.empty() ? wire::Status::kFailure : reps.back().status;
  }

  const storage::StoredFragment* held() {
    return fs->frag_store().fragment_if_intact(ov("k"), kSlot);
  }

  Bytes frag;
};

INSTANTIATE_TEST_SUITE_P(
    Messages, FsReceiptTest,
    ::testing::Values(MessageType::kStoreFragmentReq,
                      MessageType::kSiblingStoreReq),
    [](const ::testing::TestParamInfo<MessageType>& info) {
      return std::string(info.param == MessageType::kStoreFragmentReq
                             ? "StoreFragment"
                             : "SiblingStore");
    });

TEST_P(FsReceiptTest, IdenticalResendOfHeldCopyAcksAndChangesNothing) {
  ASSERT_EQ(push(frag, Sha256::hash(frag)), wire::Status::kSuccess);
  ASSERT_NE(fs->frag_store().find(ov("k")), nullptr);
  const storage::FragStore::Entry before = *fs->frag_store().find(ov("k"));
  EXPECT_EQ(push(frag, Sha256::hash(frag)), wire::Status::kSuccess);
  const storage::FragStore::Entry& after = *fs->frag_store().find(ov("k"));
  EXPECT_EQ(after.meta, before.meta);
  ASSERT_EQ(after.fragments.size(), 1u);
  ASSERT_EQ(before.fragments.size(), 1u);
  const storage::StoredFragment& first = before.fragments.at(kSlot);
  const storage::StoredFragment& second = after.fragments.at(kSlot);
  EXPECT_EQ(second.data, first.data);
  EXPECT_EQ(second.digest, first.digest);
  EXPECT_EQ(second.disk, first.disk);
  EXPECT_EQ(second.disk, 1);
  EXPECT_TRUE(second.intact());
}

TEST_P(FsReceiptTest, IdenticalResendRepairsCorruptedHeldCopy) {
  ASSERT_EQ(push(frag, Sha256::hash(frag)), wire::Status::kSuccess);
  ASSERT_TRUE(fs->corrupt_fragment(ov("k"), kSlot));
  ASSERT_EQ(held(), nullptr);
  EXPECT_EQ(push(frag, Sha256::hash(frag)), wire::Status::kSuccess);
  ASSERT_NE(held(), nullptr);
  EXPECT_EQ(held()->data.bytes(), frag);
}

TEST_P(FsReceiptTest, SameDigestDifferentBytesIsRejectedAndHeldCopyKept) {
  const Sha256::Digest digest = Sha256::hash(frag);
  ASSERT_EQ(push(frag, digest), wire::Status::kSuccess);
  Bytes altered = frag;
  altered[0] ^= 0x01;
  EXPECT_EQ(push(altered, digest), wire::Status::kFailure);
  ASSERT_NE(held(), nullptr);
  EXPECT_EQ(held()->data.bytes(), frag);
  EXPECT_EQ(held()->digest, digest);
}

TEST_P(FsReceiptTest, FreshBufferWithWrongDigestIsRejectedAndNothingStored) {
  // A buffer nobody has hashed is hashed at receipt, so a digest that does
  // not match its bytes is caught even though no memo vouches for it.
  Sha256::Digest wrong = Sha256::hash(frag);
  wrong[5] ^= 0x10;
  EXPECT_EQ(push(frag, wrong), wire::Status::kFailure);
  EXPECT_EQ(fs->frag_store().find(ov("k")), nullptr);
  EXPECT_EQ(fs->pending_versions(), 0u);
}

TEST_P(FsReceiptTest, IdenticalResendMovesHeldCopyToTheDiskItsMetadataNames) {
  // Stored before this FS knew the slot's location, the copy went to disk
  // 0. The re-send carries the location, so the copy moves to disk 1, as a
  // fresh store would put it.
  ASSERT_EQ(push(frag, Sha256::hash(frag), Metadata{Policy{}, 4096}),
            wire::Status::kSuccess);
  ASSERT_NE(held(), nullptr);
  ASSERT_EQ(held()->disk, 0);
  EXPECT_EQ(push(frag, Sha256::hash(frag)), wire::Status::kSuccess);
  ASSERT_NE(held(), nullptr);
  EXPECT_EQ(held()->disk, 1);
  EXPECT_EQ(held()->data.bytes(), frag);
}

TEST_F(FsTest, KlsLocsNotifyCreatesWork) {
  deliver(fs->id(), wire::KlsLocsNotify{ov("k"), complete_meta(4096)});
  EXPECT_EQ(fs->pending_versions(), 1u);
}

TEST_F(FsTest, CrashedFsDropsRequestsSilently) {
  fs->crash();
  deliver(fs->id(), wire::RetrieveFragReq{ov("k"), 0});
  EXPECT_TRUE(probe.received.empty());
}

TEST_F(FsTest, FragmentsSurviveCrashRecover) {
  const Bytes value = tc.make_value(4096);
  const auto frags = codec->encode(value);
  deliver(fs->id(), store_req(ov("k"), complete_meta(value.size()), 0, frags));
  fs->crash();
  fs->recover();
  deliver(fs->id(), wire::RetrieveFragReq{ov("k"), 0});
  auto reps =
      probe.all<wire::RetrieveFragRep>(MessageType::kRetrieveFragRep);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_TRUE(reps[0].found);
  // The convergence work-list is persistent too (§3.1).
  EXPECT_EQ(fs->pending_versions(), 1u);
}

TEST_F(FsTest, CrashKeepsWorkListButResetsBackoff) {
  // One version with incomplete metadata whose KLSs never answer: every
  // convergence step is a dropped FSDecideLocsReq, so the version's
  // backoff grows for hours.
  for (int dc = 0; dc < 2; ++dc) {
    for (int index = 0; index < 2; ++index) {
      tc.blackout_kls(dc, index, 0, testing::hours(24));
    }
  }
  Metadata meta{Policy{}, 4096};
  meta.locs[0] = Location{fs->id(), 0};
  deliver(fs->id(), wire::KlsLocsNotify{ov("k"), meta});
  const auto probes = [this] {
    return tc.net.stats().of(MessageType::kFsDecideLocsReq).sent_count;
  };
  tc.run_for(testing::hours(8));
  const uint64_t backed_off = probes();
  ASSERT_GT(backed_off, 0u);
  tc.run_for(seconds(60));  // one synchronized round period
  ASSERT_EQ(probes(), backed_off) << "the version must be deep in backoff";

  // The work-list entry survives the crash; its backoff does not.
  fs->crash();
  fs->recover();
  tc.run_for(seconds(60));
  EXPECT_GT(probes(), backed_off)
      << "a recovered FS must retry its work at the next round";
  EXPECT_EQ(fs->pending_versions(), 1u);
}

// --- sibling-recovery backoff rule (§4.2), synchronized rounds -----------------

class FsBackoffTest : public FsTest {
 protected:
  FsBackoffTest() : FsTest([] {
      core::ConvergenceOptions conv;
      conv.sibling_recovery = true;
      conv.unsync_rounds = false;
      return conv;
    }()) {}
};

// Set up so the test FS is missing exactly one of its fragments while all
// sibling fragments exist; its synchronized round at t=60 s starts sibling
// recovery, and the recovery's reply-accumulation window (200 ms) gives a
// deterministic moment to deliver a competing recovery intent.
class FsBackoffScenario : public FsBackoffTest {
 protected:
  void prime() {
    const Bytes value = tc.make_value(4096);
    const auto frags = codec->encode(value);
    meta = complete_meta(value.size());
    for (size_t slot = 0; slot < meta.locs.size(); ++slot) {
      if (slot == 6) continue;  // the test FS's second fragment is missing
      // As a serialized payload, which the network decodes.
      tc.net.send(probe_id, meta.locs[slot]->fs,
                  MessageType::kStoreFragmentReq,
                  store_req(ov("k"), meta, static_cast<int>(slot), frags)
                      .encode());
    }
    // Run into the recovery's accumulation window after the 60 s round.
    tc.sim.run(60 * kMicrosPerSecond + 30 * kMicrosPerMilli);
  }

  Metadata meta;
};

TEST_F(FsBackoffScenario, LowerIdStandsDownOnRecoveryIntent) {
  prime();
  const uint64_t backoffs_before = fs->recovery_backoffs();
  const NodeId higher{fs->id().value + 1000};
  tc.net.register_node(higher, &probe);
  tc.net.send(higher, fs->id(), wire::FsConvergeReq{ov("k"), meta, true});
  tc.run_for(seconds(2));
  EXPECT_GT(fs->recovery_backoffs(), backoffs_before)
      << "a competing intent from a higher id must cancel our recovery";
}

TEST_F(FsBackoffScenario, DoesNotStandDownForLowerId) {
  prime();
  const uint64_t backoffs_before = fs->recovery_backoffs();
  const uint64_t completed_before = fs->recoveries_completed();
  const NodeId lower{50};  // below the cluster's id range (starts at 101)
  ASSERT_LT(lower.value, fs->id().value);
  tc.net.register_node(lower, &probe);
  tc.net.send(lower, fs->id(), wire::FsConvergeReq{ov("k"), meta, true});
  tc.run_for(seconds(30));
  EXPECT_EQ(fs->recovery_backoffs(), backoffs_before);
  EXPECT_GT(fs->recoveries_completed(), completed_before)
      << "our recovery must proceed despite the lower-id intent";
}

// --- periodic scrub -------------------------------------------------------------

TEST(FsScrubTest, PeriodicScrubRepairsCorruption) {
  core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
  conv.scrub_interval = testing::minutes(5);
  SimCluster tc(conv);
  const Bytes value = tc.make_value(8192);
  const auto r = tc.put(Key{"k"}, value);
  tc.run_for(testing::minutes(2));
  ASSERT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);

  // Corrupt one fragment; no manual scrub — the periodic one must find it.
  const Metadata* meta = tc.cluster.kls(0).meta_store().find(r.ov);
  ASSERT_NE(meta, nullptr);
  core::FragmentServer* victim = nullptr;
  for (int i = 0; i < tc.cluster.num_fs(); ++i) {
    if (tc.cluster.fs(i).id() == meta->locs[0]->fs) victim = &tc.cluster.fs(i);
  }
  ASSERT_TRUE(victim->corrupt_fragment(r.ov, 0));
  ASSERT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kDurableNotAmr);

  tc.run_for(testing::minutes(30));
  EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
  EXPECT_GT(victim->scrubs_run(), 0u);
}

TEST(FsScrubTest, CachedIntactVerdictNeverLiesUnderFaults) {
  // A stored fragment's verdict reads its buffer's memoized digest. Through
  // corruption (which must store a fresh buffer), disk loss and the sibling
  // recoveries that blackouts force (whose pushes store fresh copies), it
  // must always equal a fresh hash check. Buffers are shared, so corrupting
  // one FS's copy must also leave every other holder of that buffer, and
  // every other stored fragment, byte-identical and intact.
  uint64_t recoveries = 0;
  for (uint64_t seed : {3ull, 4ull, 5ull}) {
    core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
    conv.scrub_interval = testing::minutes(5);
    SimCluster tc(conv, {}, seed);
    Rng rng(seed);
    const auto check_every_fragment = [&tc, seed](const char* when) {
      for (int i = 0; i < tc.cluster.num_fs(); ++i) {
        for (const auto* item : tc.cluster.fs(i).frag_store().sorted()) {
          const auto& [ov, entry] = *item;
          for (const auto& [slot, frag] : entry.fragments) {
            EXPECT_EQ(frag.intact(),
                      Sha256::hash(frag.data.bytes()) == frag.digest)
                << when << ", seed " << seed << ", fs " << i << ", "
                << ov.key.value << " slot " << slot;
          }
        }
      }
    };
    // Every stored fragment: a holder of its buffer, and its bytes.
    struct Held {
      Fragment buffer;
      Bytes bytes;
    };
    const auto snapshot = [&tc] {
      std::map<std::tuple<int, ObjectVersionId, int>, Held> held;
      for (int i = 0; i < tc.cluster.num_fs(); ++i) {
        for (const auto* item : tc.cluster.fs(i).frag_store().sorted()) {
          for (const auto& [slot, frag] : item->second.fragments) {
            held.emplace(std::make_tuple(i, item->first, slot),
                         Held{frag.data, frag.data.bytes()});
          }
        }
      }
      return held;
    };
    const auto corrupt_one = [&](core::FragmentServer& victim) {
      const auto before = snapshot();
      if (!victim.corrupt_random_fragment(rng)) return;
      for (const auto& [where, held] : before) {
        // The snapshot's holder of the old buffer still sees its bytes.
        EXPECT_EQ(held.buffer.bytes(), held.bytes) << "seed " << seed;
        EXPECT_EQ(held.buffer.digest(), Sha256::hash(held.bytes));
      }
      int changed = 0;
      for (const auto& [where, held] : snapshot()) {
        const auto it = before.find(where);
        ASSERT_NE(it, before.end());
        changed += held.bytes != it->second.bytes;
      }
      EXPECT_EQ(changed, 1) << "seed " << seed;
    };
    tc.blackout_fs(0, 1, 0, testing::minutes(20));
    tc.blackout_fs(1, 2, 0, testing::minutes(20));
    for (int p = 0; p < 6; ++p) {
      tc.put(Key{"v" + std::to_string(p)},
             tc.make_value(6000, static_cast<uint8_t>(p)));
    }
    tc.run_for(testing::minutes(2));
    check_every_fragment("after the puts");
    const auto random_fs = [&tc, &rng]() -> core::FragmentServer& {
      return tc.cluster.fs(
          static_cast<int>(rng.uniform_int(0, tc.cluster.num_fs() - 1)));
    };
    for (int round = 0; round < 4; ++round) {
      for (int c = 0; c < 4; ++c) corrupt_one(random_fs());
      if (round == 1) {
        random_fs().destroy_disk(static_cast<uint8_t>(rng.uniform_int(0, 1)));
      }
      if (round == 2) tc.blackout_fs(0, 0, 0, testing::minutes(20));
      check_every_fragment("after the faults");
      tc.run_for(testing::minutes(40));
      check_every_fragment("after repair");
    }
    for (int i = 0; i < tc.cluster.num_fs(); ++i) {
      recoveries += tc.cluster.fs(i).recoveries_completed();
    }
  }
  EXPECT_GT(recoveries, 0u) << "the schedules must exercise recovery";
}

TEST(FsScrubTest, ScrubWithNothingDamagedAddsNoWork) {
  core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
  conv.scrub_interval = testing::minutes(5);
  SimCluster tc(conv);
  const auto r = tc.put(Key{"k"}, tc.make_value(1024));
  tc.run_for(testing::minutes(60));
  EXPECT_EQ(tc.cluster.classify(r.ov), core::VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

}  // namespace
}  // namespace pahoehoe
