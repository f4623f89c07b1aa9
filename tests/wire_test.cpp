#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "chaos/schedule.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "wire/messages.h"
#include "wire/serde.h"

namespace pahoehoe::wire {
namespace {

// --- primitives ---------------------------------------------------------------

TEST(SerdeTest, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, TruncatedInputThrows) {
  Writer w;
  w.u32(7);
  Bytes data = w.data();
  data.pop_back();
  Reader r(data);
  EXPECT_THROW(r.u32(), WireError);
}

TEST(SerdeTest, TruncatedLengthPrefixedFieldThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(SerdeTest, InvalidBooleanThrows) {
  Bytes data{2};
  Reader r(data);
  EXPECT_THROW(r.boolean(), WireError);
}

TEST(SerdeTest, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_exhausted(), WireError);
}

TEST(SerdeTest, EmptyBytesAndString) {
  Writer w;
  w.bytes({});
  w.str("");
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
}

// --- domain types ---------------------------------------------------------------

Metadata sample_metadata() {
  Metadata meta{Policy{}, 12345};
  meta.locs[0] = Location{NodeId{8}, 0};
  meta.locs[3] = Location{NodeId{9}, 1};
  meta.locs[11] = Location{NodeId{10}, 0};
  return meta;
}

TEST(SerdeTest, MetadataRoundTrip) {
  const Metadata meta = sample_metadata();
  Writer w;
  encode(w, meta);
  Reader r(w.data());
  const Metadata back = decode_metadata(r);
  EXPECT_EQ(back, meta);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, PolicyValidationOnDecode) {
  Policy bad;
  bad.k = 8;
  bad.n = 4;  // invalid: n < k
  Writer w;
  encode(w, bad);
  Reader r(w.data());
  EXPECT_THROW(decode_policy(r), WireError);
}

TEST(SerdeTest, TimestampRoundTrip) {
  Writer w;
  encode(w, Timestamp{123456789, 42});
  Reader r(w.data());
  EXPECT_EQ(decode_timestamp(r), (Timestamp{123456789, 42}));
}

// --- message round trips -----------------------------------------------------------

ObjectVersionId sample_ov() {
  return ObjectVersionId{Key{"photo-123"}, Timestamp{987654321, 3}};
}

TEST(MessagesTest, DecideLocsReqRoundTripProxyAndFs) {
  DecideLocsReq req{sample_ov(), Policy{}, false};
  EXPECT_EQ(req.type(), MessageType::kDecideLocsReq);
  const auto back = DecideLocsReq::decode(req.encode());
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_FALSE(back.from_fs);

  req.from_fs = true;
  EXPECT_EQ(req.type(), MessageType::kFsDecideLocsReq);
  EXPECT_TRUE(DecideLocsReq::decode(req.encode()).from_fs);
}

TEST(MessagesTest, DecideLocsRepRoundTrip) {
  DecideLocsRep rep{sample_ov(), sample_metadata(), DataCenterId{1}};
  const auto back = DecideLocsRep::decode(rep.encode());
  EXPECT_EQ(back.ov, rep.ov);
  EXPECT_EQ(back.meta, rep.meta);
  EXPECT_EQ(back.dc, rep.dc);
}

TEST(MessagesTest, StoreMetadataRoundTrip) {
  StoreMetadataReq req{sample_ov(), sample_metadata()};
  const auto back = StoreMetadataReq::decode(req.encode());
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_EQ(back.meta, req.meta);

  StoreMetadataRep rep{sample_ov(), Status::kFailure};
  const auto rback = StoreMetadataRep::decode(rep.encode());
  EXPECT_EQ(rback.status, Status::kFailure);
}

TEST(MessagesTest, StoreFragmentRoundTrip) {
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.frag_index = 7;
  req.fragment = Fragment(Bytes{9, 8, 7, 6});
  req.digest = req.fragment.digest();
  const auto back = StoreFragmentReq::decode(req.encode());
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_EQ(back.frag_index, 7);
  EXPECT_EQ(back.fragment, req.fragment);
  EXPECT_EQ(back.digest, req.digest);
}

TEST(MessagesTest, AmrIndicationRoundTrip) {
  AmrIndication msg{sample_ov()};
  EXPECT_EQ(AmrIndication::decode(msg.encode()).ov, msg.ov);
}

TEST(MessagesTest, RetrieveTsRoundTrip) {
  RetrieveTsReq req{Key{"k"}, {}, 0};
  EXPECT_EQ(RetrieveTsReq::decode(req.encode()).key, req.key);

  RetrieveTsRep rep;
  rep.key = Key{"k"};
  rep.entries.push_back({Timestamp{1, 1}, sample_metadata()});
  rep.entries.push_back({Timestamp{2, 1}, Metadata{}});
  const auto back = RetrieveTsRep::decode(rep.encode());
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].ts, (Timestamp{1, 1}));
  EXPECT_EQ(back.entries[0].meta, rep.entries[0].meta);
  EXPECT_EQ(back.entries[1].meta.locs.size(), 0u);
}

TEST(MessagesTest, RetrieveFragRoundTrip) {
  RetrieveFragReq req{sample_ov(), 11};
  const auto back = RetrieveFragReq::decode(req.encode());
  EXPECT_EQ(back.frag_index, 11);

  RetrieveFragRep rep{sample_ov(), 11, true, Fragment(Bytes{1, 2})};
  const auto rback = RetrieveFragRep::decode(rep.encode());
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.fragment.bytes(), (Bytes{1, 2}));

  RetrieveFragRep bot{sample_ov(), 11, false, {}};
  EXPECT_FALSE(RetrieveFragRep::decode(bot.encode()).found);
}

TEST(MessagesTest, ConvergeRoundTrips) {
  KlsConvergeReq kreq{sample_ov(), sample_metadata()};
  EXPECT_EQ(KlsConvergeReq::decode(kreq.encode()).meta, kreq.meta);
  KlsConvergeRep krep{sample_ov(), true};
  EXPECT_TRUE(KlsConvergeRep::decode(krep.encode()).verified);

  FsConvergeReq freq{sample_ov(), sample_metadata(), true};
  EXPECT_TRUE(FsConvergeReq::decode(freq.encode()).intends_recovery);

  FsConvergeRep frep;
  frep.ov = sample_ov();
  frep.verified = false;
  frep.needed_fragments = {2, 5};
  frep.also_recovering = true;
  const auto fback = FsConvergeRep::decode(frep.encode());
  EXPECT_EQ(fback.needed_fragments, (std::vector<uint16_t>{2, 5}));
  EXPECT_TRUE(fback.also_recovering);
  EXPECT_FALSE(fback.verified);
}

TEST(MessagesTest, SiblingStoreRoundTrip) {
  SiblingStoreReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.frag_index = 4;
  req.fragment = Fragment(Bytes(100, 0x5a));
  req.digest = req.fragment.digest();
  const auto back = SiblingStoreReq::decode(req.encode());
  EXPECT_EQ(back.fragment, req.fragment);
  EXPECT_EQ(back.digest, req.digest);

  SiblingStoreRep rep{sample_ov(), 4, Status::kSuccess};
  EXPECT_EQ(SiblingStoreRep::decode(rep.encode()).frag_index, 4);
}

TEST(MessagesTest, KlsLocsNotifyRoundTrip) {
  KlsLocsNotify msg{sample_ov(), sample_metadata()};
  EXPECT_EQ(KlsLocsNotify::decode(msg.encode()).meta, msg.meta);
}

TEST(MessagesTest, DecodeRejectsTruncatedPayloads) {
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.fragment = Fragment(Bytes(64, 1));
  req.digest = req.fragment.digest();
  Bytes payload = req.encode();
  // Any strict prefix must be rejected, not silently mis-parsed.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{10}, payload.size() / 2,
                     payload.size() - 1}) {
    Bytes truncated(payload.begin(),
                    payload.begin() + static_cast<long>(cut));
    EXPECT_THROW(StoreFragmentReq::decode(truncated), WireError)
        << "cut=" << cut;
  }
}

TEST(MessagesTest, DecodeRejectsTrailingGarbage) {
  AmrIndication msg{sample_ov()};
  Bytes payload = msg.encode();
  payload.push_back(0);
  EXPECT_THROW(AmrIndication::decode(payload), WireError);
}

TEST(MessagesTest, FragmentPayloadDominatesWireSize) {
  // Byte accounting sanity: a 25 KiB fragment store is ~25 KiB on the wire.
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.fragment = Fragment(Bytes(25600, 0xcc));
  const Bytes payload = req.encode();
  EXPECT_GT(payload.size(), 25600u);
  EXPECT_LT(payload.size(), 25600u + 300u);
}

TEST(MessagesTest, EnvelopeWireSize) {
  const AmrIndication msg{sample_ov()};
  const Envelope env{NodeId{1}, NodeId{2}, MessageType::kAmrIndication, msg,
                     payload_size(msg)};
  EXPECT_EQ(env.wire_size(), Envelope::kHeaderBytes + msg.encode().size());
}

TEST(MessagesTest, MessageTypeNamesMatchPaperLegends) {
  EXPECT_STREQ(to_string(MessageType::kDecideLocsReq), "DecideLocsReq");
  EXPECT_STREQ(to_string(MessageType::kFsDecideLocsReq), "FSDecideLocsReq");
  EXPECT_STREQ(to_string(MessageType::kAmrIndication), "AMRIndication");
  EXPECT_STREQ(to_string(MessageType::kKlsConvergeReq), "KLSConvergeReq");
  EXPECT_STREQ(to_string(MessageType::kFsConvergeRep), "FSConvergeRep");
  EXPECT_STREQ(to_string(MessageType::kSiblingStoreReq), "SiblingStoreReq");
}

// Fuzz-ish robustness: random byte strings never crash the decoders; they
// either parse or throw WireError.
TEST(MessagesTest, RandomBytesEitherParseOrThrow) {
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes junk(rng.uniform_int(0, 200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    try {
      (void)FsConvergeRep::decode(junk);
    } catch (const WireError&) {
      // expected for most inputs
    }
    try {
      (void)RetrieveTsRep::decode(junk);
    } catch (const WireError&) {
    }
    try {
      (void)StoreFragmentReq::decode(junk);
    } catch (const WireError&) {
    }
  }
}

// --- messages as values ------------------------------------------------------

/// An instance of M with every field the messages have set to a value other
/// than its default. A field added to a message needs a line here, or the
/// round trips below check it only at its default.
template <class M>
M sample_of() {
  M m{};
  if constexpr (requires { m.ov; }) m.ov = sample_ov();
  if constexpr (requires { m.key; }) m.key = sample_ov().key;
  if constexpr (requires { m.policy; }) m.policy.min_frags_for_success = 6;
  if constexpr (requires { m.value_size; }) m.value_size = 4096;
  if constexpr (requires { m.from_fs; }) m.from_fs = true;
  if constexpr (requires { m.meta; }) m.meta = sample_metadata();
  if constexpr (requires { m.dc; }) m.dc = DataCenterId{1};
  if constexpr (requires { m.status; }) m.status = Status::kFailure;
  if constexpr (requires { m.decided_count; }) m.decided_count = 12;
  if constexpr (requires { m.frag_index; }) m.frag_index = 7;
  if constexpr (requires { m.found; }) m.found = true;
  if constexpr (requires { m.fragment; }) {
    m.fragment = Fragment(Bytes{9, 8, 7, 6, 5});
  }
  if constexpr (requires { m.digest; }) m.digest = m.fragment.digest();
  if constexpr (requires { m.before_ts; }) m.before_ts = Timestamp{77, 2};
  if constexpr (requires { m.max_entries; }) m.max_entries = 3;
  if constexpr (requires { m.entries; }) {
    m.entries = {{Timestamp{9, 1}, sample_metadata()}, {Timestamp{8, 1}, {}}};
  }
  if constexpr (requires { m.more; }) m.more = true;
  if constexpr (requires { m.verified; }) m.verified = true;
  if constexpr (requires { m.intends_recovery; }) m.intends_recovery = true;
  if constexpr (requires { m.needed_fragments; }) {
    m.needed_fragments = {2, 5};
  }
  if constexpr (requires { m.also_recovering; }) m.also_recovering = true;
  return m;
}

/// Calls f(std::type_identity<M>{}) for every alternative M of Message.
template <class F, size_t... I>
void for_each_alternative(F&& f, std::index_sequence<I...>) {
  (f(std::type_identity<std::variant_alternative_t<I, Message>>{}), ...);
}

TEST(MessageValueTest, EveryAlternativeSizesAndRoundTrips) {
  size_t checked = 0;
  for_each_alternative(
      [&checked](auto tag) {
        using M = typename decltype(tag)::type;
        const M msg = sample_of<M>();
        SCOPED_TRACE(to_string(type_of(msg)));
        EXPECT_FALSE(msg == M{}) << "the sample sets no field";
        const Bytes payload = msg.encode();
        EXPECT_EQ(payload_size(msg), payload.size());
        EXPECT_EQ(M::decode(payload), msg);
        // The same through the variant, as the network carries it.
        const Message value = msg;
        EXPECT_EQ(type_of(value), type_of(msg));
        EXPECT_EQ(payload_size(value), payload.size());
        EXPECT_EQ(decode(type_of(msg), payload), value);
        ++checked;
      },
      std::make_index_sequence<std::variant_size_v<Message>>{});
  EXPECT_EQ(checked, 18u);
}

uint64_t fnv1a(const Bytes& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// The serialized form of every message is fixed: a change to the Writer or
// to a field walk that moves a byte fails here, naming the message.
TEST(MessageValueTest, EveryAlternativeEncodesToPinnedBytes) {
  // FNV-1a of sample_of<M>().encode(), in the variant's alternative order.
  constexpr std::array<uint64_t, 18> kPinned = {
      0xd2787614dabde937ULL, 0x746e181d1990da35ULL, 0x8ad7d43b8187b076ULL,
      0x2a391a367110952aULL, 0xf33076d9105bb427ULL, 0x3b7e79367ad5078fULL,
      0x2eb2219dcba56193ULL, 0x8ae78fe2f3764ccdULL, 0x04a4574509b795a9ULL,
      0xbb2edd24062adcb4ULL, 0xc4b40a4c0a1a9141ULL, 0x8ad7d43b8187b076ULL,
      0xfe10b1210a04cb16ULL, 0x746e181d1990da35ULL, 0x9fecd0cd2212f92eULL,
      0xf33076d9105bb427ULL, 0x3b7e79367ad5078fULL, 0x8ad7d43b8187b076ULL,
  };
  size_t index = 0;
  for_each_alternative(
      [&index, &kPinned](auto tag) {
        using M = typename decltype(tag)::type;
        const M msg = sample_of<M>();
        const uint64_t h = fnv1a(msg.encode());
        std::printf("%-18s 0x%016llxULL\n", to_string(type_of(msg)),
                    static_cast<unsigned long long>(h));
        EXPECT_EQ(h, kPinned[index]) << to_string(type_of(msg));
        ++index;
      },
      std::make_index_sequence<std::variant_size_v<Message>>{});
  EXPECT_EQ(index, kPinned.size());
}

// Corpus files hold schedules in this encoding, so it must not drift.
TEST(SerdeTest, FaultScheduleEncodesToPinnedBytes) {
  using core::FaultSpec;
  const std::vector<FaultSpec> schedule = {
      FaultSpec::fs_blackout(0, 1, 60 * kMicrosPerSecond,
                             600 * kMicrosPerSecond),
      FaultSpec::uniform_loss(0.05),
      FaultSpec::disk_destroy(1, 2, 1, 90 * kMicrosPerSecond),
      FaultSpec::duplication_burst(0.2, 10 * kMicrosPerSecond,
                                   20 * kMicrosPerSecond),
  };
  const Bytes encoded = chaos::encode_schedule(schedule);
  std::printf("schedule 0x%016llxULL\n",
              static_cast<unsigned long long>(fnv1a(encoded)));
  EXPECT_EQ(fnv1a(encoded), 0xd457b4ba3bd8f18aULL);
  EXPECT_EQ(chaos::decode_schedule(encoded), schedule);
}

TEST(MessageValueTest, DecideLocsReqTypeFollowsItsSender) {
  DecideLocsReq req = sample_of<DecideLocsReq>();
  req.from_fs = false;
  EXPECT_EQ(type_of(Message(req)), MessageType::kDecideLocsReq);
  EXPECT_EQ(decode(MessageType::kDecideLocsReq, req.encode()), Message(req));
  // A proxy's request sent under the FS type is another message.
  EXPECT_THROW(decode(MessageType::kFsDecideLocsReq, req.encode()),
               WireError);
}

TEST(MessageValueTest, DecodeByTypeRejectsGarbage) {
  EXPECT_THROW(decode(MessageType::kStoreFragmentReq, Bytes{1, 2, 3}),
               WireError);
  EXPECT_THROW(decode(static_cast<MessageType>(0),
                      AmrIndication{sample_ov()}.encode()),
               WireError);
  Rng rng(321);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes junk(rng.uniform_int(0, 120));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    const auto type =
        static_cast<MessageType>(rng.uniform_int(1, kMessageTypeCount - 1));
    try {
      const Message msg = decode(type, junk);
      EXPECT_EQ(type_of(msg), type);
      EXPECT_EQ(payload_size(msg), junk.size());
    } catch (const WireError&) {
      // expected for most inputs
    }
  }
}

}  // namespace
}  // namespace pahoehoe::wire
