// Property-based wire-format tests: randomly generated messages round-trip
// exactly, and random mutations of valid encodings never crash a decoder —
// they parse (possibly to different values) or throw WireError. Decoders
// take whatever bytes Network::send is handed as a payload, so "no
// undefined behavior on any input" is a hard requirement.
#include <gtest/gtest.h>

#include "chaos/schedule.h"
#include "common/rng.h"
#include "wire/messages.h"

namespace pahoehoe::wire {
namespace {

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  uint8_t u8() { return static_cast<uint8_t>(rng_.next_u64()); }
  uint16_t u16() { return static_cast<uint16_t>(rng_.next_u64()); }
  uint32_t u32() { return static_cast<uint32_t>(rng_.next_u64()); }
  bool coin() { return rng_.chance(0.5); }
  size_t index(size_t bound) {
    return static_cast<size_t>(rng_.uniform_int(0, static_cast<int64_t>(bound) - 1));
  }

  Key key() {
    std::string s;
    const int len = static_cast<int>(rng_.uniform_int(0, 40));
    for (int i = 0; i < len; ++i) s.push_back(static_cast<char>(u8()));
    return Key{s};
  }

  Timestamp timestamp() {
    return Timestamp{rng_.uniform_int(0, 1'000'000'000'000LL), u32()};
  }

  ObjectVersionId ov() { return ObjectVersionId{key(), timestamp()}; }

  Policy policy() {
    Policy p;
    p.k = static_cast<uint8_t>(rng_.uniform_int(1, 20));
    p.n = static_cast<uint8_t>(rng_.uniform_int(p.k, 40));
    p.max_frags_per_fs = static_cast<uint8_t>(rng_.uniform_int(1, 4));
    p.max_frags_per_dc = static_cast<uint8_t>(rng_.uniform_int(1, 20));
    p.data_frags_one_dc = coin();
    p.min_frags_for_success = static_cast<uint8_t>(rng_.uniform_int(0, p.n));
    return p;
  }

  Metadata metadata() {
    Metadata meta{policy(), rng_.next_u64() % (1 << 20)};
    for (auto& loc : meta.locs) {
      if (coin()) loc = Location{NodeId{u32()}, u8()};
    }
    return meta;
  }

  Bytes bytes(size_t max = 200) {
    Bytes out(index(max + 1));
    for (auto& b : out) b = u8();
    return out;
  }

  Sha256::Digest digest() {
    Sha256::Digest d;
    for (auto& b : d) b = u8();
    return d;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomMessagesRoundTripExactly) {
  Gen gen(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    {
      DecideLocsReq msg{gen.ov(), gen.policy(), gen.coin()};
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = DecideLocsReq::decode(msg.encode());
      EXPECT_EQ(back.ov, msg.ov);
      EXPECT_EQ(back.policy, msg.policy);
      EXPECT_EQ(back.from_fs, msg.from_fs);
    }
    {
      DecideLocsRep msg{gen.ov(), gen.metadata(), DataCenterId{gen.u8()}};
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = DecideLocsRep::decode(msg.encode());
      EXPECT_EQ(back.meta, msg.meta);
    }
    {
      StoreFragmentReq msg;
      msg.ov = gen.ov();
      msg.meta = gen.metadata();
      msg.frag_index = gen.u16();
      msg.fragment = Fragment(gen.bytes(1000));
      msg.digest = gen.digest();
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = StoreFragmentReq::decode(msg.encode());
      EXPECT_EQ(back.fragment, msg.fragment);
      EXPECT_EQ(back.digest, msg.digest);
      EXPECT_EQ(back.frag_index, msg.frag_index);
    }
    {
      StoreMetadataRep msg{gen.ov(), gen.coin() ? Status::kSuccess
                                                : Status::kFailure,
                           gen.u16()};
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = StoreMetadataRep::decode(msg.encode());
      EXPECT_EQ(back.status, msg.status);
      EXPECT_EQ(back.decided_count, msg.decided_count);
    }
    {
      RetrieveTsRep msg;
      msg.key = gen.key();
      const int entries = static_cast<int>(gen.index(5));
      for (int e = 0; e < entries; ++e) {
        msg.entries.push_back({gen.timestamp(), gen.metadata()});
      }
      msg.more = gen.coin();
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = RetrieveTsRep::decode(msg.encode());
      EXPECT_EQ(back.entries, msg.entries);
      EXPECT_EQ(back.more, msg.more);
    }
    {
      FsConvergeRep msg;
      msg.ov = gen.ov();
      msg.verified = gen.coin();
      const int needs = static_cast<int>(gen.index(6));
      for (int e = 0; e < needs; ++e) msg.needed_fragments.push_back(gen.u16());
      msg.also_recovering = gen.coin();
      EXPECT_EQ(payload_size(msg), msg.encode().size());
      const auto back = FsConvergeRep::decode(msg.encode());
      EXPECT_EQ(back.needed_fragments, msg.needed_fragments);
      EXPECT_EQ(back.also_recovering, msg.also_recovering);
    }
  }
}

TEST_P(WireFuzzTest, MutatedEncodingsNeverCrashDecoders) {
  Gen gen(GetParam() ^ 0x5eed);
  // A pool of valid encodings of varying shapes.
  std::vector<Bytes> pool;
  for (int i = 0; i < 10; ++i) {
    StoreFragmentReq frag;
    frag.ov = gen.ov();
    frag.meta = gen.metadata();
    frag.fragment = Fragment(gen.bytes(300));
    pool.push_back(frag.encode());
    pool.push_back(KlsConvergeReq{gen.ov(), gen.metadata()}.encode());
    RetrieveTsRep rep;
    rep.key = gen.key();
    rep.entries.push_back({gen.timestamp(), gen.metadata()});
    pool.push_back(rep.encode());
  }

  auto try_all_decoders = [](const Bytes& payload) {
    // Every decoder must either parse or throw WireError on ANY input.
    try { (void)StoreFragmentReq::decode(payload); } catch (const WireError&) {}
    try { (void)KlsConvergeReq::decode(payload); } catch (const WireError&) {}
    try { (void)RetrieveTsRep::decode(payload); } catch (const WireError&) {}
    try { (void)FsConvergeRep::decode(payload); } catch (const WireError&) {}
    try { (void)DecideLocsRep::decode(payload); } catch (const WireError&) {}
    try { (void)AmrIndication::decode(payload); } catch (const WireError&) {}
  };

  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = pool[gen.index(pool.size())];
    const int mutations = 1 + static_cast<int>(gen.index(4));
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      switch (gen.index(3)) {
        case 0:  // flip a byte
          mutated[gen.index(mutated.size())] ^= gen.u8();
          break;
        case 1:  // truncate
          mutated.resize(gen.index(mutated.size() + 1));
          break;
        case 2:  // append garbage
          for (size_t j = gen.index(8) + 1; j > 0; --j) {
            mutated.push_back(gen.u8());
          }
          break;
      }
    }
    try_all_decoders(mutated);
  }
}

// Fault schedules travel through the same wire machinery (the shrinker's
// repro files), so they get the same treatment: random schedules round-trip
// exactly, and mutated encodings parse or throw — never crash.
TEST_P(WireFuzzTest, FaultSchedulesRoundTripExactly) {
  const core::ClusterTopology topology;
  for (uint64_t s = 0; s < 20; ++s) {
    chaos::ScheduleOptions options;
    options.intensity = 0.5 + static_cast<double>(s % 5);
    const auto schedule =
        chaos::generate_schedule(GetParam() * 100 + s, topology, options);
    const auto back = chaos::decode_schedule(chaos::encode_schedule(schedule));
    EXPECT_EQ(back, schedule);
  }
}

TEST_P(WireFuzzTest, MutatedScheduleEncodingsNeverCrashDecoder) {
  Gen gen(GetParam() ^ 0xfa17);
  const core::ClusterTopology topology;
  std::vector<Bytes> pool;
  for (uint64_t s = 0; s < 8; ++s) {
    pool.push_back(chaos::encode_schedule(
        chaos::generate_schedule(GetParam() * 31 + s, topology, {})));
  }
  pool.push_back(chaos::encode_schedule({}));

  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = pool[gen.index(pool.size())];
    const int mutations = 1 + static_cast<int>(gen.index(4));
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      switch (gen.index(3)) {
        case 0:
          mutated[gen.index(mutated.size())] ^= gen.u8();
          break;
        case 1:
          mutated.resize(gen.index(mutated.size() + 1));
          break;
        case 2:
          for (size_t j = gen.index(8) + 1; j > 0; --j) {
            mutated.push_back(gen.u8());
          }
          break;
      }
    }
    try {
      (void)chaos::decode_schedule(mutated);
    } catch (const WireError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace pahoehoe::wire
