#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "common/fragment.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/prof.h"

namespace pahoehoe {
namespace {

// --- Timestamp --------------------------------------------------------------

TEST(TimestampTest, DefaultIsInvalid) {
  Timestamp ts;
  EXPECT_FALSE(ts.valid());
}

TEST(TimestampTest, OrderedByWallClockFirst) {
  Timestamp a{100, 9};
  Timestamp b{200, 1};
  EXPECT_LT(a, b);
}

TEST(TimestampTest, ProxyIdBreaksTies) {
  Timestamp a{100, 1};
  Timestamp b{100, 2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(TimestampTest, EqualityRequiresBothFields) {
  EXPECT_EQ((Timestamp{5, 7}), (Timestamp{5, 7}));
  EXPECT_NE((Timestamp{5, 7}), (Timestamp{5, 8}));
}

TEST(TimestampTest, UsableAsSetAndMapKey) {
  std::set<Timestamp> set;
  set.insert(Timestamp{3, 1});
  set.insert(Timestamp{1, 1});
  set.insert(Timestamp{2, 1});
  EXPECT_EQ(set.rbegin()->wall_micros, 3);
  std::unordered_set<Timestamp> uset(set.begin(), set.end());
  EXPECT_EQ(uset.size(), 3u);
}

// --- ObjectVersionId ----------------------------------------------------------

TEST(ObjectVersionIdTest, OrderedByKeyThenTimestamp) {
  ObjectVersionId a{Key{"a"}, Timestamp{10, 1}};
  ObjectVersionId b{Key{"a"}, Timestamp{20, 1}};
  ObjectVersionId c{Key{"b"}, Timestamp{5, 1}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(ObjectVersionIdTest, HashDistinguishesVersions) {
  std::unordered_set<ObjectVersionId> set;
  set.insert({Key{"k"}, Timestamp{1, 1}});
  set.insert({Key{"k"}, Timestamp{1, 2}});
  set.insert({Key{"k2"}, Timestamp{1, 1}});
  EXPECT_EQ(set.size(), 3u);
}

// --- Policy -------------------------------------------------------------------

TEST(PolicyTest, DefaultMatchesPaper) {
  Policy p;
  EXPECT_EQ(p.k, 4);
  EXPECT_EQ(p.n, 12);
  EXPECT_EQ(p.m(), 8);
  EXPECT_EQ(p.max_frags_per_fs, 2);
  EXPECT_EQ(p.max_frags_per_dc, 6);
  EXPECT_TRUE(p.data_frags_one_dc);
  EXPECT_TRUE(p.valid());
}

TEST(PolicyTest, RejectsZeroK) {
  Policy p;
  p.k = 0;
  EXPECT_FALSE(p.valid());
}

TEST(PolicyTest, RejectsNSmallerThanK) {
  Policy p;
  p.k = 5;
  p.n = 4;
  EXPECT_FALSE(p.valid());
}

TEST(PolicyTest, RejectsSuccessThresholdAboveN) {
  Policy p;
  p.min_frags_for_success = 13;
  EXPECT_FALSE(p.valid());
}

// --- Metadata -------------------------------------------------------------------

TEST(FragmentTest, EmptyFragmentHasNoBytes) {
  const Fragment none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.digest(), Sha256::hash({}));
  EXPECT_EQ(none, Fragment(Bytes{}));
}

TEST(FragmentTest, DigestIsTheHashOfTheBytes) {
  const Bytes bytes{1, 2, 3, 4, 5};
  EXPECT_EQ(Fragment(bytes).digest(), Sha256::hash(bytes));
  EXPECT_EQ(Fragment::sealed(bytes).digest(), Sha256::hash(bytes));
}

TEST(FragmentTest, CopiesShareOneBuffer) {
  const Fragment original(Bytes(64, 7));
  const Fragment copy = original;
  EXPECT_EQ(copy.bytes().data(), original.bytes().data());
  EXPECT_EQ(&copy.digest(), &original.digest());
}

TEST(FragmentTest, EqualityComparesBytes) {
  EXPECT_EQ(Fragment(Bytes{1, 2}), Fragment(Bytes{1, 2}));
  EXPECT_NE(Fragment(Bytes{1, 2}), Fragment(Bytes{1, 3}));
}

TEST(MetadataTest, FreshMetadataHasUndecidedSlots) {
  Metadata meta{Policy{}};
  EXPECT_EQ(meta.locs.size(), 12u);
  EXPECT_EQ(meta.decided_count(), 0);
  EXPECT_FALSE(meta.complete());
}

TEST(MetadataTest, CompleteWhenAllSlotsDecided) {
  Metadata meta{Policy{}};
  for (size_t i = 0; i < meta.locs.size(); ++i) {
    meta.locs[i] = Location{NodeId{static_cast<uint32_t>(i)}, 0};
  }
  EXPECT_TRUE(meta.complete());
  EXPECT_EQ(meta.decided_count(), 12);
}

TEST(MetadataTest, FragmentsForReturnsAssignedSlots) {
  Metadata meta{Policy{}};
  meta.locs[2] = Location{NodeId{7}, 0};
  meta.locs[5] = Location{NodeId{7}, 1};
  meta.locs[6] = Location{NodeId{8}, 0};
  EXPECT_EQ(meta.fragments_for(NodeId{7}), (std::vector<int>{2, 5}));
  EXPECT_EQ(meta.fragments_for(NodeId{8}), (std::vector<int>{6}));
  EXPECT_TRUE(meta.fragments_for(NodeId{9}).empty());
}

TEST(MetadataTest, SiblingFsDeduplicatesInSlotOrder) {
  Metadata meta{Policy{}};
  meta.locs[0] = Location{NodeId{5}, 0};
  meta.locs[1] = Location{NodeId{6}, 0};
  meta.locs[2] = Location{NodeId{5}, 1};
  auto sibs = meta.sibling_fs();
  EXPECT_EQ(sibs, (std::vector<NodeId>{NodeId{5}, NodeId{6}}));
}

TEST(MetadataTest, MergeLocsUnionsAndExistingWins) {
  Metadata a{Policy{}};
  a.locs[0] = Location{NodeId{1}, 0};
  Metadata b{Policy{}};
  b.locs[0] = Location{NodeId{2}, 0};  // conflicts; a keeps its own
  b.locs[1] = Location{NodeId{3}, 0};
  EXPECT_TRUE(a.merge_locs(b));
  EXPECT_EQ(a.locs[0]->fs, NodeId{1});
  EXPECT_EQ(a.locs[1]->fs, NodeId{3});
}

TEST(MetadataTest, MergeLocsReportsNoChange) {
  Metadata a{Policy{}};
  a.locs[0] = Location{NodeId{1}, 0};
  Metadata b{Policy{}};
  EXPECT_FALSE(a.merge_locs(b));
}

// --- SHA-256 ----------------------------------------------------------------------

/// Every case runs once per SHA-256 block kernel; a kernel this host cannot
/// run is skipped.
class Sha256Test : public ::testing::TestWithParam<sha256::Kernel> {
 protected:
  void SetUp() override {
    if (!sha256::kernel_supported(GetParam())) {
      GTEST_SKIP() << sha256::to_string(GetParam())
                   << " is not supported on this host";
    }
    sha256::force_kernel(GetParam());
  }
  void TearDown() override { sha256::reset_kernel(); }
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Test,
    ::testing::Values(sha256::Kernel::kScalar, sha256::Kernel::kShaNi,
                      sha256::Kernel::kAvx512),
    [](const ::testing::TestParamInfo<sha256::Kernel>& info) {
      return std::string(sha256::to_string(info.param));
    });

TEST_P(Sha256Test, EmptyInputVector) {
  // FIPS 180-4 test vector.
  EXPECT_EQ(Sha256::hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Test, AbcVector) {
  const std::string abc = "abc";
  Bytes data(abc.begin(), abc.end());
  EXPECT_EQ(Sha256::hex(Sha256::hash(data)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Test, TwoBlockVector) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Bytes data(msg.begin(), msg.end());
  EXPECT_EQ(Sha256::hex(Sha256::hash(data)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Test, MillionAVector) {
  Bytes data(1'000'000, static_cast<uint8_t>('a'));
  EXPECT_EQ(Sha256::hex(Sha256::hash(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<uint8_t>(i));
  Sha256 incremental;
  // Feed in awkward chunk sizes straddling block boundaries.
  size_t offset = 0;
  for (size_t chunk : {1u, 63u, 64u, 65u, 500u, 307u}) {
    const size_t take = std::min(chunk, data.size() - offset);
    incremental.update(std::span(data).subspan(offset, take));
    offset += take;
  }
  incremental.update(std::span(data).subspan(offset));
  EXPECT_EQ(incremental.finish(), Sha256::hash(data));
}

TEST_P(Sha256Test, SingleBitChangesDigest) {
  Bytes data(100, 0xab);
  auto d1 = Sha256::hash(data);
  data[50] ^= 1;
  auto d2 = Sha256::hash(data);
  EXPECT_NE(d1, d2);
}

/// hash_many against the scalar oracle, input by input, for every lane
/// count around the crossover and the 16-lane width, every length that
/// changes the padding (0..193) plus a fragment's 25 KiB and 25 KiB + 7, and
/// every start alignment 0..15. Lane j of a batch starts 97 * j bytes into
/// the pool, so lanes differ in content and alignment.
TEST_P(Sha256Test, HashManyMatchesHashOnEveryLaneCountLengthAndAlignment) {
  static constexpr size_t kLaneCounts[] = {0,  1,  2,  7,  8,  12,
                                           15, 16, 17, 31, 32, 33};
  constexpr size_t kMaxLanes = 33;
  constexpr size_t kLaneStride = 97;
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 193; ++len) lengths.push_back(len);
  lengths.push_back(25 * 1024);
  lengths.push_back(25 * 1024 + 7);
  Rng rng(62);
  Bytes pool(25 * 1024 + 7 + 15 + kLaneStride * kMaxLanes);
  for (auto& b : pool) b = static_cast<uint8_t>(rng.next_u64());
  for (size_t start = 0; start < 16; ++start) {
    for (size_t len : lengths) {
      std::vector<std::span<const uint8_t>> inputs;
      std::vector<Sha256::Digest> expected;
      sha256::force_kernel(sha256::Kernel::kScalar);
      for (size_t j = 0; j < kMaxLanes; ++j) {
        inputs.emplace_back(pool.data() + start + kLaneStride * j, len);
        expected.push_back(Sha256::hash(inputs.back()));
      }
      sha256::force_kernel(GetParam());
      for (size_t lanes : kLaneCounts) {
        std::vector<Sha256::Digest> digests(lanes);
        Sha256::hash_many(std::span(inputs).first(lanes), digests);
        for (size_t j = 0; j < lanes; ++j) {
          ASSERT_EQ(digests[j], expected[j])
              << "lane " << j << " of " << lanes << ", start " << start
              << " length " << len;
        }
      }
    }
  }
}

TEST_P(Sha256Test, HashManyLanesMayAliasOneBuffer) {
  const Bytes data(25 * 1024, 0x5c);
  const Sha256::Digest expected = Sha256::hash(data);
  for (size_t lanes : {8u, 12u, 16u, 33u}) {
    const std::vector<std::span<const uint8_t>> inputs(lanes, data);
    std::vector<Sha256::Digest> digests(lanes);
    Sha256::hash_many(inputs, digests);
    for (size_t j = 0; j < lanes; ++j) {
      EXPECT_EQ(digests[j], expected) << "lane " << j << " of " << lanes;
    }
  }
}

TEST_P(Sha256Test, HashManyOfUnequalLengthsHashesEachInput) {
  // Unequal lengths take the one-at-a-time path: every length differs, or
  // a single input is one byte short of the other 15.
  Rng rng(63);
  Bytes pool(4096);
  for (auto& b : pool) b = static_cast<uint8_t>(rng.next_u64());
  for (bool one_short : {false, true}) {
    std::vector<std::span<const uint8_t>> inputs;
    for (size_t j = 0; j < 16; ++j) {
      const size_t len = one_short ? (j == 9 ? 999 : 1000) : 100 + 61 * j;
      inputs.emplace_back(pool.data() + 3 * j, len);
    }
    std::vector<Sha256::Digest> digests(inputs.size());
    Sha256::hash_many(inputs, digests);
    for (size_t j = 0; j < inputs.size(); ++j) {
      EXPECT_EQ(digests[j], Sha256::hash(inputs[j]))
          << "lane " << j << (one_short ? ", one short" : ", all differ");
    }
  }
}

/// Hash `data` in chunks of 1, 63, 64, 65 and 130 bytes, in turn, so that
/// both the buffered path and the whole-block path straddle block edges.
Sha256::Digest hash_chunked(std::span<const uint8_t> data) {
  static constexpr size_t kChunks[] = {1, 63, 64, 65, 130};
  Sha256 hasher;
  size_t offset = 0;
  for (size_t i = 0; offset < data.size(); ++i) {
    const size_t take = std::min(kChunks[i % 5], data.size() - offset);
    hasher.update(data.subspan(offset, take));
    offset += take;
  }
  return hasher.finish();
}

TEST(Sha256KernelTest, ShaNiMatchesScalarOnEveryLengthAndAlignment) {
  if (!sha256::kernel_supported(sha256::Kernel::kShaNi)) {
    GTEST_SKIP() << "SHA-NI is not supported on this host";
  }
  struct KernelGuard {
    ~KernelGuard() { sha256::reset_kernel(); }
  } guard;
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 193; ++len) lengths.push_back(len);
  lengths.push_back(25 * 1024);
  lengths.push_back(25 * 1024 + 7);
  Rng rng(61);
  Bytes pool(25 * 1024 + 7 + 15);
  for (auto& b : pool) b = static_cast<uint8_t>(rng.next_u64());
  // Start offsets 0..15 leave the input at every alignment.
  for (size_t start = 0; start < 16; ++start) {
    for (size_t len : lengths) {
      const std::span<const uint8_t> data(pool.data() + start, len);
      sha256::force_kernel(sha256::Kernel::kScalar);
      const Sha256::Digest expected = Sha256::hash(data);
      sha256::force_kernel(sha256::Kernel::kShaNi);
      EXPECT_EQ(Sha256::hash(data), expected)
          << "one-shot, start " << start << " length " << len;
      EXPECT_EQ(hash_chunked(data), expected)
          << "chunked, start " << start << " length " << len;
    }
  }
}

TEST(Sha256KernelTest, ProfilerPhaseNamesTheKernelThatRan) {
  struct Guard {
    ~Guard() {
      obs::prof::set_enabled(false);
      sha256::reset_kernel();
    }
  } guard;
  obs::prof::set_enabled(true);
  const Bytes data(1000, 0x11);
  const std::vector<std::span<const uint8_t>> stripe(12, data);
  const std::vector<std::span<const uint8_t>> few(sha256::kLaneCrossover - 1,
                                                  data);
  std::vector<Sha256::Digest> digests(stripe.size());
  for (sha256::Kernel k : sha256::supported_kernels()) {
    sha256::force_kernel(k);
    // Single messages and batches below the crossover run on the
    // single-stream kernel, which is SHA-NI (where the CPU has it) under
    // avx512.
    const bool lanes = k == sha256::Kernel::kAvx512;
    const sha256::Kernel stream =
        !lanes ? k
        : sha256::kernel_supported(sha256::Kernel::kShaNi)
            ? sha256::Kernel::kShaNi
            : sha256::Kernel::kScalar;
    const std::string stream_phase =
        std::string("sha256[") + sha256::to_string(stream) + "]";
    const obs::prof::Snapshot begin = obs::prof::capture_begin();
    Sha256::hash(data);
    Sha256::hash_many(few, std::span(digests).first(few.size()));
    Sha256::hash_many(stripe, digests);
    const obs::ProfReport report = obs::prof::capture_delta(begin);
    const obs::ProfPhase* stream_row = report.find("", stream_phase);
    ASSERT_NE(stream_row, nullptr) << sha256::to_string(k);
    EXPECT_EQ(stream_row->calls, lanes ? 2u : 3u) << sha256::to_string(k);
    const obs::ProfPhase* lanes_row = report.find("", "sha256[avx512]");
    EXPECT_EQ(lanes_row != nullptr, lanes) << sha256::to_string(k);
    if (lanes_row != nullptr) {
      EXPECT_EQ(lanes_row->calls, 1u);
    }
    EXPECT_EQ(report.phases.size(), lanes ? 2u : 1u) << sha256::to_string(k);
  }
}

TEST(Sha256KernelTest, KernelNamesRoundTrip) {
  for (sha256::Kernel k : {sha256::Kernel::kScalar, sha256::Kernel::kShaNi,
                           sha256::Kernel::kAvx512}) {
    EXPECT_EQ(sha256::parse_kernel(sha256::to_string(k)), k);
  }
  EXPECT_STREQ(sha256::to_string(sha256::Kernel::kAvx512), "avx512");
  EXPECT_FALSE(sha256::parse_kernel("auto").has_value());
  EXPECT_FALSE(sha256::parse_kernel("SHANI").has_value());
  EXPECT_FALSE(sha256::parse_kernel("AVX512").has_value());
}

TEST(Sha256KernelTest, EnvOverrideSelectsKernelAndFallsBack) {
  // setenv runs before any other thread exists in this process. The
  // caller's own setting (CI forces kernels through it) is put back.
  static constexpr const char* kVar = "PAHOEHOE_SHA256_KERNEL";
  struct EnvGuard {
    std::optional<std::string> saved = env::get(kVar);
    ~EnvGuard() {
      if (saved.has_value()) {
        ::setenv(kVar, saved->c_str(), /*overwrite=*/1);
      } else {
        ::unsetenv(kVar);
      }
      sha256::reset_kernel();
    }
  } guard;
  EXPECT_TRUE(sha256::kernel_compiled(sha256::Kernel::kScalar));
  EXPECT_TRUE(sha256::kernel_supported(sha256::Kernel::kScalar));
  ::setenv(kVar, "scalar", /*overwrite=*/1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::Kernel::kScalar);
  // avx512 selects the lanes kernel where the host runs it; elsewhere it
  // warns on stderr and falls back to the best kernel.
  ::setenv(kVar, "avx512", /*overwrite=*/1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(),
            sha256::kernel_supported(sha256::Kernel::kAvx512)
                ? sha256::Kernel::kAvx512
                : sha256::best_kernel());
  // An unknown name warns on stderr and falls back to the best kernel.
  ::setenv(kVar, "sha-ni", /*overwrite=*/1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::best_kernel());
  ::setenv(kVar, "auto", /*overwrite=*/1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::best_kernel());
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(10, 30);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 30);
  }
}

TEST(RngTest, UniformIntCoversSingletonRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.15)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.15, 0.02);
}

// The block engine against its oracle, std::mt19937_64: the same words for
// the same seed, across many state refills (312 words each).
TEST(RngTest, BlockEngineMatchesStdMt19937_64) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{5489},
                              uint64_t{0x9e3779b97f4a7c15ULL}, ~uint64_t{0}}) {
    Mt19937_64 block(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const uint64_t want = oracle();
      const uint64_t got = block();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << i << ": " << got
               << " != " << want;
      }
    }
  }
}

// Distributions see only the engine's words and its min()/max(), so every
// draw the simulator makes is unchanged by the engine swap.
TEST(RngTest, DistributionsAndShuffleMatchUnderBothEngines) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{42}, uint64_t{7777}}) {
    Mt19937_64 block(seed);
    std::mt19937_64 oracle(seed);
    std::vector<int> deck_block(52), deck_oracle(52);
    for (int i = 0; i < 52; ++i) deck_block[i] = deck_oracle[i] = i;
    for (int i = 0; i < 200'000; ++i) {
      switch (i % 4) {
        case 0: {
          std::uniform_int_distribution<int64_t> d(10'000, 30'000);
          ASSERT_EQ(d(block), d(oracle));
          break;
        }
        case 1: {
          std::uniform_int_distribution<int64_t> d(0, int64_t{1} << 62);
          ASSERT_EQ(d(block), d(oracle));
          break;
        }
        case 2: {
          std::uniform_real_distribution<double> d(0.0, 1.0);
          ASSERT_EQ(d(block), d(oracle));
          break;
        }
        default:
          std::shuffle(deck_block.begin(), deck_block.end(), block);
          std::shuffle(deck_oracle.begin(), deck_oracle.end(), oracle);
          ASSERT_EQ(deck_block, deck_oracle);
      }
    }
    EXPECT_EQ(block(), oracle());
  }
}

// Rng::fill writes the bytes of the byte-at-a-time loop workload values
// used to be made with, at lengths around word and refill (2496-byte)
// boundaries.
TEST(RngTest, FillMatchesByteLoop) {
  // `skip` words are drawn before the fill, so it starts mid-block.
  const auto byte_loop = [](uint64_t seed, size_t skip, size_t length) {
    std::mt19937_64 gen(seed);
    gen.discard(skip);
    Bytes value(length);
    size_t i = 0;
    while (i + 8 <= value.size()) {
      const uint64_t word = gen();
      for (int b = 0; b < 8; ++b) {
        value[i++] = static_cast<uint8_t>(word >> (8 * b));
      }
    }
    for (uint64_t word = gen(); i < value.size(); word >>= 8) {
      value[i++] = static_cast<uint8_t>(word);
    }
    return value;
  };
  for (const size_t length :
       {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{2495},
        size_t{2496}, size_t{2497}, size_t{2496 * 3 - 1}, size_t{2496 * 3 + 1},
        size_t{100 * 1024 + 3}}) {
    for (const uint64_t seed : {uint64_t{3}, uint64_t{0xfeedULL}}) {
      for (const size_t skip : {size_t{0}, size_t{1}, size_t{311}}) {
        Rng rng(seed);
        for (size_t i = 0; i < skip; ++i) rng.next_u64();
        Bytes value(length);
        rng.fill(value);
        EXPECT_EQ(value, byte_loop(seed, skip, length))
            << "length " << length << " seed " << seed << " skip " << skip;
      }
    }
  }
}

// --- SampleStats -------------------------------------------------------------------

TEST(SampleStatsTest, MeanAndStddev) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(SampleStatsTest, EmptyAndSingleton) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SampleStatsTest, Ci95ShrinksWithSamples) {
  SampleStats small, large;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleStatsTest, MinMax) {
  SampleStats s;
  s.add(3);
  s.add(-1);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.min(), -1);
  EXPECT_DOUBLE_EQ(s.max(), 10);
}

}  // namespace
}  // namespace pahoehoe
