// Exhaustive erasure-code checks, kept in their own binary because they are
// heavier than the unit tests: full GF(2^8) table verification against a
// reference implementation, every k-subset decode for the paper's default
// (k=4, n=12) code, and the cross-kernel differential battery that pins
// every compiled SIMD dot-product kernel byte-identical to the scalar
// oracle (the simulation's determinism contract, DESIGN.md §10).
#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"

namespace pahoehoe::erasure {
namespace {

/// Restores the dispatcher's own kernel choice on scope exit, so a failing
/// assertion can't leak a forced kernel into later tests.
struct KernelGuard {
  ~KernelGuard() { gf256::reset_kernel(); }
};

/// Reference GF(2^8) multiply: Russian-peasant with explicit reduction by
/// x^8 + x^4 + x^3 + x^2 + 1 — independent of the table construction.
uint8_t reference_mul(uint8_t a, uint8_t b) {
  uint8_t product = 0;
  uint16_t aa = a;
  while (b != 0) {
    if (b & 1) product ^= static_cast<uint8_t>(aa);
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
    b >>= 1;
  }
  return product;
}

TEST(Gf256ExhaustiveTest, FullMultiplicationTableMatchesReference) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf256::mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                reference_mul(static_cast<uint8_t>(a),
                              static_cast<uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256ExhaustiveTest, DivisionInvertsMultiplicationEverywhere) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      const uint8_t p =
          gf256::mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b));
      ASSERT_EQ(gf256::div(p, static_cast<uint8_t>(b)), a);
    }
  }
}

TEST(ReedSolomonExhaustiveTest, EveryKSubsetDecodesDefaultPolicyEveryKernel) {
  // All C(12,4) = 495 fragment subsets of the paper's default code, decoded
  // under every supported kernel; the fragments themselves must also be
  // kernel-independent.
  KernelGuard guard;
  ReedSolomon rs(4, 12);
  Rng rng(20260707);
  Bytes value(1024);
  for (auto& byte : value) byte = static_cast<uint8_t>(rng.next_u64());
  gf256::force_kernel(gf256::Kernel::kScalar);
  const auto frags = rs.encode(value);

  for (gf256::Kernel kernel : gf256::supported_kernels()) {
    gf256::force_kernel(kernel);
    ASSERT_EQ(rs.encode(value), frags) << gf256::to_string(kernel);
    int subsets = 0;
    for (int a = 0; a < 12; ++a) {
      for (int b = a + 1; b < 12; ++b) {
        for (int c = b + 1; c < 12; ++c) {
          for (int d = c + 1; d < 12; ++d) {
            std::vector<IndexedFragment> input{{a, &frags[static_cast<size_t>(a)]},
                                               {b, &frags[static_cast<size_t>(b)]},
                                               {c, &frags[static_cast<size_t>(c)]},
                                               {d, &frags[static_cast<size_t>(d)]}};
            ASSERT_EQ(rs.decode(input, value.size()), value)
                << gf256::to_string(kernel) << ": " << a << "," << b << ","
                << c << "," << d;
            ++subsets;
          }
        }
      }
    }
    EXPECT_EQ(subsets, 495);
  }
}

TEST(ReedSolomonExhaustiveTest, EverySingleFragmentRegenerableFromEveryKSubset) {
  // For each missing fragment, a sample of donor subsets regenerates it
  // bit-exactly (full cross-product is 12 × 495; sample the diagonal plus
  // random picks).
  ReedSolomon rs(4, 12);
  Rng rng(99);
  Bytes value(512);
  for (auto& byte : value) byte = static_cast<uint8_t>(rng.next_u64());
  const auto frags = rs.encode(value);

  for (int missing = 0; missing < 12; ++missing) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<int> donors(12);
      std::iota(donors.begin(), donors.end(), 0);
      donors.erase(donors.begin() + missing);
      std::shuffle(donors.begin(), donors.end(), rng.engine());
      donors.resize(4);
      std::vector<IndexedFragment> input;
      for (int d : donors) input.push_back({d, &frags[static_cast<size_t>(d)]});
      const auto regen = rs.regenerate(input, {missing}, value.size());
      ASSERT_EQ(regen[0], frags[static_cast<size_t>(missing)])
          << "missing " << missing << " trial " << trial;
    }
  }
}

TEST(ReedSolomonExhaustiveTest, CorruptedFragmentYieldsWrongDecodeNotCrash) {
  // The codec itself has no integrity checking (that is the fragment
  // store's SHA-256 layer); a silently corrupted fragment decodes to wrong
  // bytes without crashing — documenting why the digest layer must exist.
  ReedSolomon rs(4, 12);
  Bytes value(256, 0x11);
  auto frags = rs.encode(value);
  frags[2][10] ^= 0xff;
  std::vector<IndexedFragment> input{
      {0, &frags[0]}, {1, &frags[1]}, {2, &frags[2]}, {3, &frags[3]}};
  const Bytes out = rs.decode(input, value.size());
  EXPECT_NE(out, value);
  EXPECT_EQ(out.size(), value.size());
}

// --- cross-kernel differential battery -------------------------------------

// Every compiled-and-supported kernel must reproduce the scalar codec's
// fragments and recovered data byte for byte, across the full (k, n)
// encode / erase / decode sweep. The scalar pass runs first and is the
// oracle; nothing here assumes the host has any SIMD at all.
TEST(CrossKernelTest, EncodeEraseDecodeSweepMatchesScalarByteForByte) {
  KernelGuard guard;
  const std::vector<std::pair<int, int>> shapes{
      {1, 2}, {2, 3}, {3, 5}, {4, 12}, {8, 12}, {16, 20}};
  // Sizes straddling fragment-size boundaries: not divisible by k, shorter
  // than one vector register, and multi-KiB bodies with ragged tails.
  const std::vector<size_t> sizes{0, 1, 3, 16, 31, 257, 4096, 100 * 1024 + 7};

  for (const auto& [k, n] : shapes) {
    ReedSolomon rs(k, n);
    for (size_t size : sizes) {
      Rng rng(static_cast<uint64_t>(k * 1'000'003 + n * 1009) + size);
      Bytes value(size);
      for (auto& b : value) b = static_cast<uint8_t>(rng.next_u64());

      gf256::force_kernel(gf256::Kernel::kScalar);
      const auto oracle_frags = rs.encode(value);

      // A handful of erase patterns per shape: which k survivors decode.
      std::vector<std::vector<int>> survivor_sets;
      std::vector<int> all(static_cast<size_t>(n));
      std::iota(all.begin(), all.end(), 0);
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> pick = all;
        std::shuffle(pick.begin(), pick.end(), rng.engine());
        pick.resize(static_cast<size_t>(k));
        survivor_sets.push_back(std::move(pick));
      }

      std::vector<Bytes> oracle_decodes;
      for (const auto& survivors : survivor_sets) {
        std::vector<IndexedFragment> input;
        for (int i : survivors) {
          input.push_back({i, &oracle_frags[static_cast<size_t>(i)]});
        }
        oracle_decodes.push_back(rs.decode(input, size));
        ASSERT_EQ(oracle_decodes.back(), value);
      }

      for (gf256::Kernel kernel : gf256::supported_kernels()) {
        gf256::force_kernel(kernel);
        const auto frags = rs.encode(value);
        ASSERT_EQ(frags, oracle_frags)
            << "kernel " << gf256::to_string(kernel) << " k=" << k
            << " n=" << n << " size=" << size;
        for (size_t s = 0; s < survivor_sets.size(); ++s) {
          std::vector<IndexedFragment> input;
          for (int i : survivor_sets[s]) {
            input.push_back({i, &frags[static_cast<size_t>(i)]});
          }
          ASSERT_EQ(rs.decode(input, size), oracle_decodes[s])
              << "kernel " << gf256::to_string(kernel) << " k=" << k
              << " n=" << n << " size=" << size << " subset " << s;
        }
      }
    }
  }
}

// Regeneration (the §4.2 sibling-recovery path) under every kernel equals
// the scalar-encoded originals.
TEST(CrossKernelTest, RegenerateMatchesScalarFragments) {
  KernelGuard guard;
  ReedSolomon rs(4, 12);
  Rng rng(20260808);
  Bytes value(64 * 1024 + 13);
  for (auto& b : value) b = static_cast<uint8_t>(rng.next_u64());
  gf256::force_kernel(gf256::Kernel::kScalar);
  const auto oracle = rs.encode(value);

  for (gf256::Kernel kernel : gf256::supported_kernels()) {
    gf256::force_kernel(kernel);
    std::vector<IndexedFragment> donors{
        {2, &oracle[2]}, {5, &oracle[5]}, {8, &oracle[8]}, {11, &oracle[11]}};
    const auto regen =
        rs.regenerate(donors, {0, 1, 3, 4, 6, 7, 9, 10}, value.size());
    const std::vector<int> targets{0, 1, 3, 4, 6, 7, 9, 10};
    for (size_t i = 0; i < targets.size(); ++i) {
      ASSERT_EQ(regen[i], oracle[static_cast<size_t>(targets[i])])
          << "kernel " << gf256::to_string(kernel) << " target " << targets[i];
    }
  }
}

// Seeded property test hammering mul_acc's head/tail remainder paths: random
// buffers, deliberately misaligned offsets, and every length in 0..3×(zmm
// vector width), checked against the scalar kernel on identical inputs. The
// canary bytes around the destination span catch out-of-bounds writes even
// without ASan (ASan CI additionally catches OOB reads).
TEST(CrossKernelTest, MulAccMisalignedHeadsAndTailsMatchScalarOracle) {
  KernelGuard guard;
  constexpr size_t kMaxLen = 3 * 64;  // three AVX-512 registers
  constexpr size_t kPad = 64;
  Rng rng(77);

  const std::vector<gf256::Kernel> kernels = gf256::supported_kernels();
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (int trial = 0; trial < 8; ++trial) {
      const size_t src_off = static_cast<size_t>(rng.next_u64() % 48);
      const size_t dst_off = static_cast<size_t>(rng.next_u64() % 48);
      // Cycle coefficients through the fast paths (0, 1) and arbitrary ones.
      const uint8_t coef =
          trial == 0 ? 0
                     : (trial == 1 ? 1 : static_cast<uint8_t>(rng.next_u64()));

      Bytes src(kPad + kMaxLen + kPad);
      Bytes dst_init(kPad + kMaxLen + kPad);
      for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
      for (auto& b : dst_init) b = static_cast<uint8_t>(rng.next_u64());

      Bytes expected = dst_init;
      gf256::force_kernel(gf256::Kernel::kScalar);
      gf256::mul_acc(std::span<uint8_t>(expected.data() + dst_off, len),
                     std::span<const uint8_t>(src.data() + src_off, len),
                     coef);

      for (gf256::Kernel kernel : kernels) {
        gf256::force_kernel(kernel);
        Bytes dst = dst_init;
        gf256::mul_acc(std::span<uint8_t>(dst.data() + dst_off, len),
                       std::span<const uint8_t>(src.data() + src_off, len),
                       coef);
        ASSERT_EQ(dst, expected)
            << "kernel " << gf256::to_string(kernel) << " len=" << len
            << " src_off=" << src_off << " dst_off=" << dst_off
            << " coef=" << static_cast<int>(coef);
      }
    }
  }
}

// Every kernel's dot product against the scalar oracle: output groups of
// 1 to 8 and 16 (a (4, 20) code's parity rows), lengths on both sides of
// each vector width up to a (4, 12) fragment of a 100 KiB value, and
// misaligned sources and outputs. 40 sources make the GFNI kernel's groups
// smaller than 8. Each output sits between random canary bytes, which must
// come through untouched.
TEST(CrossKernelTest, DotProductMatchesScalarOracle) {
  KernelGuard guard;
  constexpr size_t kPad = 64;
  Rng rng(20261020);
  const auto random_bytes = [&rng](size_t size) {
    Bytes bytes(size);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.next_u64());
    return bytes;
  };
  for (size_t num_sources : {4, 40}) {
    for (size_t outputs : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
      for (size_t len : {0, 1, 63, 64, 65, 255, 256, 25600}) {
        // Coefficients 0 and 1 take no shortcut; keep both in every matrix.
        Bytes coefs = random_bytes(outputs * num_sources);
        coefs[0] = 0;
        coefs[coefs.size() - 1] = 1;
        std::vector<Bytes> sources;
        std::vector<const uint8_t*> srcs;
        for (size_t j = 0; j < num_sources; ++j) {
          sources.push_back(random_bytes(kPad + len + kPad));
          srcs.push_back(sources.back().data() + 1 + rng.next_u64() % 63);
        }
        std::vector<Bytes> before;
        std::vector<size_t> offsets;
        for (size_t r = 0; r < outputs; ++r) {
          before.push_back(random_bytes(kPad + len + kPad));
          offsets.push_back(1 + rng.next_u64() % 63);
        }
        const auto run = [&](gf256::Kernel kernel) {
          gf256::force_kernel(kernel);
          std::vector<Bytes> after = before;
          std::vector<uint8_t*> dsts;
          for (size_t r = 0; r < outputs; ++r) {
            dsts.push_back(after[r].data() + offsets[r]);
          }
          gf256::dot_prod(coefs, srcs, dsts, len);
          return after;
        };
        const std::vector<Bytes> expected = run(gf256::Kernel::kScalar);
        for (size_t r = 0; r < outputs; ++r) {
          for (size_t i = 0; i < before[r].size(); ++i) {
            if (i >= offsets[r] && i < offsets[r] + len) continue;
            ASSERT_EQ(expected[r][i], before[r][i]) << "scalar canary " << i;
          }
        }
        for (gf256::Kernel kernel : gf256::supported_kernels()) {
          ASSERT_EQ(run(kernel), expected)
              << "kernel " << gf256::to_string(kernel) << " sources="
              << num_sources << " outputs=" << outputs << " len=" << len;
        }
      }
    }
  }
}

// mul_acc's form of the dot product: one output that is source 0 itself,
// at the same misaligned offset. Checked against products taken one byte
// at a time with gf256::mul.
TEST(CrossKernelTest, OneOutputMayBeSourceZeroOnEveryKernel) {
  KernelGuard guard;
  Rng rng(20261021);
  for (size_t len : {0, 1, 63, 64, 65, 255, 256, 25600}) {
    const size_t offset = 1 + rng.next_u64() % 63;
    Bytes a(offset + len), b(len);
    for (auto& x : a) x = static_cast<uint8_t>(rng.next_u64());
    for (auto& x : b) x = static_cast<uint8_t>(rng.next_u64());
    const uint8_t coefs[] = {static_cast<uint8_t>(rng.next_u64()),
                             static_cast<uint8_t>(rng.next_u64())};
    Bytes expected = a;
    for (size_t i = 0; i < len; ++i) {
      expected[offset + i] = gf256::add(gf256::mul(coefs[0], a[offset + i]),
                                        gf256::mul(coefs[1], b[i]));
    }
    for (gf256::Kernel kernel : gf256::supported_kernels()) {
      gf256::force_kernel(kernel);
      Bytes x = a;
      const uint8_t* const srcs[] = {x.data() + offset, b.data()};
      uint8_t* const dsts[] = {x.data() + offset};
      gf256::dot_prod(coefs, srcs, dsts, len);
      ASSERT_EQ(x, expected)
          << "kernel " << gf256::to_string(kernel) << " len=" << len;
    }
  }
}

// Tables::gfni[c] is the bit matrix VGF2P8AFFINEQB applies: bit i of the
// result is the parity of (byte 7 - i of the matrix) AND the input byte.
// Emulated here, so the matrices are checked on hosts without GFNI too:
// every coefficient's matrix must reproduce gf256::mul on every byte.
TEST(CrossKernelTest, GfniMatricesReproduceMultiplication) {
  const auto& t = gf256::detail::tables();
  for (int c = 0; c < 256; ++c) {
    const uint64_t matrix = t.gfni[static_cast<size_t>(c)];
    for (int b = 0; b < 256; ++b) {
      unsigned product = 0;
      for (int i = 0; i < 8; ++i) {
        const unsigned row = (matrix >> (8 * (7 - i))) & 0xff;
        product |= (std::popcount(row & static_cast<unsigned>(b)) & 1u) << i;
      }
      ASSERT_EQ(product, gf256::mul(static_cast<uint8_t>(c),
                                    static_cast<uint8_t>(b)))
          << c << " * " << b;
    }
  }
}

// The split-nibble tables the SIMD kernels index must agree with the full
// product table for every (coefficient, byte) pair.
TEST(CrossKernelTest, SplitNibbleTablesCoverFullProductTable) {
  const auto& t = gf256::detail::tables();
  for (int c = 0; c < 256; ++c) {
    for (int b = 0; b < 256; ++b) {
      const uint8_t split = static_cast<uint8_t>(
          t.nib[static_cast<size_t>(c)][static_cast<size_t>(b & 0xf)] ^
          t.nib[static_cast<size_t>(c)][static_cast<size_t>(16 + (b >> 4))]);
      ASSERT_EQ(split, t.mul[static_cast<size_t>(c)][static_cast<size_t>(b)])
          << c << " * " << b;
    }
  }
}

TEST(ReedSolomonExhaustiveTest, LargeObjectRoundTrip) {
  // A 4 MiB blob — the upper-middle of the paper's target object range.
  ReedSolomon rs(4, 12);
  Rng rng(5);
  Bytes value(4 * 1024 * 1024);
  for (auto& byte : value) byte = static_cast<uint8_t>(rng.next_u64());
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> input{
      {1, &frags[1]}, {5, &frags[5]}, {9, &frags[9]}, {11, &frags[11]}};
  EXPECT_EQ(rs.decode(input, value.size()), value);
}

}  // namespace
}  // namespace pahoehoe::erasure
