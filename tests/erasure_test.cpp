#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "erasure/reed_solomon.h"

namespace pahoehoe::erasure {
namespace {

// --- GF(2^8) field axioms ------------------------------------------------------

TEST(Gf256Test, AdditionIsXor) {
  EXPECT_EQ(gf256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(gf256::sub(0x53, 0xCA), 0x53 ^ 0xCA);
}

TEST(Gf256Test, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::mul(1, static_cast<uint8_t>(a)), a);
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(Gf256Test, KnownProduct) {
  // 0x53 * 0xCA = 0x01 under polynomial 0x11d? Verify via log/exp identity
  // instead: multiply-then-divide returns the original.
  const uint8_t p = gf256::mul(0x53, 0xCA);
  EXPECT_EQ(gf256::div(p, 0xCA), 0x53);
}

TEST(Gf256Test, MultiplicationCommutes) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.next_u64());
    const auto b = static_cast<uint8_t>(rng.next_u64());
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
  }
}

TEST(Gf256Test, MultiplicationAssociates) {
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.next_u64());
    const auto b = static_cast<uint8_t>(rng.next_u64());
    const auto c = static_cast<uint8_t>(rng.next_u64());
    EXPECT_EQ(gf256::mul(gf256::mul(a, b), c),
              gf256::mul(a, gf256::mul(b, c)));
  }
}

TEST(Gf256Test, DistributesOverAddition) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.next_u64());
    const auto b = static_cast<uint8_t>(rng.next_u64());
    const auto c = static_cast<uint8_t>(rng.next_u64());
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t inv = gf256::inverse(static_cast<uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256Test, PowMatchesRepeatedMultiplication) {
  for (int a : {0, 1, 2, 3, 97, 255}) {
    uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(gf256::pow(static_cast<uint8_t>(a), e), acc)
          << "a=" << a << " e=" << e;
      acc = gf256::mul(acc, static_cast<uint8_t>(a));
    }
  }
}

TEST(Gf256Test, PowHandlesLargeExponents) {
  // a^255 = 1 for nonzero a (multiplicative group order 255).
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(gf256::pow(static_cast<uint8_t>(a), 255), 1);
    EXPECT_EQ(gf256::pow(static_cast<uint8_t>(a), 510), 1);
  }
}

TEST(Gf256Test, MulAccAccumulates) {
  Bytes dst{1, 2, 3};
  Bytes src{4, 5, 6};
  gf256::mul_acc(dst, src, 1);  // XOR path
  EXPECT_EQ(dst, (Bytes{1 ^ 4, 2 ^ 5, 3 ^ 6}));
  Bytes dst2{0, 0, 0};
  gf256::mul_acc(dst2, src, 3);
  EXPECT_EQ(dst2[0], gf256::mul(3, 4));
  gf256::mul_acc(dst2, src, 0);  // no-op
  EXPECT_EQ(dst2[0], gf256::mul(3, 4));
}

// --- mul_acc kernel dispatch & fast paths ---------------------------------

/// Restores the dispatcher's own kernel choice on scope exit.
struct KernelGuard {
  ~KernelGuard() { gf256::reset_kernel(); }
};

TEST(Gf256KernelTest, KernelNamesRoundTrip) {
  for (gf256::Kernel k : {gf256::Kernel::kScalar, gf256::Kernel::kSsse3,
                          gf256::Kernel::kAvx2, gf256::Kernel::kGfni}) {
    EXPECT_EQ(gf256::parse_kernel(gf256::to_string(k)), k);
  }
  EXPECT_FALSE(gf256::parse_kernel("auto").has_value());
  EXPECT_FALSE(gf256::parse_kernel("").has_value());
  EXPECT_FALSE(gf256::parse_kernel("AVX2").has_value());
  EXPECT_EQ(gf256::parse_kernel("gfni"), gf256::Kernel::kGfni);
}

TEST(Gf256KernelTest, ScalarAlwaysSupportedAndForceable) {
  KernelGuard guard;
  EXPECT_TRUE(gf256::kernel_supported(gf256::Kernel::kScalar));
  const auto kernels = gf256::supported_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), gf256::Kernel::kScalar);
  gf256::force_kernel(gf256::Kernel::kScalar);
  EXPECT_EQ(gf256::active_kernel(), gf256::Kernel::kScalar);
  gf256::force_kernel(gf256::best_kernel());
  EXPECT_EQ(gf256::active_kernel(), gf256::best_kernel());
}

TEST(Gf256KernelTest, MulAccCoefZeroIsExactNoOpOnEveryKernel) {
  // A kernel run for coef 0 would rewrite dst with its own bytes, which is
  // harmless, but the contract is stronger: mul_acc returns before any
  // kernel runs, so coefficient 0 does not touch dst at all.
  KernelGuard guard;
  Rng rng(31);
  for (gf256::Kernel k : gf256::supported_kernels()) {
    gf256::force_kernel(k);
    for (size_t len : {0u, 1u, 15u, 16u, 33u, 100u}) {
      Bytes src(len), dst(len);
      for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
      for (auto& b : dst) b = static_cast<uint8_t>(rng.next_u64());
      const Bytes before = dst;
      gf256::mul_acc(dst, src, 0);
      EXPECT_EQ(dst, before) << gf256::to_string(k) << " len=" << len;
    }
  }
}

TEST(Gf256KernelTest, MulAccCoefOneIsPureXorOnEveryKernel) {
  KernelGuard guard;
  Rng rng(32);
  for (gf256::Kernel k : gf256::supported_kernels()) {
    gf256::force_kernel(k);
    // Lengths around the 16/32-byte vector widths hit the remainder paths.
    for (size_t len : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 97u}) {
      Bytes src(len), dst(len);
      for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
      for (auto& b : dst) b = static_cast<uint8_t>(rng.next_u64());
      Bytes expected(len);
      for (size_t i = 0; i < len; ++i) {
        expected[i] = static_cast<uint8_t>(dst[i] ^ src[i]);
      }
      gf256::mul_acc(dst, src, 1);
      EXPECT_EQ(dst, expected) << gf256::to_string(k) << " len=" << len;
    }
  }
}

TEST(Gf256KernelTest, MulAccEmptySpansAreSafeOnEveryKernel) {
  KernelGuard guard;
  for (gf256::Kernel k : gf256::supported_kernels()) {
    gf256::force_kernel(k);
    Bytes empty;
    gf256::mul_acc(empty, empty, 7);  // must not dereference data()
    EXPECT_TRUE(empty.empty());
  }
}

// --- Matrix ---------------------------------------------------------------------

TEST(MatrixTest, IdentityMultiplication) {
  Matrix m(3, 3);
  Rng rng(8);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      m.at(r, c) = static_cast<uint8_t>(rng.next_u64());
    }
  }
  EXPECT_EQ(m.multiply(Matrix::identity(3)), m);
  EXPECT_EQ(Matrix::identity(3).multiply(m), m);
}

TEST(MatrixTest, InverseRoundTrip) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    Matrix m(4, 4);
    do {
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          m.at(r, c) = static_cast<uint8_t>(rng.next_u64());
        }
      }
    } while (!m.invertible());
    EXPECT_EQ(m.multiply(m.inverted()), Matrix::identity(4));
    EXPECT_EQ(m.inverted().multiply(m), Matrix::identity(4));
  }
}

TEST(MatrixTest, SingularDetected) {
  Matrix m(2, 2);  // all zeros
  EXPECT_FALSE(m.invertible());
  Matrix dup(2, 2);  // duplicate rows
  dup.at(0, 0) = 3;
  dup.at(0, 1) = 5;
  dup.at(1, 0) = 3;
  dup.at(1, 1) = 5;
  EXPECT_FALSE(dup.invertible());
}

TEST(MatrixTest, NonSquareNotInvertible) {
  EXPECT_FALSE(Matrix(2, 3).invertible());
}

TEST(MatrixTest, SelectRows) {
  Matrix m = Matrix::vandermonde(5, 3);
  Matrix sel = m.select_rows({4, 0});
  EXPECT_EQ(sel.rows(), 2);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(sel.at(0, c), m.at(4, c));
    EXPECT_EQ(sel.at(1, c), m.at(0, c));
  }
}

TEST(MatrixTest, VandermondeAnyRowSubsetInvertible) {
  // The defining property used by the RS construction.
  Matrix v = Matrix::vandermonde(12, 4);
  Rng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> rows(12);
    std::iota(rows.begin(), rows.end(), 0);
    std::shuffle(rows.begin(), rows.end(), rng.engine());
    rows.resize(4);
    EXPECT_TRUE(v.select_rows(rows).invertible());
  }
}

// --- ReedSolomon -------------------------------------------------------------------

Bytes random_value(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes value(size);
  for (auto& b : value) b = static_cast<uint8_t>(rng.next_u64());
  return value;
}

TEST(ReedSolomonTest, SystematicPrefixIsTheValue) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(4096, 1);
  const auto frags = rs.encode(value);
  ASSERT_EQ(frags.size(), 12u);
  // Data fragments striped in order.
  Bytes reassembled;
  for (int i = 0; i < 4; ++i) {
    reassembled.insert(reassembled.end(), frags[i].begin(), frags[i].end());
  }
  reassembled.resize(value.size());
  EXPECT_EQ(reassembled, value);
}

TEST(ReedSolomonTest, EncodeMatrixTopIsIdentity) {
  ReedSolomon rs(4, 12);
  const Matrix& m = rs.encode_matrix();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(m.at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(ReedSolomonTest, DecodeFromDataFragments) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(1000, 2);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> input;
  for (int i = 0; i < 4; ++i) input.push_back({i, &frags[i]});
  EXPECT_EQ(rs.decode(input, value.size()), value);
}

TEST(ReedSolomonTest, DecodeFromParityOnly) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(1000, 3);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> input;
  for (int i = 8; i < 12; ++i) input.push_back({i, &frags[i]});
  EXPECT_EQ(rs.decode(input, value.size()), value);
}

TEST(ReedSolomonTest, ExhaustiveAllKSubsetsForSmallCode) {
  // (k=3, n=6): all C(6,3)=20 subsets must decode.
  ReedSolomon rs(3, 6);
  const Bytes value = random_value(301, 4);
  const auto frags = rs.encode(value);
  int subsets = 0;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      for (int c = b + 1; c < 6; ++c) {
        std::vector<IndexedFragment> input{
            {a, &frags[a]}, {b, &frags[b]}, {c, &frags[c]}};
        EXPECT_EQ(rs.decode(input, value.size()), value)
            << a << "," << b << "," << c;
        ++subsets;
      }
    }
  }
  EXPECT_EQ(subsets, 20);
}

TEST(ReedSolomonTest, RandomKSubsetsForDefaultPolicy) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(100 * 1024, 5);
  const auto frags = rs.encode(value);
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> indices(12);
    std::iota(indices.begin(), indices.end(), 0);
    std::shuffle(indices.begin(), indices.end(), rng.engine());
    indices.resize(4);
    std::vector<IndexedFragment> input;
    for (int i : indices) input.push_back({i, &frags[i]});
    EXPECT_EQ(rs.decode(input, value.size()), value);
  }
}

TEST(ReedSolomonTest, ExtraFragmentsAndDuplicatesIgnored) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(512, 6);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> input;
  input.push_back({7, &frags[7]});
  input.push_back({7, &frags[7]});  // duplicate index skipped
  for (int i = 0; i < 12; ++i) input.push_back({i, &frags[i]});
  EXPECT_EQ(rs.decode(input, value.size()), value);
}

TEST(ReedSolomonTest, ValueSizeNotMultipleOfK) {
  ReedSolomon rs(4, 12);
  for (size_t size : {1u, 2u, 3u, 5u, 127u, 1001u}) {
    const Bytes value = random_value(size, 100 + size);
    const auto frags = rs.encode(value);
    EXPECT_EQ(frags[0].size(), rs.fragment_size(size));
    std::vector<IndexedFragment> input;
    for (int i = 2; i < 6; ++i) input.push_back({i, &frags[i]});
    EXPECT_EQ(rs.decode(input, size), value) << "size=" << size;
  }
}

TEST(ReedSolomonTest, EmptyValue) {
  ReedSolomon rs(4, 12);
  const auto frags = rs.encode({});
  ASSERT_EQ(frags.size(), 12u);
  for (const auto& f : frags) EXPECT_TRUE(f.empty());
  std::vector<IndexedFragment> input;
  for (int i = 0; i < 4; ++i) input.push_back({i, &frags[i]});
  EXPECT_TRUE(rs.decode(input, 0).empty());
}

TEST(ReedSolomonTest, EmptyValueEncodesUnderEveryKernel) {
  // A zero-length blob put yields zero-length fragments; the SIMD kernels
  // must take their len==0 exit without touching any buffer.
  KernelGuard guard;
  ReedSolomon rs(4, 12);
  for (gf256::Kernel k : gf256::supported_kernels()) {
    gf256::force_kernel(k);
    const auto frags = rs.encode({});
    ASSERT_EQ(frags.size(), 12u) << gf256::to_string(k);
    for (const auto& f : frags) EXPECT_TRUE(f.empty());
    std::vector<IndexedFragment> input{
        {3, &frags[3]}, {6, &frags[6]}, {9, &frags[9]}, {11, &frags[11]}};
    EXPECT_TRUE(rs.decode(input, 0).empty()) << gf256::to_string(k);
    EXPECT_TRUE(rs.regenerate(input, {0, 5}, 0).size() == 2u);
  }
}

TEST(ReedSolomonTest, ValueSizeNotMultipleOfKUnderEveryKernel) {
  // Ragged sizes make fragment tails shorter than a vector register; every
  // kernel must produce the same zero-padded fragments as scalar and decode
  // back to the exact value.
  KernelGuard guard;
  ReedSolomon rs(4, 12);
  for (size_t size : {1u, 2u, 3u, 5u, 63u, 127u, 1001u, 4095u}) {
    const Bytes value = random_value(size, 7000 + size);
    EXPECT_EQ(rs.fragment_size(size), (size + 3) / 4);
    gf256::force_kernel(gf256::Kernel::kScalar);
    const auto oracle = rs.encode(value);
    for (gf256::Kernel k : gf256::supported_kernels()) {
      gf256::force_kernel(k);
      const auto frags = rs.encode(value);
      EXPECT_EQ(frags, oracle) << gf256::to_string(k) << " size=" << size;
      std::vector<IndexedFragment> input;
      for (int i = 5; i < 9; ++i) input.push_back({i, &frags[i]});
      EXPECT_EQ(rs.decode(input, size), value)
          << gf256::to_string(k) << " size=" << size;
    }
  }
}

TEST(ReedSolomonTest, RegenerateSingleFragment) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(4096, 7);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> available{
      {1, &frags[1]}, {4, &frags[4]}, {9, &frags[9]}, {11, &frags[11]}};
  const auto regen = rs.regenerate(available, {6}, value.size());
  ASSERT_EQ(regen.size(), 1u);
  EXPECT_EQ(regen[0], frags[6]);
}

TEST(ReedSolomonTest, RegenerateAllMissingSiblings) {
  // The §4.2 sibling-recovery shape: one k-fragment read regenerates every
  // missing fragment at once.
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(8000, 8);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> available{
      {0, &frags[0]}, {1, &frags[1]}, {2, &frags[2]}, {3, &frags[3]}};
  std::vector<int> targets{4, 5, 6, 7, 8, 9, 10, 11};
  const auto regen = rs.regenerate(available, targets, value.size());
  ASSERT_EQ(regen.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(regen[i], frags[static_cast<size_t>(targets[i])])
        << "target " << targets[i];
  }
}

TEST(ReedSolomonTest, RegenerateDataFromParity) {
  ReedSolomon rs(4, 12);
  const Bytes value = random_value(333, 9);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> available{
      {8, &frags[8]}, {9, &frags[9]}, {10, &frags[10]}, {11, &frags[11]}};
  const auto regen = rs.regenerate(available, {0, 1, 2, 3}, value.size());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(regen[static_cast<size_t>(i)], frags[static_cast<size_t>(i)]);
  }
}

TEST(ReedSolomonTest, ReplicationDegenerateK1) {
  // k=1 is plain replication: every fragment equals the value.
  ReedSolomon rs(1, 3);
  const Bytes value = random_value(64, 10);
  const auto frags = rs.encode(value);
  for (const auto& f : frags) EXPECT_EQ(f, value);
}

TEST(ReedSolomonTest, NoParityDegenerateKEqualsN) {
  ReedSolomon rs(4, 4);
  const Bytes value = random_value(64, 11);
  const auto frags = rs.encode(value);
  std::vector<IndexedFragment> input;
  for (int i = 0; i < 4; ++i) input.push_back({i, &frags[i]});
  EXPECT_EQ(rs.decode(input, value.size()), value);
}

// Parameterized sweep over (k, n) shapes: roundtrip via a random k-subset.
class ReedSolomonParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReedSolomonParamTest, RoundTripRandomSubset) {
  const auto [k, n] = GetParam();
  ReedSolomon rs(k, n);
  const Bytes value =
      random_value(1024 + static_cast<size_t>(k * 37 + n),
                   static_cast<uint64_t>(k * 1000 + n));
  const auto frags = rs.encode(value);
  ASSERT_EQ(frags.size(), static_cast<size_t>(n));

  Rng rng(static_cast<uint64_t>(n * 257 + k));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> indices(static_cast<size_t>(n));
    std::iota(indices.begin(), indices.end(), 0);
    std::shuffle(indices.begin(), indices.end(), rng.engine());
    indices.resize(static_cast<size_t>(k));
    std::vector<IndexedFragment> input;
    for (int i : indices) input.push_back({i, &frags[static_cast<size_t>(i)]});
    EXPECT_EQ(rs.decode(input, value.size()), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodeShapes, ReedSolomonParamTest,
    ::testing::Values(std::pair{1, 2}, std::pair{2, 3}, std::pair{2, 6},
                      std::pair{3, 5}, std::pair{4, 12}, std::pair{6, 9},
                      std::pair{8, 12}, std::pair{10, 14}, std::pair{16, 20},
                      std::pair{4, 36}, std::pair{32, 48}));

}  // namespace
}  // namespace pahoehoe::erasure
