// AVX2 split-nibble dot-product kernel (VPSHUFB, 32 bytes per step).
//
// Same formulation as the SSSE3 kernel with the 16-entry tables broadcast
// to both 128-bit lanes (VPSHUFB shuffles within lanes, which is exactly
// what the nibble lookup wants). Up to four outputs stay in registers per
// pass over the sources. Only this translation unit gets -mavx2.
#include "erasure/gf256_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <cstring>

#include "erasure/gf256_simd.h"

namespace pahoehoe::gf256::detail {
namespace {

struct Avx2 {
  using Vec = __m256i;
  struct Src {
    __m256i lo, hi;  // each byte's low and high nibble
  };
  using Operand = std::array<uint8_t, 32>;  // Tables::nib
  static constexpr size_t kWidth = 32;
  static constexpr size_t kMaxGroup = 4;

  static Operand operand(uint8_t c) { return tables().nib[c]; }
  static Src load(const uint8_t* p) {
    const __m256i mask = _mm256_set1_epi8(0x0f);
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return {_mm256_and_si256(s, mask),
            _mm256_and_si256(_mm256_srli_epi16(s, 4), mask)};
  }
  static Src load_tail(const uint8_t* p, size_t n) {
    alignas(32) uint8_t buf[kWidth] = {};
    std::memcpy(buf, p, n);
    return load(buf);
  }
  static Vec mul(const Src& s, const Operand& op) {
    const auto table = [](const uint8_t* half) {
      return _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(half)));
    };
    return _mm256_xor_si256(_mm256_shuffle_epi8(table(op.data()), s.lo),
                            _mm256_shuffle_epi8(table(op.data() + 16), s.hi));
  }
  static Vec add(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
  static void store(uint8_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static void store_tail(uint8_t* p, size_t n, Vec v) {
    alignas(32) uint8_t buf[kWidth];
    store(buf, v);
    std::memcpy(p, buf, n);
  }
};

}  // namespace

DotProdFn avx2_impl() { return &dot_prod_simd<Avx2>; }

}  // namespace pahoehoe::gf256::detail

#else  // !__AVX2__

namespace pahoehoe::gf256::detail {
DotProdFn avx2_impl() { return nullptr; }
}  // namespace pahoehoe::gf256::detail

#endif
