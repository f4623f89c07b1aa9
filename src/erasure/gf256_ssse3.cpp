// SSSE3 split-nibble dot-product kernel (PSHUFB over 16-entry product
// tables, 16 bytes per step). Up to four outputs stay in registers per pass
// over the sources.
//
// This translation unit is the only one built with -mssse3; when the
// toolchain can't do that (non-x86), __SSSE3__ stays undefined and the
// impl collapses to a nullptr stub the dispatcher never installs.
#include "erasure/gf256_kernels.h"

#if defined(__SSSE3__)

#include <tmmintrin.h>

#include <array>
#include <cstring>

#include "erasure/gf256_simd.h"

namespace pahoehoe::gf256::detail {
namespace {

struct Ssse3 {
  using Vec = __m128i;
  struct Src {
    __m128i lo, hi;  // each byte's low and high nibble
  };
  using Operand = std::array<uint8_t, 32>;  // Tables::nib
  static constexpr size_t kWidth = 16;
  static constexpr size_t kMaxGroup = 4;

  static __m128i load16(const uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static Operand operand(uint8_t c) { return tables().nib[c]; }
  static Src load(const uint8_t* p) {
    const __m128i mask = _mm_set1_epi8(0x0f);
    const __m128i s = load16(p);
    // srli_epi16 then mask isolates each byte's high nibble (the bits a
    // 16-bit shift drags across byte boundaries are masked off).
    return {_mm_and_si128(s, mask), _mm_and_si128(_mm_srli_epi16(s, 4), mask)};
  }
  static Src load_tail(const uint8_t* p, size_t n) {
    alignas(16) uint8_t buf[kWidth] = {};
    std::memcpy(buf, p, n);
    return load(buf);
  }
  static Vec mul(const Src& s, const Operand& op) {
    return _mm_xor_si128(_mm_shuffle_epi8(load16(op.data()), s.lo),
                         _mm_shuffle_epi8(load16(op.data() + 16), s.hi));
  }
  static Vec add(Vec a, Vec b) { return _mm_xor_si128(a, b); }
  static void store(uint8_t* p, Vec v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static void store_tail(uint8_t* p, size_t n, Vec v) {
    alignas(16) uint8_t buf[kWidth];
    store(buf, v);
    std::memcpy(p, buf, n);
  }
};

}  // namespace

DotProdFn ssse3_impl() { return &dot_prod_simd<Ssse3>; }

}  // namespace pahoehoe::gf256::detail

#else  // !__SSSE3__

namespace pahoehoe::gf256::detail {
DotProdFn ssse3_impl() { return nullptr; }
}  // namespace pahoehoe::gf256::detail

#endif
