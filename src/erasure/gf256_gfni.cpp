// GFNI dot-product kernel: VGF2P8AFFINEQB applies each coefficient's 8×8
// bit matrix (Tables::gfni) to 64 source bytes at once, so a product is one
// instruction and a term of the sum one more XOR. Up to eight outputs stay
// in zmm registers per pass over the sources, so a (4, 12) stripe's parity
// is one pass. The last partial vector uses byte-masked loads and stores.
//
// VGF2P8MULB would multiply in AES's field (x^8 + x^4 + x^3 + x + 1,
// 0x11b), not the 0x11d field the code is defined over, so products go
// through the affine form, whose matrix can encode either field. Only this
// translation unit gets -mavx512f -mavx512bw -mgfni.
#include "erasure/gf256_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__GFNI__)

#include <immintrin.h>

#include "erasure/gf256_simd.h"

namespace pahoehoe::gf256::detail {
namespace {

struct Gfni {
  using Vec = __m512i;
  using Src = __m512i;
  using Operand = uint64_t;  // Tables::gfni
  static constexpr size_t kWidth = 64;
  static constexpr size_t kMaxGroup = 8;

  static __mmask64 first(size_t n) { return (__mmask64{1} << n) - 1; }
  static Operand operand(uint8_t c) { return tables().gfni[c]; }
  static Src load(const uint8_t* p) { return _mm512_loadu_si512(p); }
  static Src load_tail(const uint8_t* p, size_t n) {
    return _mm512_maskz_loadu_epi8(first(n), p);
  }
  static Vec mul(Src s, Operand op) {
    return _mm512_gf2p8affine_epi64_epi8(
        s, _mm512_set1_epi64(static_cast<long long>(op)), 0);
  }
  static Vec add(Vec a, Vec b) { return _mm512_xor_si512(a, b); }
  static void store(uint8_t* p, Vec v) { _mm512_storeu_si512(p, v); }
  static void store_tail(uint8_t* p, size_t n, Vec v) {
    _mm512_mask_storeu_epi8(p, first(n), v);
  }
};

}  // namespace

DotProdFn gfni_impl() { return &dot_prod_simd<Gfni>; }

}  // namespace pahoehoe::gf256::detail

#else  // no AVX-512BW + GFNI

namespace pahoehoe::gf256::detail {
DotProdFn gfni_impl() { return nullptr; }
}  // namespace pahoehoe::gf256::detail

#endif
