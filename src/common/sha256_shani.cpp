// SHA-256 block compression with the x86 SHA extensions (SHA-NI).
//
// SHA256RNDS2 runs two rounds on a state split across two registers, ABEF
// and CDGH; SHA256MSG1/MSG2 extend the message schedule four words at a
// time (W[t-16] + σ0(W[t-15]), then + W[t-7] and σ1(W[t-2])). The result
// is bit-exact with the scalar reference by construction: both compute
// FIPS 180-4. Only this translation unit gets -msha -msse4.1.
#include "common/sha256_kernels.h"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace pahoehoe::sha256::detail {
namespace {

/// Four rounds over message words `w` = W[4j..4j+3].
inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int j) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * j])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// W[4j..4j+3] from the four groups before it, oldest first.
inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

void compress_shani(uint32_t* state, const uint8_t* blocks, size_t count) {
  // Big-endian message words.
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state = A..H; the round instruction wants ABEF and CDGH.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byteswap);
    }
    for (int j = 0; j < 16; j += 4) {
      rounds4(abef, cdgh, w[0], j);
      rounds4(abef, cdgh, w[1], j + 1);
      rounds4(abef, cdgh, w[2], j + 2);
      rounds4(abef, cdgh, w[3], j + 3);
      if (j == 12) break;
      w[0] = next_words(w[0], w[1], w[2], w[3]);
      w[1] = next_words(w[1], w[2], w[3], w[0]);
      w[2] = next_words(w[2], w[3], w[0], w[1]);
      w[3] = next_words(w[3], w[0], w[1], w[2]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xf0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

}  // namespace

CompressFn shani_impl() { return &compress_shani; }

}  // namespace pahoehoe::sha256::detail

#else  // !(__SHA__ && __SSE4_1__)

namespace pahoehoe::sha256::detail {
CompressFn shani_impl() { return nullptr; }
}  // namespace pahoehoe::sha256::detail

#endif
