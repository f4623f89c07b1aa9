// SHA-256 block compression of 16 messages at once, one per 32-bit lane of
// an AVX-512 register: the multi-buffer structure of ISA-L crypto's
// sha256_mb.
//
// Each working variable a..h is one register holding that variable for all
// 16 messages, so a round is the scalar round written with vector ops: the
// rotations of Σ0, Σ1, σ0 and σ1 are vprord, and each three-way XOR, Ch and
// Maj is one vpternlogd. A block arrives lane-major (one 64-byte load per
// message), so a 16×16 dword transpose makes it word-major and a byte
// shuffle makes it big-endian. Each lane computes FIPS 180-4 on its own
// message, so the result is bit-exact with the scalar reference. Only this
// translation unit gets -mavx512f -mavx512bw.
//
// g++ 12's unmasked vprord, vpsrld, vshufi32x4 and vpunpck* intrinsics (and
// _mm512_broadcast_i32x4) pass an undefined vector as the merge source,
// which trips -Wmaybe-uninitialized (GCC bug 105593). The all-ones
// zero-masked forms used here compile to the same unmasked instructions.
#include "common/sha256_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace pahoehoe::sha256::detail {
namespace {

constexpr __mmask16 kAllDwords = 0xffff;
constexpr __mmask8 kAllQwords = 0xff;

template <int N>
inline __m512i rotr(__m512i x) {
  return _mm512_maskz_ror_epi32(kAllDwords, x, N);
}

template <int N>
inline __m512i shr(__m512i x) {
  return _mm512_maskz_srli_epi32(kAllDwords, x, N);
}

inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

inline __m512i add(__m512i a, __m512i b) { return _mm512_add_epi32(a, b); }

/// Σ0, Σ1, σ0 and σ1 of FIPS 180-4 §4.1.2.
inline __m512i big_sigma0(__m512i x) {
  return xor3(rotr<2>(x), rotr<13>(x), rotr<22>(x));
}
inline __m512i big_sigma1(__m512i x) {
  return xor3(rotr<6>(x), rotr<11>(x), rotr<25>(x));
}
inline __m512i small_sigma0(__m512i x) {
  return xor3(rotr<7>(x), rotr<18>(x), shr<3>(x));
}
inline __m512i small_sigma1(__m512i x) {
  return xor3(rotr<17>(x), rotr<19>(x), shr<10>(x));
}

/// Ch(e, f, g) = e ? f : g and Maj(a, b, c), bitwise.
inline __m512i choose(__m512i e, __m512i f, __m512i g) {
  return _mm512_ternarylogic_epi32(e, f, g, 0xca);
}
inline __m512i majority(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0xe8);
}

/// One round, renaming instead of moving: only d and h change, and the
/// caller rotates the arguments so the next round's h is this round's g.
inline void round(__m512i a, __m512i b, __m512i c, __m512i& d, __m512i e,
                  __m512i f, __m512i g, __m512i& h, __m512i w, int t) {
  const __m512i t1 =
      add(add(h, big_sigma1(e)),
          add(choose(e, f, g),
              add(w, _mm512_set1_epi32(
                         static_cast<int>(kRoundConstants[t])))));
  d = add(d, t1);
  h = add(t1, add(big_sigma0(a), majority(a, b, c)));
}

/// Message words W[0..15] of block `offset` of every lane, word-major and
/// big-endian: w[i] holds word i of all 16 lanes.
inline void load_words(__m512i* w, const uint8_t* const* lanes,
                       size_t offset) {
  __m512i r[kLanes];
#pragma GCC unroll 16
  for (size_t i = 0; i < kLanes; ++i) {
    r[i] = _mm512_loadu_si512(lanes[i] + offset);
  }
  // Interleave dwords of row pairs, then qwords of those pairs: afterwards
  // 128-bit chunk c of r[4g + j] holds word 4c + j of rows 4g..4g+3.
  __m512i t[kLanes];
#pragma GCC unroll 8
  for (size_t i = 0; i < kLanes; i += 2) {
    t[i] = _mm512_maskz_unpacklo_epi32(kAllDwords, r[i], r[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_epi32(kAllDwords, r[i], r[i + 1]);
  }
#pragma GCC unroll 4
  for (size_t i = 0; i < kLanes; i += 4) {
    r[i] = _mm512_maskz_unpacklo_epi64(kAllQwords, t[i], t[i + 2]);
    r[i + 1] = _mm512_maskz_unpackhi_epi64(kAllQwords, t[i], t[i + 2]);
    r[i + 2] = _mm512_maskz_unpacklo_epi64(kAllQwords, t[i + 1], t[i + 3]);
    r[i + 3] = _mm512_maskz_unpackhi_epi64(kAllQwords, t[i + 1], t[i + 3]);
  }
  // A 4×4 transpose of 128-bit chunks across r[j], r[4+j], r[8+j], r[12+j]
  // gathers word 4c + j of all 16 rows.
  const __m512i byteswap =
      _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203);
#pragma GCC unroll 4
  for (size_t j = 0; j < 4; ++j) {
    const __m512i ab_lo =
        _mm512_maskz_shuffle_i32x4(kAllDwords, r[j], r[4 + j], 0x44);
    const __m512i ab_hi =
        _mm512_maskz_shuffle_i32x4(kAllDwords, r[j], r[4 + j], 0xee);
    const __m512i cd_lo =
        _mm512_maskz_shuffle_i32x4(kAllDwords, r[8 + j], r[12 + j], 0x44);
    const __m512i cd_hi =
        _mm512_maskz_shuffle_i32x4(kAllDwords, r[8 + j], r[12 + j], 0xee);
    w[j] = _mm512_shuffle_epi8(
        _mm512_maskz_shuffle_i32x4(kAllDwords, ab_lo, cd_lo, 0x88), byteswap);
    w[4 + j] = _mm512_shuffle_epi8(
        _mm512_maskz_shuffle_i32x4(kAllDwords, ab_lo, cd_lo, 0xdd), byteswap);
    w[8 + j] = _mm512_shuffle_epi8(
        _mm512_maskz_shuffle_i32x4(kAllDwords, ab_hi, cd_hi, 0x88), byteswap);
    w[12 + j] = _mm512_shuffle_epi8(
        _mm512_maskz_shuffle_i32x4(kAllDwords, ab_hi, cd_hi, 0xdd), byteswap);
  }
}

/// W[t] for t ≥ 16 in the 16-word ring `w`, replacing W[t - 16].
inline __m512i next_word(__m512i* w, int t) {
  __m512i& slot = w[t & 15];
  slot = add(add(slot, small_sigma0(w[(t - 15) & 15])),
             add(w[(t - 7) & 15], small_sigma1(w[(t - 2) & 15])));
  return slot;
}

void compress_x16(LaneStates& states, const uint8_t* const* lanes,
                  size_t count) {
  __m512i s[8];
  for (int i = 0; i < 8; ++i) s[i] = _mm512_load_si512(states.words[i]);

  for (size_t block = 0; block < count; ++block) {
    __m512i w[16];
    load_words(w, lanes, 64 * block);
    __m512i a = s[0], b = s[1], c = s[2], d = s[3];
    __m512i e = s[4], f = s[5], g = s[6], h = s[7];
#pragma GCC unroll 8
    for (int t = 0; t < 64; t += 8) {
      const auto word = [&](int i) {
        return t + i < 16 ? w[t + i] : next_word(w, t + i);
      };
      round(a, b, c, d, e, f, g, h, word(0), t);
      round(h, a, b, c, d, e, f, g, word(1), t + 1);
      round(g, h, a, b, c, d, e, f, word(2), t + 2);
      round(f, g, h, a, b, c, d, e, word(3), t + 3);
      round(e, f, g, h, a, b, c, d, word(4), t + 4);
      round(d, e, f, g, h, a, b, c, word(5), t + 5);
      round(c, d, e, f, g, h, a, b, word(6), t + 6);
      round(b, c, d, e, f, g, h, a, word(7), t + 7);
    }
    s[0] = add(s[0], a);
    s[1] = add(s[1], b);
    s[2] = add(s[2], c);
    s[3] = add(s[3], d);
    s[4] = add(s[4], e);
    s[5] = add(s[5], f);
    s[6] = add(s[6], g);
    s[7] = add(s[7], h);
  }

  for (int i = 0; i < 8; ++i) _mm512_store_si512(states.words[i], s[i]);
}

}  // namespace

CompressX16Fn x16_impl() { return &compress_x16; }

}  // namespace pahoehoe::sha256::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace pahoehoe::sha256::detail {
CompressX16Fn x16_impl() { return nullptr; }
}  // namespace pahoehoe::sha256::detail

#endif
