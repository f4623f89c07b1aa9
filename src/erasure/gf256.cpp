#include "erasure/gf256.h"

#include "common/check.h"
#include "erasure/gf256_kernels.h"

namespace pahoehoe::gf256 {
namespace detail {

namespace {

Tables build_tables() {
  Tables t{};
  // Generator 2 over the field reduced by 0x11d.
  uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<uint8_t>(x);
    t.log[static_cast<uint8_t>(x)] = static_cast<uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (int i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // never consulted; log(0) is undefined

  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        t.mul[a][b] = 0;
      } else {
        t.mul[a][b] = t.exp[t.log[a] + t.log[b]];
      }
    }
  }
  t.inv[0] = 0;  // never consulted
  for (int a = 1; a < 256; ++a) {
    t.inv[a] = t.exp[255 - t.log[a]];
  }
  for (int c = 0; c < 256; ++c) {
    for (int i = 0; i < 16; ++i) {
      t.nib[c][static_cast<size_t>(i)] = t.mul[c][i];
      t.nib[c][static_cast<size_t>(16 + i)] = t.mul[c][i << 4];
    }
    // Row i of the matrix (byte 7 - i) collects, for each input bit k,
    // bit i of mul(c, 1 << k): the product is linear in the bits of b.
    uint64_t matrix = 0;
    for (int i = 0; i < 8; ++i) {
      uint64_t row = 0;
      for (int k = 0; k < 8; ++k) {
        row |= static_cast<uint64_t>((t.mul[c][1 << k] >> i) & 1) << k;
      }
      matrix |= row << (8 * (7 - i));
    }
    t.gfni[static_cast<size_t>(c)] = matrix;
  }
  return t;
}

}  // namespace

const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

void dot_prod_scalar(size_t len, size_t nsrc, size_t ndst,
                     const uint8_t* coefs, const uint8_t* const* srcs,
                     uint8_t* const* dsts) {
  const auto& mul = tables().mul;
  for (size_t r = 0; r < ndst; ++r) {
    uint8_t* dst = dsts[r];
    for (size_t j = 0; j < nsrc; ++j) {
      const uint8_t coef = coefs[r * nsrc + j];
      const uint8_t* row = mul[coef].data();
      const uint8_t* src = srcs[j];
      if (j == 0) {
        for (size_t i = 0; i < len; ++i) dst[i] = row[src[i]];
      } else if (coef == 1) {
        // Coefficient 1 needs no table, and 0 adds nothing.
        for (size_t i = 0; i < len; ++i) dst[i] ^= src[i];
      } else if (coef != 0) {
        for (size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
      }
    }
  }
}

}  // namespace detail

uint8_t inverse(uint8_t a) {
  PAHOEHOE_CHECK_MSG(a != 0, "GF(2^8) inverse of zero");
  return detail::tables().inv[a];
}

uint8_t pow(uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const unsigned log_a = t.log[a];
  return t.exp[(log_a * (e % 255ull)) % 255];
}

void dot_prod(std::span<const uint8_t> coefs,
              std::span<const uint8_t* const> srcs,
              std::span<uint8_t* const> dsts, size_t len) {
  PAHOEHOE_CHECK(!srcs.empty() && srcs.size() <= kMaxSources &&
                 coefs.size() == srcs.size() * dsts.size());
  if (len == 0 || dsts.empty()) return;
  detail::active_dot_prod()(len, srcs.size(), dsts.size(), coefs.data(),
                            srcs.data(), dsts.data());
}

void mul_acc(std::span<uint8_t> dst, std::span<const uint8_t> src,
             uint8_t coef) {
  PAHOEHOE_CHECK(dst.size() == src.size());
  if (coef == 0) return;
  const uint8_t coefs[] = {1, coef};
  const uint8_t* const srcs[] = {dst.data(), src.data()};
  uint8_t* const dsts[] = {dst.data()};
  dot_prod(coefs, srcs, dsts, dst.size());
}

}  // namespace pahoehoe::gf256
