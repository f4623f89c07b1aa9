// The dot-product loop every SIMD kernel shares. gf256_ssse3.cpp,
// gf256_avx2.cpp and gf256_gfni.cpp each include this header under their
// own -m flags and instantiate `dot_prod_simd<Ops>` with a struct of vector
// operations. Everything here has internal linkage, so no copy compiled for
// one ISA can be the one the linker keeps for another.
//
// `Ops` supplies, as static members:
//   Vec        an output accumulator;
//   Src        a loaded source vector, in the form `mul` takes;
//   Operand    what multiplies by one coefficient (nibble tables, a matrix);
//   kWidth     bytes per vector;
//   kMaxGroup  outputs held in registers per pass over the sources;
//   operand(c)              c's Operand, from tables();
//   load(p) / load_tail(p, n)   a whole vector / the n < kWidth bytes at p;
//   mul(s, op) and add(a, b)    a product, and XOR;
//   store(p, v) / store_tail(p, n, v)   the matching stores.
// The contract is gf256_kernels.h's: each vector of each source is loaded
// once, each output vector stored once and never read.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"

namespace pahoehoe::gf256::detail {
namespace {

// A group's operands are gathered into this many slots, so a group takes at
// most kOperandSlots / nsrc outputs (all kMaxGroup while kMaxGroup * nsrc
// fits).
constexpr size_t kOperandSlots = 256;

// One vector (or, when kTail, the first n bytes of one) of outputs
// dsts[0..G) at offset i. ops[r * nsrc + j] multiplies source j into
// output r.
template <class Ops, size_t G, bool kTail>
[[gnu::always_inline]] inline void dot_vector(
    size_t i, size_t n, size_t nsrc, const typename Ops::Operand* ops,
    const uint8_t* const* srcs, uint8_t* const* dsts) {
  const auto load = [&](size_t j) {
    if constexpr (kTail) {
      return Ops::load_tail(srcs[j] + i, n);
    } else {
      return Ops::load(srcs[j] + i);
    }
  };
  typename Ops::Vec acc[G];
  typename Ops::Src s = load(0);
  #pragma GCC unroll 8
  for (size_t r = 0; r < G; ++r) acc[r] = Ops::mul(s, ops[r * nsrc]);
  for (size_t j = 1; j < nsrc; ++j) {
    s = load(j);
    #pragma GCC unroll 8
    for (size_t r = 0; r < G; ++r) {
      acc[r] = Ops::add(acc[r], Ops::mul(s, ops[r * nsrc + j]));
    }
  }
  #pragma GCC unroll 8
  for (size_t r = 0; r < G; ++r) {
    if constexpr (kTail) {
      Ops::store_tail(dsts[r] + i, n, acc[r]);
    } else {
      Ops::store(dsts[r] + i, acc[r]);
    }
  }
}

template <class Ops, size_t G>
void dot_group(size_t len, size_t nsrc, const typename Ops::Operand* ops,
               const uint8_t* const* srcs, uint8_t* const* dsts) {
  size_t i = 0;
  for (; i + Ops::kWidth <= len; i += Ops::kWidth) {
    dot_vector<Ops, G, false>(i, Ops::kWidth, nsrc, ops, srcs, dsts);
  }
  if (i < len) dot_vector<Ops, G, true>(i, len - i, nsrc, ops, srcs, dsts);
}

// dot_group<Ops, group>, for 1 <= group <= G.
template <class Ops, size_t G>
void dot_groups(size_t group, size_t len, size_t nsrc,
                const typename Ops::Operand* ops, const uint8_t* const* srcs,
                uint8_t* const* dsts) {
  if constexpr (G > 1) {
    if (group < G) {
      return dot_groups<Ops, G - 1>(group, len, nsrc, ops, srcs, dsts);
    }
  }
  dot_group<Ops, G>(len, nsrc, ops, srcs, dsts);
}

template <class Ops>
void dot_prod_simd(size_t len, size_t nsrc, size_t ndst, const uint8_t* coefs,
                   const uint8_t* const* srcs, uint8_t* const* dsts) {
  // Local copies that no store through an output can alias: the vector loop
  // then reloads no pointer, and loads each product's operand directly
  // instead of a coefficient and then its table.
  const uint8_t* src[kMaxSources] = {};
  std::copy_n(srcs, nsrc, src);
  typename Ops::Operand ops[kOperandSlots] = {};
  const size_t max_group = std::min(Ops::kMaxGroup, kOperandSlots / nsrc);
  for (size_t g = 0; g < ndst; g += max_group) {
    const size_t group = std::min(ndst - g, max_group);
    uint8_t* dst[Ops::kMaxGroup] = {};
    std::copy_n(dsts + g, group, dst);
    for (size_t e = 0; e < group * nsrc; ++e) {
      ops[e] = Ops::operand(coefs[g * nsrc + e]);
    }
    dot_groups<Ops, Ops::kMaxGroup>(group, len, nsrc, ops, src, dst);
  }
}

}  // namespace
}  // namespace pahoehoe::gf256::detail
