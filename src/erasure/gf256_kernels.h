// Internal kernel interface between the GF(2^8) dispatcher and the
// per-ISA translation units (gf256_ssse3.cpp, gf256_avx2.cpp and
// gf256_gfni.cpp, each built with its own -m flags so the rest of the
// library stays portable; gf256_simd.h holds the loop they share).
//
// Every kernel computes the same contract as the scalar reference:
//   dsts[r][i] = XOR over j < nsrc of mul(coefs[r * nsrc + j], srcs[j][i])
// for r < ndst and i < len, with nsrc >= 1. The SIMD kernels take the
// outputs in groups that fit in registers: for each vector of bytes they
// load each source once, multiply it into every output of the group, and
// store each output once, without reading it. So with ndst == 1 the output
// may be srcs[0] itself; a later group would read sources an earlier group
// had already written, so with more outputs none may overlap a source.
// Buffers carry no alignment guarantee; vector bodies use unaligned loads
// and stores.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pahoehoe::gf256::detail {

using DotProdFn = void (*)(size_t len, size_t nsrc, size_t ndst,
                           const uint8_t* coefs, const uint8_t* const* srcs,
                           uint8_t* const* dsts);

/// Portable reference kernel: one table-lookup pass per (output, source).
void dot_prod_scalar(size_t len, size_t nsrc, size_t ndst,
                     const uint8_t* coefs, const uint8_t* const* srcs,
                     uint8_t* const* dsts);

/// ISA kernels; nullptr when the toolchain could not compile them (non-x86
/// targets, or a compiler without the -m flags). Runtime CPU support is the
/// dispatcher's problem, not theirs.
DotProdFn ssse3_impl();
DotProdFn avx2_impl();
DotProdFn gfni_impl();

/// The currently installed kernel (initializes dispatch on first use).
DotProdFn active_dot_prod();

}  // namespace pahoehoe::gf256::detail
