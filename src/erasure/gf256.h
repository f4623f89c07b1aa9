// Arithmetic over GF(2^8) with the AES/Reed-Solomon-conventional reduction
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), generator 2.
//
// Single multiplies are a 64 KiB table lookup. The bulk dot product
// (`dot_prod`, the one loop of every encode, decode and regeneration)
// dispatches at runtime to the widest available kernel: split low/high-
// nibble 16-entry product tables applied with PSHUFB (SSSE3) or VPSHUFB
// (AVX2), the ISA-L/Plank FAST'09 technique, or each coefficient's 8×8 bit
// matrix applied with VGF2P8AFFINEQB (AVX-512BW + GFNI). The scalar table
// loop stays as the portable fallback and bit-exactness oracle. Every
// kernel produces byte-identical output (see DESIGN.md §10), so simulation
// results never depend on the host CPU.
// `PAHOEHOE_GF256_KERNEL=scalar|ssse3|avx2|gfni|auto` overrides the choice
// for testing and benchmarking; `force_kernel` does the same in-process.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace pahoehoe::gf256 {

/// Addition and subtraction in GF(2^8) are both XOR.
constexpr uint8_t add(uint8_t a, uint8_t b) { return a ^ b; }
constexpr uint8_t sub(uint8_t a, uint8_t b) { return a ^ b; }

namespace detail {
struct Tables {
  std::array<uint8_t, 256> log;            // log[0] unused
  std::array<uint8_t, 512> exp;            // doubled to skip the mod 255
  std::array<std::array<uint8_t, 256>, 256> mul;
  std::array<uint8_t, 256> inv;            // inv[0] unused
  // Split-nibble product tables for the SIMD kernels:
  // nib[c][i] = mul(c, i) and nib[c][16 + i] = mul(c, i << 4) for i < 16,
  // so mul(c, b) == nib[c][b & 0xf] ^ nib[c][16 + (b >> 4)].
  alignas(32) std::array<std::array<uint8_t, 32>, 256> nib;
  // Multiplication by c as the 8×8 bit matrix VGF2P8AFFINEQB applies:
  // byte 7 - i of gfni[c] selects the bits of b whose products by c have
  // bit i set, so bit i of mul(c, b) == parity(byte 7 - i & b).
  std::array<uint64_t, 256> gfni;
};
const Tables& tables();
}  // namespace detail

/// Product of a and b.
inline uint8_t mul(uint8_t a, uint8_t b) {
  return detail::tables().mul[a][b];
}

/// Multiplicative inverse of a; a must be nonzero.
uint8_t inverse(uint8_t a);

/// Quotient a/b; b must be nonzero.
inline uint8_t div(uint8_t a, uint8_t b) { return mul(a, inverse(b)); }

/// a raised to the power e (e >= 0).
uint8_t pow(uint8_t a, unsigned e);

/// The dot product of every encode, decode and regeneration:
/// dsts[r][i] = sum over j of coefs[r * srcs.size() + j] * srcs[j][i], for
/// each output r and each byte i < len. `coefs` holds dsts.size() rows of
/// srcs.size() coefficients. The SIMD kernels write each output byte once
/// and never read an output. With one output, dsts[0] may be srcs[0] itself
/// (mul_acc's form); otherwise no output may overlap a source. All kernels
/// are bit-exact; buffers need no alignment.
void dot_prod(std::span<const uint8_t> coefs,
              std::span<const uint8_t* const> srcs,
              std::span<uint8_t* const> dsts, size_t len);

/// The most sources one dot_prod call takes: a code's k is at most 255.
inline constexpr size_t kMaxSources = 255;

/// dst[i] ^= coef * src[i] for all i: the two-source dot product with dst
/// as source 0 and coefficient 1. coef == 0 is a no-op.
void mul_acc(std::span<uint8_t> dst, std::span<const uint8_t> src,
             uint8_t coef);

// --- dot_prod kernel selection ---------------------------------------------

enum class Kernel : uint8_t { kScalar = 0, kSsse3 = 1, kAvx2 = 2, kGfni = 3 };
inline constexpr int kKernelCount = 4;

/// "scalar", "ssse3", "avx2" or "gfni".
const char* to_string(Kernel k);

/// Inverse of to_string; nullopt for anything else (including "auto" —
/// auto-selection is expressed by reset_kernel / the env default).
std::optional<Kernel> parse_kernel(std::string_view name);

/// Whether the kernel's code was compiled into this binary at all.
bool kernel_compiled(Kernel k);

/// Compiled AND supported by the CPU we are running on.
bool kernel_supported(Kernel k);

/// Every supported kernel, narrowest (scalar) first.
std::vector<Kernel> supported_kernels();

/// The widest supported kernel — what auto-selection picks.
Kernel best_kernel();

/// The kernel dot_prod currently dispatches to.
Kernel active_kernel();

/// Force dispatch to `k` (must be supported) until reset_kernel(). For
/// tests and benches; call it only while no other thread is encoding.
void force_kernel(Kernel k);

/// Back to the default choice: $PAHOEHOE_GF256_KERNEL if set, else best.
void reset_kernel();

}  // namespace pahoehoe::gf256
