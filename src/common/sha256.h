// Minimal SHA-256 (FIPS 180-4) used for fragment integrity.
//
// The paper (§3.1) notes Pahoehoe detects disk corruption using hashes but
// elides the mechanism; we store a digest beside every fragment and verify
// it on retrieval and during scrubs.
//
// Whole 64-byte blocks go to a block kernel chosen at runtime through the
// shared CPU dispatch (common/cpu_dispatch.h): the x86 SHA extensions
// (SHA-NI) where the CPU has them, with the scalar compression function
// kept as the portable fallback and bit-exactness oracle. Every kernel
// produces the same digest (see DESIGN.md §10), so callers never see which
// one ran. `PAHOEHOE_SHA256_KERNEL=scalar|shani|auto` overrides the choice
// for testing and benchmarking; `sha256::force_kernel` does the same
// in-process.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pahoehoe {

class Sha256 {
 public:
  using Digest = std::array<uint8_t, 32>;

  Sha256();

  /// Absorb more input. May be called repeatedly.
  void update(std::span<const uint8_t> data);

  /// Finalize and return the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const uint8_t> data);

  /// Lowercase hex rendering of a digest.
  static std::string hex(const Digest& digest);

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  size_t buffered_ = 0;
  uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

// --- block kernel selection -------------------------------------------------

namespace sha256 {

enum class Kernel : uint8_t { kScalar = 0, kShaNi = 1 };

/// "scalar" or "shani".
const char* to_string(Kernel k);

/// Inverse of to_string; nullopt for anything else (including "auto" —
/// auto-selection is expressed by reset_kernel / the env default).
std::optional<Kernel> parse_kernel(std::string_view name);

/// Whether the kernel's code was compiled into this binary at all.
bool kernel_compiled(Kernel k);

/// Compiled AND supported by the CPU we are running on.
bool kernel_supported(Kernel k);

/// Every supported kernel, scalar first.
std::vector<Kernel> supported_kernels();

/// The fastest supported kernel — what auto-selection picks.
Kernel best_kernel();

/// The kernel Sha256 currently dispatches to.
Kernel active_kernel();

/// Force dispatch to `k` (must be supported) until reset_kernel(). For
/// tests and benches; call it only while no other thread is hashing.
void force_kernel(Kernel k);

/// Back to the default choice: $PAHOEHOE_SHA256_KERNEL if set, else best.
void reset_kernel();

}  // namespace sha256
}  // namespace pahoehoe
