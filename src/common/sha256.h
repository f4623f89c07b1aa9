// Minimal SHA-256 (FIPS 180-4) used for fragment integrity.
//
// The paper (§3.1) notes Pahoehoe detects disk corruption using hashes but
// elides the mechanism; we store a digest beside every fragment and verify
// it on retrieval and during scrubs.
//
// Whole 64-byte blocks go to a block kernel chosen at runtime through the
// shared CPU dispatch (common/cpu_dispatch.h): the x86 SHA extensions
// (SHA-NI) where the CPU has them, with the scalar compression function
// kept as the portable fallback and bit-exactness oracle. A batch of
// equal-length messages (a stripe's n fragments) can instead run on the
// 16-lane AVX-512 kernel, one message per lane (`hash_many`). Every kernel
// produces the same digest (see DESIGN.md §10), so callers never see which
// one ran. `PAHOEHOE_SHA256_KERNEL=scalar|shani|avx512|auto` overrides the
// choice for testing and benchmarking; `sha256::force_kernel` does the
// same in-process. `hash` and `hash_many` open a profiler phase named by
// the kernel that ran (`sha256[scalar|shani|avx512]`, obs/prof.h).
#pragma once

#include <array>
#include <cstddef>
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

  /// `digests[i] = hash(inputs[i])` for every i (the spans have one size).
  /// Under the avx512 kernel, equal-length inputs run 16 to a call on the
  /// lanes while at least sha256::kLaneCrossover of them remain; the rest,
  /// and every input of an unequal batch, run one at a time on the
  /// single-stream kernel.
  static void hash_many(std::span<const std::span<const uint8_t>> inputs,
                        std::span<Digest> digests);

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

/// kAvx512 is the 16-lane batch kernel. It hashes single messages, and
/// batches below the crossover, on SHA-NI where the CPU has it, else on
/// scalar.
enum class Kernel : uint8_t { kScalar = 0, kShaNi = 1, kAvx512 = 2 };

/// The fewest equal-length messages a 16-lane call is worth. One call costs
/// the same whatever the lane count: on the development host about as
/// much as 8 SHA-NI calls on one message each (bench/micro_erasure
/// BM_Sha256Stripe).
inline constexpr size_t kLaneCrossover = 8;

/// "scalar", "shani" or "avx512".
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
