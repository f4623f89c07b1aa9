// Deterministic random-number generation.
//
// Every source of randomness in a simulation run (latency samples, message
// loss, convergence round jitter, backoff jitter, workload data) draws from
// one seeded generator so the same seed reproduces the same event trace.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

#include "common/check.h"
#include "common/endian.h"

namespace pahoehoe {

/// MT19937-64, word for word the sequence of std::mt19937_64 under the same
/// seed (same 312-word state, same seeding, same tempering). It refills the
/// state a block at a time with a branchless twist, which runs several
/// times faster than libstdc++'s, whose `(y & 1) ? a : 0` compiles to a
/// branch that mispredicts half the time. A bulk draw (generate_le) tempers
/// a whole block in one loop that g++ vectorizes at the baseline ISA.
/// std::mt19937_64 is the oracle the tests compare it against.
class Mt19937_64 {
 public:
  using result_type = uint64_t;

  explicit Mt19937_64(uint64_t seed) {
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      const uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  result_type operator()() {
    if (pos_ == kN) refill();
    return temper(state_[pos_++]);
  }

  /// The next `words` draws, each stored at `out` as 8 little-endian
  /// bytes: the rest of the current block one at a time, then each whole
  /// block refilled and tempered in one pass.
  void generate_le(uint8_t* out, size_t words) {
    for (; words > 0 && pos_ < kN; --words, out += 8) store_le(out, (*this)());
    for (; words >= kN; words -= kN, out += 8 * kN) {
      refill();
      // Tempering into a local block, not into `out`, leaves the loop
      // nothing that may alias, so it vectorizes without a runtime check.
      // The next loop writes every word before any is read.
      std::array<uint64_t, kN> block;
      for (size_t i = 0; i < kN; ++i) block[i] = temper(state_[i]);
      for (size_t i = 0; i < kN; ++i) store_le(out + 8 * i, block[i]);
      pos_ = kN;
    }
    for (; words > 0; --words, out += 8) store_le(out, (*this)());
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;

  static uint64_t temper(uint64_t z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  static uint64_t twist(uint64_t upper, uint64_t lower, uint64_t shifted) {
    const uint64_t y =
        (upper & 0xffffffff80000000ULL) | (lower & 0x7fffffffULL);
    return shifted ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void refill() {
    for (size_t i = 0; i < kN - kM; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (size_t i = kN - kM; i < kN - 1; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    pos_ = 0;
  }

  std::array<uint64_t, kN> state_{};
  size_t pos_ = kN;
};

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi) {
    PAHOEHOE_CHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Raw 64-bit draw (for deriving sub-seeds and filling test data).
  uint64_t next_u64() { return engine_(); }

  /// Fill `out` with raw draws, each word as 8 little-endian bytes; a tail
  /// shorter than 8 bytes takes the low bytes of one more word.
  void fill(std::span<uint8_t> out) {
    engine_.generate_le(out.data(), out.size() / 8);
    size_t i = out.size() / 8 * 8;
    if (i == out.size()) return;
    for (uint64_t word = engine_(); i < out.size(); ++i, word >>= 8) {
      out[i] = static_cast<uint8_t>(word);
    }
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace pahoehoe
