#include "common/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/cpu_dispatch.h"
#include "common/sha256_kernels.h"
#include "obs/prof.h"

namespace pahoehoe {
namespace {

using sha256::detail::kRoundConstants;

constexpr uint32_t rotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// The portable reference compression function (FIPS 180-4 §6.2.2), one
/// 64-byte block.
void process_block(uint32_t* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_scalar(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (size_t i = 0; i < count; ++i) process_block(state, blocks + 64 * i);
}

/// One kernel of the family: what runs for one message, and for 16.
struct Impl {
  sha256::detail::CompressFn compress;
  const char* phase;  ///< profiler phase of `compress`
  sha256::detail::CompressX16Fn compress_x16;  ///< nullptr: batches loop
};

constexpr const char* kLanesPhase = "sha256[avx512]";

cpu_dispatch::Dispatch<const Impl*>& dispatch() {
  using namespace cpu_dispatch;
  static constexpr uint32_t kShaNiFeatures = kSha | kSse41 | kSsse3;
  static const Impl scalar{&compress_scalar, "sha256[scalar]", nullptr};
  static const Impl shani{sha256::detail::shani_impl(), "sha256[shani]",
                          nullptr};
  // The lanes kernel hands single messages to the best single-stream one.
  static const Impl& stream =
      shani.compress != nullptr && cpu_has(kShaNiFeatures) ? shani : scalar;
  static const Impl avx512{stream.compress, stream.phase,
                           sha256::detail::x16_impl()};
  static Dispatch<const Impl*> d(
      "PAHOEHOE_SHA256_KERNEL",
      {{"scalar", &scalar, 0},
       {"shani", shani.compress != nullptr ? &shani : nullptr,
        kShaNiFeatures},
       {"avx512", avx512.compress_x16 != nullptr ? &avx512 : nullptr,
        kAvx512f | kAvx512bw}});
  return d;
}

/// The profiler phase to open: nullptr while profiling is off.
const char* phase(const char* name) {
  return obs::prof::enabled() ? name : nullptr;
}

/// The final 1 or 2 blocks of a message of `total_bytes` bytes whose last
/// `tail.size()` (< 64) bytes are `tail`, written to `out` (128 zeroed
/// bytes): the tail, 0x80, zeros until 8 bytes remain in the last block,
/// then the big-endian bit length. Returns the block count.
size_t pad(std::span<const uint8_t> tail, uint64_t total_bytes,
           uint8_t* out) {
  if (!tail.empty()) std::memcpy(out, tail.data(), tail.size());
  out[tail.size()] = 0x80;
  const size_t blocks = tail.size() < 56 ? 1 : 2;
  const uint64_t bit_length = total_bytes * 8;
  for (size_t i = 0; i < 8; ++i) {
    out[blocks * 64 - 1 - i] = static_cast<uint8_t>(bit_length >> (i * 8));
  }
  return blocks;
}

/// Big-endian serialization of a final chaining state.
Sha256::Digest to_digest(const uint32_t* state) {
  Sha256::Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4 + 0] = static_cast<uint8_t>(state[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
  return digest;
}

Sha256::Digest hash_one(std::span<const uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

/// Digests of 1..16 messages of one length, on the lanes: the whole blocks
/// of every message, then one shared padding step, since equal lengths pad
/// alike (the same 0x80 and bit length at the same offsets).
void hash_lanes(sha256::detail::CompressX16Fn compress,
                std::span<const std::span<const uint8_t>> inputs,
                std::span<Sha256::Digest> digests) {
  using sha256::detail::kLanes;
  const size_t used = inputs.size();
  const size_t length = inputs[0].size();
  const size_t whole = length / 64;
  sha256::detail::LaneStates states;
  for (size_t w = 0; w < 8; ++w) {
    std::fill_n(states.words[w], kLanes, sha256::detail::kInitialState[w]);
  }
  // Spare lanes rehash lane 0's bytes; their digests are dropped.
  const uint8_t* lanes[kLanes];
  for (size_t j = 0; j < kLanes; ++j) {
    lanes[j] = inputs[j < used ? j : 0].data();
  }
  if (whole > 0) compress(states, lanes, whole);

  alignas(64) uint8_t padding[kLanes][128] = {};
  size_t pad_blocks = 0;
  for (size_t j = 0; j < used; ++j) {
    pad_blocks = pad(inputs[j].subspan(whole * 64), length, padding[j]);
  }
  for (size_t j = 0; j < kLanes; ++j) lanes[j] = padding[j < used ? j : 0];
  compress(states, lanes, pad_blocks);

  for (size_t j = 0; j < used; ++j) {
    uint32_t state[8];
    for (size_t w = 0; w < 8; ++w) state[w] = states.words[w][j];
    digests[j] = to_digest(state);
  }
}

bool equal_lengths(std::span<const std::span<const uint8_t>> inputs) {
  for (const std::span<const uint8_t>& input : inputs) {
    if (input.size() != inputs[0].size()) return false;
  }
  return true;
}

}  // namespace

Sha256::Sha256() : state_(sha256::detail::kInitialState) {}

void Sha256::update(std::span<const uint8_t> data) {
  PAHOEHOE_CHECK_MSG(!finished_, "Sha256::update after finish");
  const sha256::detail::CompressFn compress = dispatch().fn()->compress;
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finish() {
  PAHOEHOE_CHECK_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;
  std::array<uint8_t, 128> padding{};
  const size_t blocks =
      pad(std::span(buffer_.data(), buffered_), total_bytes_, padding.data());
  dispatch().fn()->compress(state_.data(), padding.data(), blocks);
  return to_digest(state_.data());
}

Sha256::Digest Sha256::hash(std::span<const uint8_t> data) {
  // lint:prof-ok(the phase ids are string literals in the kernel table)
  obs::ProfScope prof(phase(dispatch().fn()->phase));
  return hash_one(data);
}

void Sha256::hash_many(std::span<const std::span<const uint8_t>> inputs,
                       std::span<Digest> digests) {
  PAHOEHOE_CHECK_MSG(inputs.size() == digests.size(),
                     "hash_many needs one digest slot per input");
  using sha256::detail::kLanes;
  const Impl& impl = *dispatch().fn();
  // Inputs [0, laned) go to the lanes: whole groups of 16, and a last
  // group if it reaches the crossover.
  size_t laned = 0;
  if (impl.compress_x16 != nullptr && equal_lengths(inputs)) {
    laned = inputs.size() / kLanes * kLanes;
    if (inputs.size() - laned >= sha256::kLaneCrossover) laned = inputs.size();
  }
  if (laned > 0) {
    // lint:prof-ok(kLanesPhase is a string literal)
    obs::ProfScope prof(phase(kLanesPhase));
    for (size_t i = 0; i < laned; i += kLanes) {
      const size_t used = std::min(kLanes, laned - i);
      hash_lanes(impl.compress_x16, inputs.subspan(i, used),
                 digests.subspan(i, used));
    }
  }
  if (laned < inputs.size()) {
    // lint:prof-ok(the phase ids are string literals in the kernel table)
    obs::ProfScope prof(phase(impl.phase));
    for (size_t i = laned; i < inputs.size(); ++i) {
      digests[i] = hash_one(inputs[i]);
    }
  }
}

std::string Sha256::hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

namespace sha256 {
namespace {

int index(Kernel k) { return static_cast<int>(k); }

}  // namespace

const char* to_string(Kernel k) { return dispatch().name(index(k)); }

std::optional<Kernel> parse_kernel(std::string_view name) {
  const std::optional<int> k = dispatch().parse(name);
  if (!k.has_value()) return std::nullopt;
  return static_cast<Kernel>(*k);
}

bool kernel_compiled(Kernel k) { return dispatch().compiled(index(k)); }

bool kernel_supported(Kernel k) { return dispatch().supported(index(k)); }

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (int k : dispatch().supported_kernels()) {
    out.push_back(static_cast<Kernel>(k));
  }
  return out;
}

Kernel best_kernel() { return static_cast<Kernel>(dispatch().best()); }

Kernel active_kernel() { return static_cast<Kernel>(dispatch().active()); }

void force_kernel(Kernel k) { dispatch().force(index(k)); }

void reset_kernel() { dispatch().reset(); }

}  // namespace sha256
}  // namespace pahoehoe
