#include "common/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/cpu_dispatch.h"
#include "common/sha256_kernels.h"

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

cpu_dispatch::Dispatch<sha256::detail::CompressFn>& dispatch() {
  static cpu_dispatch::Dispatch<sha256::detail::CompressFn> d(
      "PAHOEHOE_SHA256_KERNEL",
      {{"scalar", &compress_scalar, 0},
       {"shani", sha256::detail::shani_impl(),
        cpu_dispatch::kSha | cpu_dispatch::kSse41 | cpu_dispatch::kSsse3}});
  return d;
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::span<const uint8_t> data) {
  PAHOEHOE_CHECK_MSG(!finished_, "Sha256::update after finish");
  const sha256::detail::CompressFn compress = dispatch().fn();
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

  // Append 0x80, then zeros until 8 bytes remain in the last block, then
  // the big-endian bit length: one padding block, or two when the 0x80 and
  // the length do not both fit after the buffered tail.
  std::array<uint8_t, 128> padding{};
  std::memcpy(padding.data(), buffer_.data(), buffered_);
  padding[buffered_] = 0x80;
  const size_t blocks = buffered_ < 56 ? 1 : 2;
  const uint64_t bit_length = total_bytes_ * 8;
  for (size_t i = 0; i < 8; ++i) {
    padding[blocks * 64 - 1 - i] = static_cast<uint8_t>(bit_length >> (i * 8));
  }
  dispatch().fn()(state_.data(), padding.data(), blocks);

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4 + 0] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
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
