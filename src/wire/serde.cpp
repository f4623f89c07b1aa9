#include "wire/serde.h"

#include <algorithm>
#include <cstring>

namespace pahoehoe::wire {

namespace {
constexpr size_t kMaxLengthPrefix = 1u << 30;  // 1 GiB sanity bound
}

Writer::Writer(size_t capacity) {
  out_.reserve(capacity);
  out_.resize(std::min(capacity, kReserve));
}

void Writer::grow(size_t count) {
  // Zero the rest of the reservation first; past it, the vector grows
  // geometrically.
  out_.resize(std::max(out_.capacity(), used_ + count));
}

void Writer::append(const uint8_t* p, size_t count) {
  if (count == 0) return;
  if (count <= out_.size() - used_) {
    std::memcpy(out_.data() + used_, p, count);
    used_ += count;
    return;
  }
  // A fragment: copy it in without zeroing its room first.
  out_.resize(used_);
  out_.insert(out_.end(), p, p + count);
  used_ = out_.size();
}

void Writer::bytes(const Bytes& v) {
  u32(static_cast<uint32_t>(v.size()));
  append(v.data(), v.size());
}

void Writer::str(const std::string& v) {
  u32(static_cast<uint32_t>(v.size()));
  append(reinterpret_cast<const uint8_t*>(v.data()), v.size());
}

void Reader::fail(const char* what) { throw WireError(what); }

void Reader::fail_truncated(size_t count) const {
  throw WireError("truncated message: need " + std::to_string(count) +
                  " bytes at offset " + std::to_string(pos_) + " of " +
                  std::to_string(data_->size()));
}

Bytes Reader::bytes() {
  uint32_t len = u32();
  if (len > kMaxLengthPrefix) fail("length prefix too large");
  const uint8_t* p = take(len);
  return Bytes(p, p + len);
}

std::string Reader::str() {
  uint32_t len = u32();
  if (len > kMaxLengthPrefix) fail("length prefix too large");
  const uint8_t* p = take(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

Key decode_key(Reader& r) { return Key{r.str()}; }

Timestamp decode_timestamp(Reader& r) {
  Timestamp ts;
  ts.wall_micros = r.i64();
  ts.proxy = r.u32();
  return ts;
}

ObjectVersionId decode_ov(Reader& r) {
  ObjectVersionId ov;
  ov.key = decode_key(r);
  ov.ts = decode_timestamp(r);
  return ov;
}

Policy decode_policy(Reader& r) {
  Policy p;
  p.k = r.u8();
  p.n = r.u8();
  p.max_frags_per_fs = r.u8();
  p.max_frags_per_dc = r.u8();
  p.data_frags_one_dc = r.boolean();
  p.min_frags_for_success = r.u8();
  if (!p.valid()) throw WireError("invalid policy");
  return p;
}

Location decode_location(Reader& r) {
  Location loc;
  loc.fs.value = r.u32();
  loc.disk = r.u8();
  return loc;
}

std::optional<Location> decode_opt_location(Reader& r) {
  if (!r.boolean()) return std::nullopt;
  return decode_location(r);
}

Metadata decode_metadata(Reader& r) {
  Metadata meta;
  meta.policy = decode_policy(r);
  meta.value_size = r.u64();
  const uint16_t count = r.u16();  // u16: bounded even if corrupted
  meta.locs.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    meta.locs.push_back(decode_opt_location(r));
  }
  return meta;
}

}  // namespace pahoehoe::wire
