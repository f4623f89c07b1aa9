#include "wire/serde.h"

namespace pahoehoe::wire {

namespace {
constexpr size_t kMaxLengthPrefix = 1u << 30;  // 1 GiB sanity bound
}

void Writer::bytes(const Bytes& v) {
  u32(static_cast<uint32_t>(v.size()));
  out_.insert(out_.end(), v.begin(), v.end());
}

void Writer::str(const std::string& v) {
  u32(static_cast<uint32_t>(v.size()));
  out_.insert(out_.end(), v.begin(), v.end());
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
