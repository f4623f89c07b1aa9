// Binary serialization primitives.
//
// Every message has one field walk (`write`) that both serializes it (into
// a Writer) and sizes it (into a SizeCounter), so the byte counts the
// evaluation reports are the sizes the serializer itself produces, although
// in-process nodes exchange messages as values. Encoding is little-endian
// with fixed-width integers and u32 length prefixes for variable-size
// fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/endian.h"
#include "common/types.h"

namespace pahoehoe::wire {

/// Thrown by Reader on truncated or malformed input.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fields to one payload buffer.
class Writer {
 public:
  Writer() = default;
  /// Reserve `capacity` bytes (a message reserves its counted size).
  explicit Writer(size_t capacity) { out_.reserve(capacity); }

  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v) { fixed(v); }
  void u32(uint32_t v) { fixed(v); }
  void u64(uint64_t v) { fixed(v); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const Bytes& v);        // u32 length prefix + raw bytes
  void str(const std::string& v);    // u32 length prefix + raw bytes

  /// The bytes written so far.
  const Bytes& data() const { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  // Grow, then store in place: GCC 12 reports a range insert of these few
  // bytes as an overflow (-Wstringop-overflow) in the TSan build.
  template <typename T>
  void fixed(T v) {
    const size_t at = out_.size();
    out_.resize(at + sizeof(T));
    store_le(out_.data() + at, v);
  }

  Bytes out_;
};

/// A sink with Writer's field methods that only counts: run a field walk
/// into it to get the size that walk serializes to.
class SizeCounter {
 public:
  void u8(uint8_t) { size_ += 1; }
  void u16(uint16_t) { size_ += 2; }
  void u32(uint32_t) { size_ += 4; }
  void u64(uint64_t) { size_ += 8; }
  void i64(int64_t) { size_ += 8; }
  void boolean(bool) { size_ += 1; }
  void bytes(const Bytes& v) { size_ += 4 + v.size(); }
  void str(const std::string& v) { size_ += 4 + v.size(); }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(&data) {}

  uint8_t u8() { return *take(1); }
  uint16_t u16() { return load_le<uint16_t>(take(2)); }
  uint32_t u32() { return load_le<uint32_t>(take(4)); }
  uint64_t u64() { return load_le<uint64_t>(take(8)); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  bool boolean() {
    const uint8_t v = u8();
    if (v > 1) fail("invalid boolean byte");
    return v == 1;
  }
  Bytes bytes();
  std::string str();

  /// True iff every byte has been consumed.
  bool exhausted() const { return pos_ == data_->size(); }
  /// Throws WireError unless exhausted (call after decoding a message).
  void expect_exhausted() const {
    if (!exhausted()) fail("trailing bytes after message");
  }

 private:
  const uint8_t* take(size_t count) {
    if (count > data_->size() - pos_) fail_truncated(count);
    const uint8_t* p = data_->data() + pos_;
    pos_ += count;
    return p;
  }
  // Out of line, so the inline checks stay small.
  [[noreturn]] static void fail(const char* what);
  [[noreturn]] void fail_truncated(size_t count) const;

  const Bytes* data_;
  size_t pos_ = 0;
};

// Domain-type field walks, shared by every message. `w` is a Writer or a
// SizeCounter.
template <class Sink>
void encode(Sink& w, const Key& key) {
  w.str(key.value);
}

template <class Sink>
void encode(Sink& w, const Timestamp& ts) {
  w.i64(ts.wall_micros);
  w.u32(ts.proxy);
}

template <class Sink>
void encode(Sink& w, const ObjectVersionId& ov) {
  encode(w, ov.key);
  encode(w, ov.ts);
}

template <class Sink>
void encode(Sink& w, const Policy& policy) {
  w.u8(policy.k);
  w.u8(policy.n);
  w.u8(policy.max_frags_per_fs);
  w.u8(policy.max_frags_per_dc);
  w.boolean(policy.data_frags_one_dc);
  w.u8(policy.min_frags_for_success);
}

template <class Sink>
void encode(Sink& w, const Location& loc) {
  w.u32(loc.fs.value);
  w.u8(loc.disk);
}

template <class Sink>
void encode(Sink& w, const std::optional<Location>& loc) {
  w.boolean(loc.has_value());
  if (loc.has_value()) encode(w, *loc);
}

template <class Sink>
void encode(Sink& w, const Metadata& meta) {
  encode(w, meta.policy);
  w.u64(meta.value_size);
  w.u16(static_cast<uint16_t>(meta.locs.size()));
  for (const auto& loc : meta.locs) encode(w, loc);
}

Key decode_key(Reader& r);
Timestamp decode_timestamp(Reader& r);
ObjectVersionId decode_ov(Reader& r);
Policy decode_policy(Reader& r);
Location decode_location(Reader& r);
std::optional<Location> decode_opt_location(Reader& r);
Metadata decode_metadata(Reader& r);

}  // namespace pahoehoe::wire
