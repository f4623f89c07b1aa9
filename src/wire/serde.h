// Binary serialization primitives.
//
// All protocol messages are actually serialized to bytes before they enter
// the simulated network; the byte counts the evaluation reports are the
// sizes produced here. Encoding is little-endian with fixed-width integers
// and u32 length prefixes for variable-size fields.
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

/// Appends fields to one payload buffer. The buffer is reserved up front and
/// each fixed-width field is stored in place, so encoding a message costs
/// one allocation when the reservation holds it.
class Writer {
 public:
  /// Room for every fragment-free message of the paper topology: the
  /// largest, FsConvergeReq and KlsConvergeReq, carry 105 bytes plus the
  /// key (about 112 with the workload's keys).
  static constexpr size_t kReserve = 160;

  Writer() : Writer(kReserve) {}
  /// Reserve `capacity` bytes; a message carrying a fragment reserves
  /// kReserve plus the fragment's length.
  explicit Writer(size_t capacity);

  void u8(uint8_t v) { *room(1) = v; }
  void u16(uint16_t v) { store_le(room(2), v); }
  void u32(uint32_t v) { store_le(room(4), v); }
  void u64(uint64_t v) { store_le(room(8), v); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const Bytes& v);        // u32 length prefix + raw bytes
  void str(const std::string& v);    // u32 length prefix + raw bytes

  /// The bytes written so far.
  const Bytes& data() & {
    out_.resize(used_);
    return out_;
  }
  Bytes take() && {
    out_.resize(used_);
    return std::move(out_);
  }

 private:
  /// Claim `count` bytes at the end of the message, growing past the
  /// reservation only when it is full.
  uint8_t* room(size_t count) {
    if (out_.size() - used_ < count) grow(count);
    uint8_t* p = out_.data() + used_;
    used_ += count;
    return p;
  }
  void grow(size_t count);
  void append(const uint8_t* p, size_t count);

  // [0, used_) is the message; the rest is zeroed room for the next fields.
  Bytes out_;
  size_t used_ = 0;
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

// Domain-type codecs, shared by every message.
void encode(Writer& w, const Key& key);
void encode(Writer& w, const Timestamp& ts);
void encode(Writer& w, const ObjectVersionId& ov);
void encode(Writer& w, const Policy& policy);
void encode(Writer& w, const Location& loc);
void encode(Writer& w, const std::optional<Location>& loc);
void encode(Writer& w, const Metadata& meta);

Key decode_key(Reader& r);
Timestamp decode_timestamp(Reader& r);
ObjectVersionId decode_ov(Reader& r);
Policy decode_policy(Reader& r);
Location decode_location(Reader& r);
std::optional<Location> decode_opt_location(Reader& r);
Metadata decode_metadata(Reader& r);

}  // namespace pahoehoe::wire
