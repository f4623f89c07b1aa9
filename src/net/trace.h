// Structured message tracing.
//
// When enabled, the Network records every send/drop/deliver into a bounded
// ring buffer. Used for debugging protocol issues ("what did this FS
// actually receive before it gave up?"), for trace-equality determinism
// tests, and by scenario_cli --trace.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/types.h"
#include "wire/messages.h"

namespace pahoehoe::net {

enum class TraceEvent : uint8_t {
  kSend = 0,
  kDrop = 1,     ///< a fault rule consumed the message at send time
  kDeliver = 2,
};

const char* to_string(TraceEvent event);

struct TraceRecord {
  SimTime time = 0;
  TraceEvent event = TraceEvent::kSend;
  NodeId from;
  NodeId to;
  wire::MessageType type{};
  uint32_t wire_bytes = 0;

  std::string to_line() const;
  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Bounded ring buffer of trace records. Disabled (and free) by default.
class Tracer {
 public:
  /// Start recording, keeping at most `capacity` most-recent records.
  void enable(size_t capacity = 65536);
  bool enabled() const { return enabled_; }

  void record(SimTime time, TraceEvent event, NodeId from, NodeId to,
              wire::MessageType type, size_t wire_bytes);

  const std::deque<TraceRecord>& records() const { return records_; }
  /// Records discarded because the ring was full.
  uint64_t overflowed() const { return overflowed_; }

  /// The most recent `max_lines` records, one line each.
  std::string dump(size_t max_lines = 100) const;

 private:
  bool enabled_ = false;
  size_t capacity_ = 0;
  uint64_t overflowed_ = 0;
  std::deque<TraceRecord> records_;
};

}  // namespace pahoehoe::net
