#include "net/trace.h"

#include <cstdio>

namespace pahoehoe::net {

const char* to_string(TraceEvent event) {
  switch (event) {
    case TraceEvent::kSend:
      return "SEND";
    case TraceEvent::kDrop:
      return "DROP";
    case TraceEvent::kDeliver:
      return "DLVR";
  }
  return "?";
}

std::string TraceRecord::to_line() const {
  char line[128];
  std::snprintf(line, sizeof(line), "%12.6fs %s %-5s -> %-5s %-18s %6u B",
                static_cast<double>(time) / kMicrosPerSecond,
                to_string(event), pahoehoe::to_string(from).c_str(),
                pahoehoe::to_string(to).c_str(), wire::to_string(type),
                wire_bytes);
  return line;
}

void Tracer::enable(size_t capacity) {
  enabled_ = true;
  capacity_ = capacity == 0 ? 1 : capacity;
}

void Tracer::record(SimTime time, TraceEvent event, NodeId from, NodeId to,
                    wire::MessageType type, size_t wire_bytes) {
  if (!enabled_) return;
  if (records_.size() == capacity_) {
    records_.pop_front();
    ++overflowed_;
  }
  records_.push_back(TraceRecord{time, event, from, to, type,
                                 static_cast<uint32_t>(wire_bytes)});
}

std::string Tracer::dump(size_t max_lines) const {
  std::string out;
  const size_t start =
      records_.size() > max_lines ? records_.size() - max_lines : 0;
  for (size_t i = start; i < records_.size(); ++i) {
    out += records_[i].to_line();
    out += '\n';
  }
  return out;
}

}  // namespace pahoehoe::net
