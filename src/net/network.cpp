#include "net/network.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "obs/prof.h"

namespace pahoehoe::net {

bool NodeBlackout::should_drop(NodeId from, NodeId to,
                               wire::MessageType /*type*/, SimTime now,
                               Rng& /*rng*/) {
  if (now < start_ || now >= end_) return false;
  return from == node_ || to == node_;
}

bool Partition::should_drop(NodeId from, NodeId to,
                            wire::MessageType /*type*/, SimTime now,
                            Rng& /*rng*/) {
  if (now < start_ || now >= end_) return false;
  const bool from_in = group_.count(from) > 0;
  const bool to_in = group_.count(to) > 0;
  return from_in != to_in;
}

bool UniformLoss::should_drop(NodeId /*from*/, NodeId /*to*/,
                              wire::MessageType /*type*/, SimTime /*now*/,
                              Rng& rng) {
  return rng.chance(rate_);
}

bool TypedDrop::should_drop(NodeId /*from*/, NodeId /*to*/,
                            wire::MessageType type, SimTime /*now*/,
                            Rng& /*rng*/) {
  return type == type_;
}

void NetworkStats::record_sent(wire::MessageType type, size_t bytes) {
  auto& s = by_type_[static_cast<size_t>(type)];
  s.sent_count += 1;
  s.sent_bytes += bytes;
}

void NetworkStats::record_dropped(wire::MessageType type) {
  by_type_[static_cast<size_t>(type)].dropped_count += 1;
}

void NetworkStats::record_delivered(wire::MessageType type) {
  by_type_[static_cast<size_t>(type)].delivered_count += 1;
}

const NetworkStats::TypeStats& NetworkStats::of(wire::MessageType type) const {
  return by_type_[static_cast<size_t>(type)];
}

uint64_t NetworkStats::total_sent_count() const {
  uint64_t total = 0;
  for (const auto& s : by_type_) total += s.sent_count;
  return total;
}

uint64_t NetworkStats::total_sent_bytes() const {
  uint64_t total = 0;
  for (const auto& s : by_type_) total += s.sent_bytes;
  return total;
}

uint64_t NetworkStats::total_dropped_count() const {
  uint64_t total = 0;
  for (const auto& s : by_type_) total += s.dropped_count;
  return total;
}

uint64_t NetworkStats::total_delivered_count() const {
  uint64_t total = 0;
  for (const auto& s : by_type_) total += s.delivered_count;
  return total;
}

void NetworkStats::record_wan(size_t bytes) {
  wan_sent_count_ += 1;
  wan_sent_bytes_ += bytes;
}

void NetworkStats::reset() {
  by_type_.fill(TypeStats{});
  wan_sent_bytes_ = 0;
  wan_sent_count_ = 0;
}

std::string NetworkStats::to_table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %10s %14s %9s %10s\n", "type",
                "sent", "bytes", "dropped", "delivered");
  out += line;
  for (int i = 0; i < wire::kMessageTypeCount; ++i) {
    const auto& s = by_type_[static_cast<size_t>(i)];
    if (s.sent_count == 0) continue;
    std::snprintf(line, sizeof(line), "%-20s %10llu %14llu %9llu %10llu\n",
                  wire::to_string(static_cast<wire::MessageType>(i)),
                  static_cast<unsigned long long>(s.sent_count),
                  static_cast<unsigned long long>(s.sent_bytes),
                  static_cast<unsigned long long>(s.dropped_count),
                  static_cast<unsigned long long>(s.delivered_count));
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-20s %10llu %14llu\n", "TOTAL",
                static_cast<unsigned long long>(total_sent_count()),
                static_cast<unsigned long long>(total_sent_bytes()));
  out += line;
  return out;
}

Network::Network(sim::Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(config),
      duplication_rate_(config.duplication_rate) {}

void Network::register_node(NodeId id, MessageHandler* handler) {
  PAHOEHOE_CHECK(id.valid() && handler != nullptr);
  const auto at = std::lower_bound(
      nodes_.begin(), nodes_.end(), id,
      [](const Node& node, NodeId key) { return node.id < key; });
  PAHOEHOE_CHECK_MSG(at == nodes_.end() || at->id != id,
                     "node id registered twice");
  const DataCenterId dc = dc_resolver_ ? dc_resolver_(id) : DataCenterId{};
  nodes_.insert(at, Node{id, handler, dc});
}

void Network::set_dc_resolver(std::function<DataCenterId(NodeId)> resolver) {
  dc_resolver_ = std::move(resolver);
  for (Node& node : nodes_) node.dc = dc_resolver_(node.id);
}

const Network::Node* Network::find_node(NodeId id) const {
  const auto at = std::lower_bound(
      nodes_.begin(), nodes_.end(), id,
      [](const Node& node, NodeId key) { return node.id < key; });
  return at != nodes_.end() && at->id == id ? &*at : nullptr;
}

void Network::add_fault(std::shared_ptr<FaultRule> rule) {
  PAHOEHOE_CHECK(rule != nullptr);
  faults_.push_back(std::move(rule));
}

void Network::clear_faults() { faults_.clear(); }

SimTime Network::sample_latency() {
  // One-way latency is U(10 ms, 30 ms), the paper's §5.1 setup.
  constexpr SimTime kMinLatency = 10 * kMicrosPerMilli;
  constexpr SimTime kMaxLatency = 30 * kMicrosPerMilli;
  return sim_.rng().uniform_int(kMinLatency, kMaxLatency);
}

void Network::send(NodeId from, NodeId to, wire::MessageType type,
                   Bytes payload) {
  send(from, to, wire::decode(type, payload));
}

void Network::send(NodeId from, NodeId to, wire::Message msg) {
  obs::ProfScope prof("net_send");
  const Node* receiver = find_node(to);
  PAHOEHOE_CHECK_MSG(receiver != nullptr, "send to unregistered node");
  const wire::MessageType type = wire::type_of(msg);
  const size_t payload_bytes = wire::payload_size(msg);
  const size_t wire_size = wire::Envelope::kHeaderBytes + payload_bytes;
  const uint64_t span =
      telemetry_.spans.on_send(from, to, wire::to_string(type));
  stats_.record_sent(type, wire_size);
  tracer_.record(sim_.now(), TraceEvent::kSend, from, to, type, wire_size);
  if (receiver->dc.valid()) {
    // A sender that never registered (a test probe) is in no data center.
    const Node* sender = find_node(from);
    if (sender != nullptr && sender->dc.valid() &&
        sender->dc != receiver->dc) {
      stats_.record_wan(wire_size);
    }
  }

  for (const auto& rule : faults_) {
    if (rule->should_drop(from, to, type, sim_.now(), sim_.rng())) {
      stats_.record_dropped(type);
      tracer_.record(sim_.now(), TraceEvent::kDrop, from, to, type, wire_size);
      telemetry_.spans.on_drop(span);
      return;
    }
  }

  const bool duplicate =
      duplication_rate_ > 0.0 && sim_.rng().chance(duplication_rate_);
  const int copies = duplicate ? 2 : 1;
  // The message is moved once, into its slot's envelope; a dropped one is
  // never moved, and only a duplicated delivery copies it.
  uint32_t slot = static_cast<uint32_t>(in_flight_.size());
  if (free_slots_.empty()) {
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  InFlight& flight = in_flight_[slot];
  flight.env.from = from;
  flight.env.to = to;
  flight.env.type = type;
  flight.env.msg = std::move(msg);
  flight.env.payload_bytes = payload_bytes;
  flight.env.span = span;
  flight.handler = receiver->handler;
  flight.copies = copies;
  for (int i = 0; i < copies; ++i) {
    const SimTime latency = sample_latency();
    sim_.schedule_after(latency, [this, slot] { deliver(slot); });
  }
}

void Network::deliver(uint32_t slot) {
  // Covers the receiving node's handler too — "delivery" wall time is the
  // cost of acting on the message, not just the queue pop.
  obs::ProfScope prof("net_deliver");
  // Stays valid while the handler sends: the slot is not free yet, and the
  // deque does not move elements when it grows.
  InFlight& flight = in_flight_[slot];
  const wire::Envelope& env = flight.env;
  stats_.record_delivered(env.type);
  tracer_.record(sim_.now(), TraceEvent::kDeliver, env.from, env.to,
                 env.type, env.wire_size());
  // Open the message's span as the ambient scope so everything the handler
  // sends chains to this delivery (cross-node causal edge).
  const obs::SpanTracer::Scope span_scope =
      telemetry_.spans.deliver_scope(env.span);
  if (--flight.copies > 0) {
    flight.handler->handle(wire::Envelope(env));  // a duplicate copies
    return;
  }
  flight.handler->handle(std::move(flight.env));
  flight.env = wire::Envelope{};  // frees what the handler left behind
  free_slots_.push_back(slot);
}

}  // namespace pahoehoe::net
