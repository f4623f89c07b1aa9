// Simulated point-to-point network (paper §5.1).
//
// Every message is delivered with latency drawn uniformly from
// [10 ms, 30 ms] unless a fault rule drops it. Fault rules compose: node
// blackouts (crash/partition emulation — "drop all messages in and out of
// that simulated node"), group partitions, and uniform iid loss. Channels
// may also duplicate messages with a configurable probability (the system
// model assumes fair losses and *bounded duplication*).
//
// Statistics record, per message type, the messages and bytes *sent* —
// dropped messages count as sent, matching the paper's cost metric.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "net/trace.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "wire/messages.h"

namespace pahoehoe::net {

/// Implemented by every node that can receive messages.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  /// The envelope is the handler's to consume: it may move the message out.
  virtual void handle(wire::Envelope&& env) = 0;
};

/// Decides whether a given message is dropped. Rules are consulted at send
/// time; any rule voting "drop" drops the message.
class FaultRule {
 public:
  virtual ~FaultRule() = default;
  virtual bool should_drop(NodeId from, NodeId to, wire::MessageType type,
                           SimTime now, Rng& rng) = 0;
};

/// Drops all traffic in and out of one node during [start, end).
class NodeBlackout : public FaultRule {
 public:
  NodeBlackout(NodeId node, SimTime start, SimTime end)
      : node_(node), start_(start), end_(end) {}
  bool should_drop(NodeId from, NodeId to, wire::MessageType type,
                   SimTime now, Rng& rng) override;

 private:
  NodeId node_;
  SimTime start_;
  SimTime end_;
};

/// Drops all traffic crossing the boundary of `group` during [start, end).
class Partition : public FaultRule {
 public:
  Partition(std::unordered_set<NodeId> group, SimTime start, SimTime end)
      : group_(std::move(group)), start_(start), end_(end) {}
  bool should_drop(NodeId from, NodeId to, wire::MessageType type,
                   SimTime now, Rng& rng) override;

 private:
  std::unordered_set<NodeId> group_;
  SimTime start_;
  SimTime end_;
};

/// Drops each message independently with probability `rate` (system-wide).
class UniformLoss : public FaultRule {
 public:
  explicit UniformLoss(double rate) : rate_(rate) {}
  bool should_drop(NodeId from, NodeId to, wire::MessageType type,
                   SimTime now, Rng& rng) override;

 private:
  double rate_;
};

/// Drops every message of one type (targeted fault injection in tests:
/// e.g. "every AMR indication is lost").
class TypedDrop : public FaultRule {
 public:
  explicit TypedDrop(wire::MessageType type) : type_(type) {}
  bool should_drop(NodeId from, NodeId to, wire::MessageType type,
                   SimTime now, Rng& rng) override;

 private:
  wire::MessageType type_;
};

/// Per-message-type counters, indexed by wire::MessageType. The run's only
/// message ledger: figure tables, the sampler's msgs_sent/bytes_sent columns
/// and the message budget all read it.
class NetworkStats {
 public:
  struct TypeStats {
    uint64_t sent_count = 0;
    uint64_t sent_bytes = 0;
    uint64_t dropped_count = 0;
    uint64_t delivered_count = 0;
  };

  void record_sent(wire::MessageType type, size_t bytes);
  void record_dropped(wire::MessageType type);
  void record_delivered(wire::MessageType type);
  void record_wan(size_t bytes);

  const TypeStats& of(wire::MessageType type) const;
  uint64_t total_sent_count() const;
  uint64_t total_sent_bytes() const;
  uint64_t total_dropped_count() const;
  uint64_t total_delivered_count() const;
  /// Bytes sent on messages crossing a data-center boundary (requires a
  /// dc resolver on the Network).
  uint64_t wan_sent_bytes() const { return wan_sent_bytes_; }
  uint64_t wan_sent_count() const { return wan_sent_count_; }
  void reset();

  /// Multi-line human-readable table of nonzero rows.
  std::string to_table() const;

 private:
  std::array<TypeStats, wire::kMessageTypeCount> by_type_{};
  uint64_t wan_sent_bytes_ = 0;
  uint64_t wan_sent_count_ = 0;
};

struct NetworkConfig {
  /// Probability that a delivered message is delivered twice (bounded
  /// duplication from the system model; defaults off).
  double duplication_rate = 0.0;
};

class Network {
 public:
  Network(sim::Simulator& sim, NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register the handler for a node id. A node must be registered before
  /// anyone sends to it.
  void register_node(NodeId id, MessageHandler* handler);

  void add_fault(std::shared_ptr<FaultRule> rule);
  void clear_faults();

  /// Install a node → data-center resolver so stats can attribute WAN
  /// (cross-data-center) traffic. Typically set by the Cluster builder,
  /// before it registers the nodes. Each registered node's data center is
  /// resolved once, here or at its registration, not per message; without
  /// a resolver no traffic counts as WAN.
  void set_dc_resolver(std::function<DataCenterId(NodeId)> resolver);

  /// Send a message as a value: records stats (its wire size comes from its
  /// field walk), applies fault rules, samples latency, and schedules
  /// delivery.
  void send(NodeId from, NodeId to, wire::Message msg);
  /// Send a serialized payload: wire::decode it, then send the value. For
  /// tests that inject bytes; throws WireError on a payload that does not
  /// parse as a `type` message.
  void send(NodeId from, NodeId to, wire::MessageType type, Bytes payload);

  /// Override the duplication rate at runtime (duplication-burst fault
  /// injection). `reset_duplication_rate` restores the configured base.
  void set_duplication_rate(double rate) { duplication_rate_ = rate; }
  void reset_duplication_rate() {
    duplication_rate_ = config_.duplication_rate;
  }
  double duplication_rate() const { return duplication_rate_; }

  /// Envelopes sent and not yet delivered (each counted once, however many
  /// copies are still scheduled). Zero once the simulator drains.
  size_t in_flight() const { return in_flight_.size() - free_slots_.size(); }

  NetworkStats& stats() { return stats_; }
  const NetworkStats& stats() const { return stats_; }
  /// Message tracing (off by default; see net/trace.h).
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  /// Run-wide telemetry bundle (metric registry + time-to-AMR tracker).
  /// Owned here so every server and the harness share one registry and
  /// cached metric handles can never dangle.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  sim::Simulator& simulator() { return sim_; }

 private:
  /// One registered node: its handler and its data center (invalid while
  /// no resolver is set, or for nodes the resolver places nowhere).
  struct Node {
    NodeId id;
    MessageHandler* handler = nullptr;
    DataCenterId dc;
  };

  /// One sent envelope, the handler it is for, and the number of its
  /// scheduled copies not yet delivered. Each copy but the last hands the
  /// handler a copy of the envelope; the last hands over the envelope
  /// itself, and the slot is freed after it.
  struct InFlight {
    wire::Envelope env;
    MessageHandler* handler = nullptr;
    int copies = 0;
  };

  void deliver(uint32_t slot);
  SimTime sample_latency();
  /// The registered node `id`, or nullptr.
  const Node* find_node(NodeId id) const;

  sim::Simulator& sim_;
  NetworkConfig config_;
  double duplication_rate_ = 0.0;
  /// Every registered node, sorted by id: a cluster's dozen nodes, binary
  /// searched once or twice per send.
  std::vector<Node> nodes_;
  std::vector<std::shared_ptr<FaultRule>> faults_;
  std::function<DataCenterId(NodeId)> dc_resolver_;
  // In-flight envelopes, addressed by slot, so a scheduled delivery carries
  // only [this, slot] and fits std::function's local buffer. A handler may
  // send while its envelope is being delivered, so elements must keep their
  // addresses when the table grows: a deque, not a vector. Free slots are
  // reused last-in, first-out.
  std::deque<InFlight> in_flight_;
  std::vector<uint32_t> free_slots_;
  NetworkStats stats_;
  Tracer tracer_;
  obs::Telemetry telemetry_;
};

}  // namespace pahoehoe::net
