// Common base for Pahoehoe nodes (proxies, KLSs, FSs).
//
// Handles registration with the network, the crash/recover lifecycle
// (crash-recovery failure model, §3.1: persistent stores survive, volatile
// state and timers do not), typed message sending, and the Reed–Solomon
// codecs a node encodes, decodes or regenerates with.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "common/types.h"
#include "core/cluster_view.h"
#include "erasure/reed_solomon.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pahoehoe::core {

class Server : public net::MessageHandler {
 public:
  Server(sim::Simulator& sim, net::Network& net,
         std::shared_ptr<const ClusterView> view, NodeId id, NodeKind kind,
         DataCenterId dc)
      : sim_(sim), net_(net), view_(std::move(view)), id_(id), kind_(kind),
        dc_(dc) {
    net_.register_node(id_, this);
  }

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }
  DataCenterId dc() const { return dc_; }
  bool crashed() const { return crashed_; }

  /// Crash: lose volatile state and stop processing messages. Persistent
  /// stores (overridden hooks) are retained.
  virtual void crash() {
    crashed_ = true;
    on_crash();
  }

  /// Recover with persistent state intact.
  virtual void recover() {
    crashed_ = false;
    on_recover();
  }

  void handle(wire::Envelope&& env) final {
    if (crashed_) return;  // a crashed node neither receives nor replies
    dispatch(std::move(env));
  }

 protected:
  /// Act on a delivered message; handlers may move parts of it out.
  virtual void dispatch(wire::Envelope&& env) = 0;
  /// Subclasses drop volatile state / cancel timers here.
  virtual void on_crash() {}
  virtual void on_recover() {}

  template <typename M>
  void send(NodeId to, M&& msg) {
    net_.send(id_, to, wire::Message(std::forward<M>(msg)));
  }

  /// Run-wide telemetry (metric registry + AMR tracker), shared via the
  /// network. Servers register their counters in their constructors and
  /// cache the returned handles.
  obs::Telemetry& telemetry() { return net_.telemetry(); }
  /// The {node=...} label every per-server metric carries.
  obs::Labels node_label() const {
    return {{"node", pahoehoe::to_string(id_)}};
  }

  /// The codec for `policy`'s (k, n), built on first use.
  const erasure::ReedSolomon& codec(const Policy& policy) {
    auto& slot = codecs_[{policy.k, policy.n}];
    if (slot == nullptr) {
      slot = std::make_unique<erasure::ReedSolomon>(policy.k, policy.n);
    }
    return *slot;
  }

  sim::Simulator& sim_;
  net::Network& net_;
  std::shared_ptr<const ClusterView> view_;

 private:
  NodeId id_;
  NodeKind kind_;
  DataCenterId dc_;
  bool crashed_ = false;
  std::map<std::pair<int, int>, std::unique_ptr<erasure::ReedSolomon>>
      codecs_;
};

}  // namespace pahoehoe::core
