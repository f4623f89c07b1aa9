// Deterministic causal span tracer: per-object-version lifecycle trees.
//
// Every object version gets a tree of spans — put start, erasure encode,
// each fragment/metadata message (send → deliver, with the cross-node edge
// carried explicitly in a span-context token on the wire envelope), every
// convergence round, backoff wait, recovery, AMR-indication skip, and the
// final AMR confirmation. The tracer is a pure observer of the simulation:
// it schedules no events, draws no randomness, and reads time only from the
// simulator clock, so enabling it never changes a run and the same seed
// always yields the same trees (byte-identical renders).
//
// Causality propagation works through two ambient mechanisms, so the
// instrumented code never threads span ids around:
//   * a scope stack: version_scope()/deliver_scope() push the span that is
//     currently executing; spans and messages created while a scope is
//     active become its children.
//   * a span-context token on wire::Envelope (`span`, simulation-plane
//     only — excluded from wire_size(), so the paper's byte accounting is
//     untouched). Network::send stamps it from the active scope;
//     Network::deliver opens a scope from it, so a handler's replies chain
//     to the message that triggered them even across nodes.
//
// The tracer also runs the critical-path attribution clock (see
// obs/critical_path.h): on every traced event it banks the elapsed interval
// since the previous event into exactly one component, so the components of
// an acked version telescope to exactly confirm_time - ack_time.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/critical_path.h"
#include "sim/simulator.h"

namespace pahoehoe::obs {

class JsonWriter;
struct ProfReport;

/// One node in a version's causal tree. Ids are 1-based and local to the
/// version; parent 0 marks the root.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  std::string name;
  NodeId node;           ///< node the span executed on (sender, for messages)
  NodeId peer;           ///< message spans: destination node
  SimTime start = 0;
  SimTime end = -1;      ///< -1 while open; dropped messages close at send
  std::string note;      ///< free-form annotation ("attempt 3", "dropped")
};

class SpanTracer {
 public:
  /// RAII handle returned by version_scope()/deliver_scope(). Destruction
  /// pops the scope and closes its span (at the then-current simulated
  /// time) if still open. Move-only; a default-constructed Scope is inert.
  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& o) noexcept : tracer_(o.tracer_) { o.tracer_ = nullptr; }
    Scope& operator=(Scope&& o) noexcept {
      if (this != &o) {
        release();
        tracer_ = o.tracer_;
        o.tracer_ = nullptr;
      }
      return *this;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { release(); }

   private:
    friend class SpanTracer;
    explicit Scope(SpanTracer* t) : tracer_(t) {}
    void release();
    SpanTracer* tracer_ = nullptr;
  };

  /// Spans stored per version. Bounds memory: once a version's tree is
  /// full, further spans are counted in spans_dropped() but not stored;
  /// messages past the cap are untracked, so component attribution of their
  /// flight time falls to the residual components (totals still telescope
  /// exactly to confirm - ack).
  static constexpr size_t kMaxSpansPerVersion = 8192;

  /// Turn tracing on. Off (default-constructed), every hook is a cheap
  /// no-op and tokens are 0.
  void enable(sim::Simulator* sim);
  bool enabled() const { return sim_ != nullptr; }

  // ---- instrumentation hooks (all no-ops when disabled) ----

  /// Open a span for `ov` and push it on the scope stack. Parent is the
  /// innermost active scope for the same version, else the version's root.
  /// The first span ever opened for a version becomes its root.
  [[nodiscard]] Scope version_scope(const ObjectVersionId& ov,
                                    const char* name, NodeId node,
                                    std::string note = {});

  /// Record a closed span [start, end] without touching the scope stack
  /// (instants use start == end). Same parenting rule as version_scope.
  void interval(const ObjectVersionId& ov, const char* name, NodeId node,
                SimTime start, SimTime end, std::string note = {});

  /// Network::send: open a message span under the active scope and return
  /// the token to stamp on the envelope (0 = untracked: tracer disabled, no
  /// active scope, or the version's tree is full).
  uint64_t on_send(NodeId from, NodeId to, const char* type);
  /// Network fault-drop: close the message span with a "dropped" note.
  void on_drop(uint64_t token);
  /// Network::deliver: close the message span (first delivery wins; a
  /// duplicated copy arriving later leaves the span closed at the earlier
  /// time) and push it as the active scope for the handler's duration.
  [[nodiscard]] Scope deliver_scope(uint64_t token);

  /// Mirror of AmrTracker::on_put_acked: starts the critical-path clock.
  void on_put_acked(const ObjectVersionId& ov, NodeId node);
  /// Mirror of AmrTracker::on_amr_confirmed: first confirmation closes the
  /// version's root span and seals its VersionCriticalPath record.
  void on_amr_confirmed(const ObjectVersionId& ov, NodeId node);

  /// FS work-list bookkeeping for attribution: `node` has convergence work
  /// for `ov` with the given next_attempt; `recovering` while a fragment
  /// recovery is in flight (also opens/closes a "recovery" span on the
  /// transition, annotated with `note`).
  void report_work(const ObjectVersionId& ov, NodeId node,
                   SimTime next_attempt, bool recovering,
                   const char* note = "");
  /// `node` no longer holds work for `ov` (AMR reached, AMR indication,
  /// give-up, crash).
  void report_work_done(const ObjectVersionId& ov, NodeId node);

  // ---- inspection ----

  bool has_version(const ObjectVersionId& ov) const;
  /// Traced versions in (key, ts) order.
  std::vector<ObjectVersionId> versions() const;
  size_t span_count(const ObjectVersionId& ov) const;
  uint64_t spans_dropped() const { return spans_dropped_; }

  /// Sealed critical-path records, in confirmation order.
  const std::vector<VersionCriticalPath>& critical_paths() const {
    return critical_paths_;
  }

  /// Annotated text tree of one version's lifecycle (deterministic; used by
  /// the version_inspector CLI and chaos forensics). Empty if untracked.
  std::string render_tree(const ObjectVersionId& ov) const;

  /// Deterministic walk over every stored span: versions in (key, ts)
  /// order, spans in id order within each version. This is the chaos
  /// coverage extractor's raw feed — iteration order is part of the
  /// signature-determinism contract (DESIGN.md §9), so it must never depend
  /// on container addresses or insertion races.
  void visit_spans(const std::function<void(const ObjectVersionId&,
                                            const Span&)>& visit) const;

  /// Chrome trace-event / Perfetto JSON: {"traceEvents": [...]} with "M"
  /// process_name metadata per node and one "X" complete event per span
  /// (ts/dur in simulated micros, pid = node id value, tid = per-version
  /// lane). `select` empty exports every traced version.
  /// `wall_profile`, when given, adds a synthetic "wall-clock profile"
  /// process (pid 0) next to the sim-time lanes: one "X" event per profiled
  /// phase, nested parent-inside-child flame-style, ts/dur in host
  /// *microseconds of wall time* rather than sim time (obs/prof.h).
  void export_perfetto(JsonWriter& w,
                       const std::vector<ObjectVersionId>& select = {},
                       const ProfReport* wall_profile = nullptr) const;

 private:
  struct NodeWork {
    SimTime next_attempt = 0;
    bool recovering = false;
    uint32_t recovery_span = 0;  // open "recovery" span id, 0 if none
  };

  struct VersionTrace {
    ObjectVersionId ov;
    std::vector<Span> spans;    // span id i lives at spans[i - 1]
    uint32_t root = 0;
    uint64_t dropped = 0;       // spans not stored due to the cap
    // Critical-path attribution state.
    bool acked = false;
    bool confirmed = false;
    SimTime ack_time = 0;
    SimTime last_t = 0;         // attribution clock high-water mark
    int64_t inflight = 0;       // tracked messages currently in flight
    std::map<NodeId, NodeWork> work;
    std::array<SimTime, kPathComponentCount> components{};
  };

  VersionTrace* find(const ObjectVersionId& ov);
  const VersionTrace* find(const ObjectVersionId& ov) const;
  VersionTrace& intern(const ObjectVersionId& ov);
  /// Append a span; returns its id, or 0 if the version's tree is full.
  /// The first stored span becomes the version's root; parent 0 falls back
  /// to the root.
  uint32_t add_span(VersionTrace& v, uint32_t parent, const char* name,
                    NodeId node, SimTime start, SimTime end, std::string note,
                    NodeId peer = {});
  /// Bank [v.last_t, now] into one component per the priority rule.
  void advance(VersionTrace& v, SimTime now);
  void pop_scope();
  uint32_t scope_parent(uint32_t vidx) const;

  sim::Simulator* sim_ = nullptr;
  std::map<ObjectVersionId, uint32_t> index_;  // ov -> index into versions_
  std::deque<VersionTrace> versions_;          // deque: stable references
  std::vector<std::pair<uint32_t, uint32_t>> scope_stack_;  // (vidx, span id)
  std::vector<VersionCriticalPath> critical_paths_;
  uint64_t spans_dropped_ = 0;
};

}  // namespace pahoehoe::obs
