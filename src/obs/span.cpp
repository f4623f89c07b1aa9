#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "obs/json.h"
#include "obs/prof.h"

namespace pahoehoe::obs {

namespace {

// Span-context token layout: high 32 bits hold (version index + 1), low 32
// bits the span id within that version. 0 means "untracked".
uint64_t make_token(uint32_t vidx, uint32_t span_id) {
  return (static_cast<uint64_t>(vidx + 1) << 32) | span_id;
}

std::string format_seconds(SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f",
                static_cast<double>(t) / static_cast<double>(kMicrosPerSecond));
  return buf;
}

}  // namespace

void SpanTracer::Scope::release() {
  if (tracer_ != nullptr) {
    tracer_->pop_scope();
    tracer_ = nullptr;
  }
}

void SpanTracer::enable(sim::Simulator* sim) { sim_ = sim; }

SpanTracer::VersionTrace* SpanTracer::find(const ObjectVersionId& ov) {
  auto it = index_.find(ov);
  return it == index_.end() ? nullptr : &versions_[it->second];
}

const SpanTracer::VersionTrace* SpanTracer::find(
    const ObjectVersionId& ov) const {
  auto it = index_.find(ov);
  return it == index_.end() ? nullptr : &versions_[it->second];
}

SpanTracer::VersionTrace& SpanTracer::intern(const ObjectVersionId& ov) {
  auto [it, inserted] =
      index_.try_emplace(ov, static_cast<uint32_t>(versions_.size()));
  if (inserted) {
    versions_.emplace_back();
    versions_.back().ov = ov;
  }
  return versions_[it->second];
}

uint32_t SpanTracer::add_span(VersionTrace& v, uint32_t parent,
                              const char* name, NodeId node, SimTime start,
                              SimTime end, std::string note, NodeId peer) {
  if (v.spans.size() >= kMaxSpansPerVersion) {
    ++v.dropped;
    ++spans_dropped_;
    return 0;
  }
  Span s;
  s.id = static_cast<uint32_t>(v.spans.size() + 1);
  s.parent = v.root == 0 ? 0 : (parent != 0 ? parent : v.root);
  s.name = name;
  s.node = node;
  s.peer = peer;
  s.start = start;
  s.end = end;
  s.note = std::move(note);
  v.spans.push_back(std::move(s));
  if (v.root == 0) v.root = v.spans.back().id;
  return v.spans.back().id;
}

uint32_t SpanTracer::scope_parent(uint32_t vidx) const {
  for (auto it = scope_stack_.rbegin(); it != scope_stack_.rend(); ++it) {
    if (it->first == vidx) return it->second;  // may be 0 (capped span)
  }
  return 0;  // add_span falls back to the version's root
}

void SpanTracer::advance(VersionTrace& v, SimTime now) {
  if (!v.acked || v.confirmed || now <= v.last_t) return;
  auto bank = [&v](PathComponent c, SimTime d) {
    v.components[static_cast<size_t>(c)] += d;
  };
  SimTime t = v.last_t;
  if (v.inflight > 0) {
    bank(PathComponent::kNetworkWait, now - t);
  } else {
    bool recovering = false;
    for (const auto& [node, w] : v.work) recovering = recovering || w.recovering;
    if (recovering) {
      bank(PathComponent::kServerProcessing, now - t);
    } else if (v.work.empty()) {
      bank(PathComponent::kRoundScheduling, now - t);
    } else {
      SimTime next = v.work.begin()->second.next_attempt;
      for (const auto& [node, w] : v.work) {
        next = std::min(next, w.next_attempt);
      }
      if (next > t) {
        const SimTime d = std::min(next, now) - t;
        bank(PathComponent::kRecoveryBackoff, d);
        t += d;
      }
      if (now > t) bank(PathComponent::kRoundScheduling, now - t);
    }
  }
  v.last_t = now;
}

SpanTracer::Scope SpanTracer::version_scope(const ObjectVersionId& ov,
                                            const char* name, NodeId node,
                                            std::string note) {
  if (!enabled()) return Scope();
  VersionTrace& v = intern(ov);
  const uint32_t vidx = index_.find(ov)->second;
  const uint32_t id = add_span(v, scope_parent(vidx), name, node, sim_->now(),
                               -1, std::move(note));
  scope_stack_.emplace_back(vidx, id);
  return Scope(this);
}

void SpanTracer::interval(const ObjectVersionId& ov, const char* name,
                          NodeId node, SimTime start, SimTime end,
                          std::string note) {
  if (!enabled()) return;
  VersionTrace& v = intern(ov);
  const uint32_t vidx = index_.find(ov)->second;
  add_span(v, scope_parent(vidx), name, node, start, end, std::move(note));
}

uint64_t SpanTracer::on_send(NodeId from, NodeId to, const char* type) {
  if (!enabled() || scope_stack_.empty()) return 0;
  const auto [vidx, parent] = scope_stack_.back();
  VersionTrace& v = versions_[vidx];
  std::string name = std::string("msg ") + type;
  const uint32_t id =
      add_span(v, parent, name.c_str(), from, sim_->now(), -1, {}, to);
  if (id == 0) return 0;  // capped: no token, message not tracked at all
  advance(v, sim_->now());
  ++v.inflight;
  return make_token(vidx, id);
}

void SpanTracer::on_drop(uint64_t token) {
  if (!enabled() || token == 0) return;
  const uint32_t vidx = static_cast<uint32_t>(token >> 32) - 1;
  VersionTrace& v = versions_[vidx];
  Span& s = v.spans[static_cast<uint32_t>(token) - 1];
  if (s.end >= 0) return;
  advance(v, sim_->now());
  --v.inflight;
  s.end = sim_->now();
  s.note = "dropped";
}

SpanTracer::Scope SpanTracer::deliver_scope(uint64_t token) {
  if (!enabled() || token == 0) return Scope();
  const uint32_t vidx = static_cast<uint32_t>(token >> 32) - 1;
  const uint32_t id = static_cast<uint32_t>(token);
  VersionTrace& v = versions_[vidx];
  Span& s = v.spans[id - 1];
  if (s.end < 0) {  // first delivery wins; duplicates leave it closed
    advance(v, sim_->now());
    --v.inflight;
    s.end = sim_->now();
  }
  scope_stack_.emplace_back(vidx, id);
  return Scope(this);
}

void SpanTracer::pop_scope() {
  const auto [vidx, id] = scope_stack_.back();
  scope_stack_.pop_back();
  if (id == 0) return;
  VersionTrace& v = versions_[vidx];
  // The root span covers the version's whole lifetime: it stays open until
  // AMR confirmation (on_amr_confirmed closes it), not until scope exit.
  if (id == v.root) return;
  Span& s = v.spans[id - 1];
  if (s.end < 0) s.end = sim_->now();
}

void SpanTracer::on_put_acked(const ObjectVersionId& ov, NodeId node) {
  if (!enabled()) return;
  VersionTrace& v = intern(ov);
  const SimTime now = sim_->now();
  interval(ov, "put_acked", node, now, now);
  if (v.acked) return;
  v.acked = true;
  v.ack_time = now;
  v.last_t = now;
  if (v.confirmed) {
    // AMR preceded the client ack: zero latency, all components zero
    // (mirrors AmrTracker's zero-latency sample).
    critical_paths_.push_back({ov, now, now, {}});
  }
}

void SpanTracer::on_amr_confirmed(const ObjectVersionId& ov, NodeId node) {
  if (!enabled()) return;
  VersionTrace& v = intern(ov);
  if (v.confirmed) return;  // first confirmation wins
  const SimTime now = sim_->now();
  advance(v, now);
  v.confirmed = true;
  interval(ov, "amr_confirmed", node, now, now);
  if (v.root != 0 && v.spans[v.root - 1].end < 0) {
    v.spans[v.root - 1].end = now;
  }
  if (v.acked) {
    critical_paths_.push_back({ov, v.ack_time, now, v.components});
  }
}

void SpanTracer::report_work(const ObjectVersionId& ov, NodeId node,
                             SimTime next_attempt, bool recovering,
                             const char* note) {
  if (!enabled()) return;
  VersionTrace& v = intern(ov);
  const SimTime now = sim_->now();
  advance(v, now);
  NodeWork& w = v.work[node];
  if (recovering && !w.recovering) {
    const uint32_t vidx = index_.find(ov)->second;
    w.recovery_span =
        add_span(v, scope_parent(vidx), "recovery", node, now, -1, note);
  } else if (!recovering && w.recovering && w.recovery_span != 0) {
    Span& s = v.spans[w.recovery_span - 1];
    if (s.end < 0) s.end = now;
    w.recovery_span = 0;
  }
  w.next_attempt = next_attempt;
  w.recovering = recovering;
}

void SpanTracer::report_work_done(const ObjectVersionId& ov, NodeId node) {
  if (!enabled()) return;
  VersionTrace* v = find(ov);
  if (v == nullptr) return;
  auto it = v->work.find(node);
  if (it == v->work.end()) return;
  advance(*v, sim_->now());
  if (it->second.recovery_span != 0) {
    Span& s = v->spans[it->second.recovery_span - 1];
    if (s.end < 0) s.end = sim_->now();
  }
  v->work.erase(it);
}

bool SpanTracer::has_version(const ObjectVersionId& ov) const {
  return index_.count(ov) > 0;
}

std::vector<ObjectVersionId> SpanTracer::versions() const {
  std::vector<ObjectVersionId> out;
  out.reserve(index_.size());
  for (const auto& [ov, vidx] : index_) out.push_back(ov);
  return out;
}

size_t SpanTracer::span_count(const ObjectVersionId& ov) const {
  const VersionTrace* v = find(ov);
  return v == nullptr ? 0 : v->spans.size();
}

void SpanTracer::visit_spans(
    const std::function<void(const ObjectVersionId&, const Span&)>& visit)
    const {
  // index_ is an ordered map over (key, ts); span ids are allocated in
  // simulation order within a version — both orders are seed-deterministic.
  for (const auto& [ov, vidx] : index_) {
    const VersionTrace& v = versions_[vidx];
    for (const Span& span : v.spans) visit(ov, span);
  }
}

std::string SpanTracer::render_tree(const ObjectVersionId& ov) const {
  ProfScope prof("span_render");
  const VersionTrace* v = find(ov);
  if (v == nullptr) return {};
  std::string out = "version " + pahoehoe::to_string(ov) + " spans " +
                    std::to_string(v->spans.size()) + " dropped " +
                    std::to_string(v->dropped) + "\n";
  if (v->acked) {
    out += "  put_acked t=" + format_seconds(v->ack_time) + "s";
    if (v->confirmed) {
      const SimTime confirm = v->ack_time + [&] {
        SimTime t = 0;
        for (SimTime c : v->components) t += c;
        return t;
      }();
      out += "  amr_confirmed t=" + format_seconds(confirm) +
             "s  time_to_amr " + format_seconds(confirm - v->ack_time) + "s";
    } else {
      out += "  (AMR not reached)";
    }
    out += "\n  critical_path:";
    for (size_t i = 0; i < kPathComponentCount; ++i) {
      out += std::string(i == 0 ? " " : " | ") +
             to_string(static_cast<PathComponent>(i)) + " " +
             format_seconds(v->components[i]) + "s";
    }
    out += "\n";
  }
  // Children in id order (== creation order, deterministic).
  std::vector<std::vector<uint32_t>> kids(v->spans.size() + 1);
  std::vector<uint32_t> roots;
  for (const Span& s : v->spans) {
    if (s.parent == 0) {
      roots.push_back(s.id);
    } else {
      kids[s.parent].push_back(s.id);
    }
  }
  auto render = [&](auto&& self, uint32_t id, int depth) -> void {
    const Span& s = v->spans[id - 1];
    out += std::string(2 * static_cast<size_t>(depth) + 2, ' ');
    out += "[" + format_seconds(s.start) + "s ";
    out += s.end < 0 ? "open" : "+" + format_seconds(s.end - s.start) + "s";
    out += "] " + s.name + " " + pahoehoe::to_string(s.node);
    if (s.peer.valid()) out += " -> " + pahoehoe::to_string(s.peer);
    if (!s.note.empty()) out += " -- " + s.note;
    out += "\n";
    for (uint32_t kid : kids[id]) self(self, kid, depth + 1);
  };
  for (uint32_t root : roots) render(render, root, 0);
  return out;
}

namespace {

// One flame-style lane of host wall-clock phases in a synthetic process
// (pid 0 — cluster node ids start at 101). Offsets are packed
// deterministically: roots laid out end-to-end in report order, each
// phase's children inside its extent. ts/dur are host *microseconds of
// wall time*, so the track is a magnitude companion to the sim-time lanes,
// not a shared clock.
void export_wall_profile_track(JsonWriter& w, const ProfReport& profile) {
  w.begin_object();
  w.kv("name", "process_name").kv("ph", "M");
  w.kv("pid", 0).kv("tid", 0);
  w.key("args").begin_object();
  w.kv("name", "wall-clock profile (host time)");
  w.end_object();
  w.end_object();

  const std::vector<ProfPhase>& phases = profile.phases;
  const size_t n = phases.size();
  // A phase's parent field names another phase; attach it to the first row
  // carrying that name (names can recur under several parents), everything
  // else is a root.
  std::map<std::string, size_t> first_with_name;
  for (size_t i = 0; i < n; ++i) {
    first_with_name.emplace(phases[i].name, i);
  }
  std::vector<std::vector<size_t>> children(n);
  std::vector<size_t> roots;
  for (size_t i = 0; i < n; ++i) {
    auto it = phases[i].parent.empty()
                  ? first_with_name.end()
                  : first_with_name.find(phases[i].parent);
    if (it == first_with_name.end() || it->second == i) {
      roots.push_back(i);
    } else {
      children[it->second].push_back(i);
    }
  }
  std::vector<uint64_t> start_nanos(n, 0);
  std::vector<char> placed(n, 0);
  const std::function<void(size_t)> place_children = [&](size_t i) {
    uint64_t cursor = start_nanos[i];
    for (size_t c : children[i]) {
      if (placed[c]) continue;  // cycle guard; cannot happen in practice
      placed[c] = 1;
      start_nanos[c] = cursor;
      cursor += phases[c].total_nanos;
      place_children(c);
    }
  };
  uint64_t root_cursor = 0;
  for (size_t r : roots) {
    if (placed[r]) continue;
    placed[r] = 1;
    start_nanos[r] = root_cursor;
    root_cursor += phases[r].total_nanos;
    place_children(r);
  }

  for (size_t i = 0; i < n; ++i) {
    const ProfPhase& p = phases[i];
    w.begin_object();
    w.kv("name", p.name).kv("ph", "X");
    w.kv("ts", start_nanos[i] / 1000);
    w.kv("dur", p.total_nanos / 1000);
    w.kv("pid", 0).kv("tid", 1);
    w.key("args").begin_object();
    if (!p.parent.empty()) w.kv("parent", p.parent);
    w.kv("calls", p.calls);
    w.kv("total_ms", static_cast<double>(p.total_nanos) / 1e6);
    w.kv("self_ms", static_cast<double>(p.self_nanos) / 1e6);
    w.end_object();
    w.end_object();
  }
}

}  // namespace

void SpanTracer::export_perfetto(JsonWriter& w,
                                 const std::vector<ObjectVersionId>& select,
                                 const ProfReport* wall_profile) const {
  ProfScope prof("span_render");
  std::vector<const VersionTrace*> selected;
  if (select.empty()) {
    for (const auto& [ov, vidx] : index_) selected.push_back(&versions_[vidx]);
  } else {
    for (const ObjectVersionId& ov : select) {
      const VersionTrace* v = find(ov);
      if (v != nullptr) selected.push_back(v);
    }
  }
  std::set<NodeId> nodes;
  for (const VersionTrace* v : selected) {
    for (const Span& s : v->spans) {
      if (s.node.valid()) nodes.insert(s.node);
      if (s.peer.valid()) nodes.insert(s.peer);
    }
  }
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (NodeId n : nodes) {
    w.begin_object();
    w.kv("name", "process_name").kv("ph", "M");
    w.kv("pid", static_cast<uint64_t>(n.value)).kv("tid", 0);
    w.key("args").begin_object();
    w.kv("name", pahoehoe::to_string(n));
    w.end_object();
    w.end_object();
  }
  uint64_t tid = 0;
  for (const VersionTrace* v : selected) {
    ++tid;  // one lane per exported version
    for (const Span& s : v->spans) {
      w.begin_object();
      w.kv("name", s.name).kv("ph", "X");
      w.kv("ts", s.start);
      w.kv("dur", s.end < 0 ? static_cast<int64_t>(0) : s.end - s.start);
      w.kv("pid", static_cast<uint64_t>(s.node.value)).kv("tid", tid);
      w.key("args").begin_object();
      w.kv("version", pahoehoe::to_string(v->ov));
      w.kv("id", static_cast<uint64_t>(s.id));
      w.kv("parent", static_cast<uint64_t>(s.parent));
      if (s.peer.valid()) w.kv("peer", pahoehoe::to_string(s.peer));
      if (!s.note.empty()) w.kv("note", s.note);
      w.end_object();
      w.end_object();
    }
  }
  if (wall_profile != nullptr && !wall_profile->empty()) {
    export_wall_profile_track(w, *wall_profile);
  }
  w.end_array();
  w.end_object();
}

}  // namespace pahoehoe::obs
