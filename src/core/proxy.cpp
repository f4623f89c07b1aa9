#include "core/proxy.h"

#include <algorithm>

#include "common/fragment.h"
#include "core/placement.h"

namespace pahoehoe::core {

// Per-put volatile state (Fig 2, proxy side).
struct Proxy::PutOp {
  ObjectVersionId ov;
  Metadata meta;
  /// Sealed at encode; every store request shares its slot's buffer.
  std::vector<Fragment> fragments;
  std::set<uint8_t> dcs_decided;   // data centers whose locations are fixed
  std::set<int> acked_frags;       // fragment indices durably acked
  std::set<NodeId> acked_kls;      // KLSs that acked a metadata store
  bool replied = false;            // client already answered
  bool amr_sent = false;
  PutCallback callback;
  sim::TimerId timeout = 0;
};

// Per-get volatile state (Fig 3, proxy side).
struct Proxy::GetOp {
  Key key;
  std::set<Timestamp> pending_ts;                  // tss, not yet tried
  std::set<Timestamp> tried;                       // retrieved or retrieving
  std::map<Timestamp, Metadata> meta_by_ts;        // respskls merged
  std::map<Timestamp, std::set<NodeId>> complete_attest;  // KLSs attesting
  std::set<NodeId> kls_replied;    // sent at least one page
  std::set<NodeId> kls_drained;    // sent its final page (no more versions)
  std::set<NodeId> page_pending;   // a further page request is outstanding
  std::map<NodeId, Timestamp> page_floor;  // oldest version revealed so far
  Timestamp current;                               // ⊥ when wall_micros < 0
  std::map<int, Fragment> found_frags;             // for current version
  std::set<int> requested_slots;                   // current version's wave
  std::set<int> replied_slots;                     // found or ⊥
  bool bot_seen = false;                           // some FS returned ⊥
  GetCallback callback;
  sim::TimerId timeout = 0;

  bool has_current() const { return current.valid(); }

  /// True iff the KLS's pages received so far must have included `ts` had
  /// the KLS known it (pages are newest-first).
  bool covers(NodeId kls, const Timestamp& ts) const {
    if (kls_drained.count(kls) > 0) return true;
    auto it = page_floor.find(kls);
    return it != page_floor.end() && it->second.valid() &&
           !(ts < it->second);
  }

  /// Safe-to-try-earlier evidence (§3.3): a KLS whose pages cover the
  /// current version omitted it or carried incomplete metadata, or an FS
  /// returned ⊥. For the latest AMR version this is provably never true:
  /// every KLS's first page leads with it, complete.
  bool incomplete_evidence() const {
    if (bot_seen) return true;
    auto it = complete_attest.find(current);
    for (NodeId kls : kls_replied) {
      const bool attested =
          it != complete_attest.end() && it->second.count(kls) > 0;
      if (!attested && covers(kls, current)) return true;
    }
    return false;
  }
};

Proxy::Proxy(sim::Simulator& sim, net::Network& net,
             std::shared_ptr<const ClusterView> view, NodeId id,
             DataCenterId dc, const ConvergenceOptions& convergence,
             ProxyOptions options)
    : Server(sim, net, std::move(view), id, NodeKind::kProxy, dc),
      options_(options),
      put_amr_indication_(convergence.put_amr_indication) {
  obs::MetricRegistry& metrics = telemetry().metrics;
  obs::Labels labels = node_label();
  labels.emplace_back("result", "acked");
  m_puts_acked_ = &metrics.counter("proxy_puts_total", labels);
  labels.back().second = "failed";
  m_put_failures_ = &metrics.counter("proxy_puts_total", labels);
  labels.back().second = "ok";
  m_gets_ok_ = &metrics.counter("proxy_gets_total", labels);
  labels.back().second = "failed";
  m_gets_failed_ = &metrics.counter("proxy_gets_total", labels);
  m_amr_concluded_ =
      &metrics.counter("proxy_amr_concluded_total", node_label());
  m_amr_indications_ =
      &metrics.counter("proxy_amr_indications_total", node_label());
}

Proxy::~Proxy() = default;

Timestamp Proxy::next_timestamp() {
  // Loosely synchronized clock (skew-adjusted sim time) concatenated with
  // the proxy id; strictly monotonic per proxy.
  SimTime wall = sim_.now() + options_.clock_skew;
  if (last_issued_.valid() && wall <= last_issued_.wall_micros) {
    wall = last_issued_.wall_micros + 1;
  }
  last_issued_ = Timestamp{wall, id().value};
  return last_issued_;
}

void Proxy::put(const Key& key, Bytes value, const Policy& policy,
                PutCallback callback) {
  PAHOEHOE_CHECK_MSG(policy.valid(), "invalid policy");
  PAHOEHOE_CHECK(callback != nullptr);
  if (crashed()) {
    // Client calls reach the proxy out-of-band (no network envelope), so
    // the crashed_ receive check does not cover them: fail fast instead of
    // letting a dead server run protocol code. Asynchronous so the caller
    // never re-enters itself.
    sim_.schedule_after(0, [callback = std::move(callback)] {
      callback(PutResult{});
    });
    return;
  }
  ++puts_started_;

  auto op = std::make_unique<PutOp>();
  op->ov = ObjectVersionId{key, next_timestamp()};
  op->meta = Metadata(policy, value.size());
  op->fragments = Fragment::seal_all(codec(policy).encode(value));
  op->callback = std::move(callback);

  const ObjectVersionId ov = op->ov;
  op->timeout = sim_.schedule_after(kPutTimeout,
                                    [this, ov] { finish_put(ov); });

  // Root span of the version's causal tree; stays open until AMR. The
  // scope makes this round's messages its children.
  obs::SpanTracer& spans = telemetry().spans;
  obs::SpanTracer::Scope span_scope;
  if (spans.enabled()) {
    span_scope = spans.version_scope(
        ov, "put", id(),
        "value=" + std::to_string(op->meta.value_size) + "B k=" +
            std::to_string(policy.k) + " n=" + std::to_string(policy.n));
    spans.interval(ov, "erasure_encode", id(), sim_.now(), sim_.now(),
                   std::to_string(op->fragments.size()) + " fragments");
  }

  // Round 1: ask every KLS to suggest locations (broadcast; unlike FSs,
  // proxies do not probe in order, §3.5).
  for (NodeId kls : view_->all_kls) {
    send(kls, wire::DecideLocsReq{ov, policy, op->meta.value_size,
                                  /*from_fs=*/false});
  }
  puts_.try_emplace(ov, std::move(op));
}

Proxy::PutOp* Proxy::find_put(const ObjectVersionId& ov) {
  const std::unique_ptr<PutOp>* op = puts_.find(ov);
  return op == nullptr ? nullptr : op->get();
}

void Proxy::on_decide_locs_rep(const wire::DecideLocsRep& rep) {
  PutOp* found = find_put(rep.ov);
  if (found == nullptr) return;
  PutOp& op = *found;

  // useful_locs (Fig 2 line 7): only the first reply per data center is
  // used; both KLSs of a data center suggest identically anyway.
  if (!rep.dc.valid() || op.dcs_decided.count(rep.dc.value) > 0) return;
  op.dcs_decided.insert(rep.dc.value);
  op.meta.merge_locs(rep.meta);

  // Latency optimization 1 (§3.2): act as soon as any data center's
  // locations are decided. Per Fig 2 lines 9–10 the proxy (re)sends the
  // accumulated metadata to every KLS and a store to every decided
  // location — so FSs contacted in an earlier round receive the completed
  // metadata too (the "two sets of location messages and two location
  // updates" the paper's Idealized comparison charges to the real protocol).
  for (NodeId kls : view_->all_kls) {
    send(kls, wire::StoreMetadataReq{op.ov, op.meta});
  }
  for (size_t slot = 0; slot < op.meta.locs.size(); ++slot) {
    const auto& loc = op.meta.locs[slot];
    if (!loc.has_value()) continue;
    const Fragment& fragment = op.fragments[slot];
    send(loc->fs, wire::StoreFragmentReq{op.ov, op.meta,
                                         static_cast<uint16_t>(slot),
                                         fragment, fragment.digest()});
  }
}

void Proxy::on_store_metadata_rep(NodeId from,
                                  const wire::StoreMetadataRep& rep) {
  PutOp* found = find_put(rep.ov);
  if (found == nullptr || rep.status != wire::Status::kSuccess) return;
  PutOp& op = *found;
  // Only an ack attesting *complete* metadata counts toward the AMR
  // conclusion; a first-round (partial-locations) ack does not prove this
  // KLS will ever hold the full location list.
  if (rep.decided_count == op.meta.policy.n) {
    op.acked_kls.insert(from);
    put_check_amr(op);
  }
}

void Proxy::on_store_fragment_rep(NodeId /*from*/,
                                  const wire::StoreFragmentRep& rep) {
  PutOp* found = find_put(rep.ov);
  if (found == nullptr || rep.status != wire::Status::kSuccess) return;
  PutOp& op = *found;
  op.acked_frags.insert(rep.frag_index);
  put_maybe_reply(op);
  put_check_amr(op);
}

void Proxy::put_maybe_reply(PutOp& op) {
  // can_reply (Fig 2 line 13): enough fragments durably stored per policy.
  if (op.replied) return;
  if (static_cast<int>(op.acked_frags.size()) <
      op.meta.policy.min_frags_for_success) {
    return;
  }
  op.replied = true;
  m_puts_acked_->inc();
  telemetry().amr.on_put_acked(op.ov, sim_.now());
  telemetry().spans.on_put_acked(op.ov, id());
  op.callback(PutResult{true, op.ov, static_cast<int>(op.acked_frags.size())});
}

void Proxy::put_check_amr(PutOp& op) {
  // The proxy knows the version is AMR when metadata is complete, every
  // fragment store was acked, and every KLS acked the metadata (§4.1).
  if (op.amr_sent) return;
  if (!op.meta.complete()) return;
  if (op.acked_frags.size() != op.meta.locs.size()) return;
  if (op.acked_kls.size() != view_->all_kls.size()) return;
  op.amr_sent = true;
  m_amr_concluded_->inc();
  telemetry().amr.on_amr_confirmed(op.ov, sim_.now());
  telemetry().spans.on_amr_confirmed(op.ov, id());
  if (put_amr_indication_) {
    for (NodeId fs : op.meta.sibling_fs()) {
      send(fs, wire::AmrIndication{op.ov});
      m_amr_indications_->inc();
    }
  }
  finish_put(op.ov);
}

void Proxy::finish_put(const ObjectVersionId& ov) {
  PutOp* found = find_put(ov);
  if (found == nullptr) return;
  PutOp& op = *found;
  sim_.cancel(op.timeout);
  if (!op.replied) {
    m_put_failures_->inc();
    telemetry().spans.interval(
        op.ov, "put_failed", id(), sim_.now(), sim_.now(),
        "acked_frags=" + std::to_string(op.acked_frags.size()));
    op.callback(
        PutResult{false, op.ov, static_cast<int>(op.acked_frags.size())});
  }
  puts_.erase(ov);
}

/// A get still unresolved this long after it began fails.
constexpr SimTime kGetTimeout = 10 * kMicrosPerSecond;

void Proxy::get(const Key& key, GetCallback callback) {
  PAHOEHOE_CHECK(callback != nullptr);
  if (crashed()) {
    sim_.schedule_after(0, [callback = std::move(callback)] {
      callback(GetResult{});
    });
    return;
  }
  PAHOEHOE_CHECK_MSG(gets_.count(key) == 0,
                     "one get at a time per key per proxy");
  ++gets_started_;

  auto op = std::make_unique<GetOp>();
  op->key = key;
  op->callback = std::move(callback);
  op->timeout = sim_.schedule_after(kGetTimeout, [this, key] {
    finish_get(key, GetResult{});
  });
  for (NodeId kls : view_->all_kls) {
    send(kls,
         wire::RetrieveTsReq{key, Timestamp{}, options_.get_page_size});
  }
  gets_.emplace(key, std::move(op));
}

void Proxy::on_retrieve_ts_rep(NodeId from, const wire::RetrieveTsRep& rep) {
  auto it = gets_.find(rep.key);
  if (it == gets_.end()) return;
  GetOp& op = *it->second;
  op.kls_replied.insert(from);
  op.page_pending.erase(from);
  if (!rep.more) op.kls_drained.insert(from);

  for (const auto& entry : rep.entries) {
    auto [mit, inserted] = op.meta_by_ts.try_emplace(entry.ts, entry.meta);
    if (!inserted) mit->second.merge(entry.meta);
    if (entry.meta.complete()) op.complete_attest[entry.ts].insert(from);
    // Track how deep this KLS's pages reach (entries are newest-first).
    auto [fit, fresh] = op.page_floor.try_emplace(from, entry.ts);
    if (!fresh && entry.ts < fit->second) fit->second = entry.ts;
    // Queue only versions not already tried or being retrieved.
    if (entry.ts != op.current && op.tried.count(entry.ts) == 0) {
      op.pending_ts.insert(entry.ts);
    }
  }

  // Latency optimization (§3.3): start retrieving on the first KLS reply;
  // also resume when a continuation page arrives while we were idle.
  if (!op.has_current()) {
    get_next_ts(op);
  }
}

void Proxy::get_next_ts(GetOp& op) {
  while (!op.pending_ts.empty()) {
    // Latest remaining version first.
    const Timestamp ts = *op.pending_ts.rbegin();
    op.pending_ts.erase(ts);
    op.tried.insert(ts);
    op.current = ts;
    op.found_frags.clear();
    op.requested_slots.clear();
    op.replied_slots.clear();
    op.bot_seen = false;

    const Metadata& meta = op.meta_by_ts.at(ts);
    const ObjectVersionId ov{op.key, ts};
    for (size_t slot = 0; slot < meta.locs.size(); ++slot) {
      if (!meta.locs[slot].has_value()) continue;
      send(meta.locs[slot]->fs,
           wire::RetrieveFragReq{ov, static_cast<uint16_t>(slot)});
      op.requested_slots.insert(static_cast<int>(slot));
    }
    if (static_cast<int>(op.requested_slots.size()) >= meta.policy.k) {
      return;  // enough outstanding to possibly decode
    }
    // Too few known locations to ever decode this version; it is clearly
    // not AMR (metadata incomplete), so trying an earlier one is safe.
  }

  op.current = Timestamp{};  // ⊥

  // Paged retrieval (§3.5): pull the next page from every KLS that has
  // older versions we have not seen yet.
  bool more_possible = false;
  for (NodeId kls : view_->all_kls) {
    if (op.kls_drained.count(kls) > 0) continue;
    if (op.kls_replied.count(kls) == 0) {
      more_possible = true;  // first page still in flight (or lost)
      continue;
    }
    more_possible = true;
    if (op.page_pending.count(kls) > 0) continue;
    auto floor = op.page_floor.find(kls);
    const Timestamp before =
        floor != op.page_floor.end() ? floor->second : Timestamp{};
    send(kls,
         wire::RetrieveTsReq{op.key, before, options_.get_page_size});
    op.page_pending.insert(kls);
  }
  if (!more_possible) {
    finish_get(op.key, GetResult{});  // Fig 3 line 28: abort
  }
  // Otherwise wait: an in-flight or freshly requested page may surface
  // more versions; the get timeout bounds the wait.
}

void Proxy::on_retrieve_frag_rep(NodeId /*from*/,
                                 wire::RetrieveFragRep&& rep) {
  auto it = gets_.find(rep.ov.key);
  if (it == gets_.end()) return;
  GetOp& op = *it->second;
  if (!op.has_current() || rep.ov.ts != op.current) return;  // stale version

  const Metadata& meta = op.meta_by_ts.at(op.current);
  op.replied_slots.insert(rep.frag_index);
  if (rep.found) {
    op.found_frags.emplace(rep.frag_index, std::move(rep.fragment));
  } else {
    op.bot_seen = true;
  }

  // can_decode (Fig 3 line 16).
  if (static_cast<int>(op.found_frags.size()) >= meta.policy.k) {
    std::vector<erasure::IndexedFragment> frags;
    frags.reserve(op.found_frags.size());
    for (const auto& [index, data] : op.found_frags) {
      frags.push_back(erasure::IndexedFragment{index, &data.bytes()});
    }
    Bytes value = codec(meta.policy).decode(frags, meta.value_size);
    finish_get(op.key, GetResult{true, std::move(value), op.current});
    return;
  }
  // can_try_earlier (Fig 3 line 19): safe once the current version is
  // provably not AMR. We additionally wait while enough fragment requests
  // are still outstanding that this version could yet decode — a ⊥ racing
  // with in-flight fragment *stores* must not abort a winnable retrieval
  // (the paper's semantics permit the abort; we simply do better).
  const int outstanding = static_cast<int>(op.requested_slots.size()) -
                          static_cast<int>(op.replied_slots.size());
  const int still_possible =
      static_cast<int>(op.found_frags.size()) + outstanding;
  if (op.incomplete_evidence() && still_possible < meta.policy.k) {
    get_next_ts(op);
  }
}

void Proxy::finish_get(const Key& key, GetResult result) {
  auto it = gets_.find(key);
  if (it == gets_.end()) return;
  (result.success ? m_gets_ok_ : m_gets_failed_)->inc();
  sim_.cancel(it->second->timeout);
  GetCallback callback = std::move(it->second->callback);
  gets_.erase(it);
  callback(result);
}

void Proxy::on_crash() {
  // Proxies lose all in-flight operations; clients see timeouts (their own,
  // §3.5 — the proxy cannot answer after crashing).
  for (const auto* item : puts_.sorted()) sim_.cancel(item->second->timeout);
  for (auto& [key, op] : gets_) {
    (void)key;
    sim_.cancel(op->timeout);
  }
  puts_.clear();
  gets_.clear();
}

void Proxy::dispatch(wire::Envelope&& env) {
  using wire::MessageType;
  switch (env.type) {
    case MessageType::kDecideLocsRep:
      on_decide_locs_rep(std::get<wire::DecideLocsRep>(env.msg));
      break;
    case MessageType::kStoreMetadataRep:
      on_store_metadata_rep(env.from,
                            std::get<wire::StoreMetadataRep>(env.msg));
      break;
    case MessageType::kStoreFragmentRep:
      on_store_fragment_rep(env.from,
                            std::get<wire::StoreFragmentRep>(env.msg));
      break;
    case MessageType::kRetrieveTsRep:
      on_retrieve_ts_rep(env.from, std::get<wire::RetrieveTsRep>(env.msg));
      break;
    case MessageType::kRetrieveFragRep:
      on_retrieve_frag_rep(
          env.from, std::move(std::get<wire::RetrieveFragRep>(env.msg)));
      break;
    default:
      PAHOEHOE_CHECK_MSG(false, "unexpected message type at proxy");
  }
}

}  // namespace pahoehoe::core
