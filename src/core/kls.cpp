#include "core/kls.h"

#include "core/placement.h"

namespace pahoehoe::core {

KeyLookupServer::KeyLookupServer(sim::Simulator& sim, net::Network& net,
                                 std::shared_ptr<const ClusterView> view,
                                 NodeId id, DataCenterId dc)
    : Server(sim, net, std::move(view), id, NodeKind::kKls, dc) {
  obs::MetricRegistry& metrics = telemetry().metrics;
  obs::Labels labels = node_label();
  labels.emplace_back("op", "decide_locs");
  m_decide_locs_ = &metrics.counter("kls_requests_total", labels);
  labels.back().second = "store_metadata";
  m_store_metadata_ = &metrics.counter("kls_requests_total", labels);
  labels.back().second = "retrieve_ts";
  m_retrieve_ts_ = &metrics.counter("kls_requests_total", labels);
  labels.back().second = "converge";
  m_converge_ = &metrics.counter("kls_requests_total", labels);
}

void KeyLookupServer::dispatch(wire::Envelope&& env) {
  using wire::MessageType;
  switch (env.type) {
    case MessageType::kDecideLocsReq:
    case MessageType::kFsDecideLocsReq:
      m_decide_locs_->inc();
      on_decide_locs(env.from, std::get<wire::DecideLocsReq>(env.msg));
      break;
    case MessageType::kStoreMetadataReq:
      m_store_metadata_->inc();
      on_store_metadata(env.from, std::get<wire::StoreMetadataReq>(env.msg));
      break;
    case MessageType::kRetrieveTsReq:
      m_retrieve_ts_->inc();
      on_retrieve_ts(env.from, std::get<wire::RetrieveTsReq>(env.msg));
      break;
    case MessageType::kKlsConvergeReq:
      m_converge_->inc();
      on_kls_converge(env.from, std::get<wire::KlsConvergeReq>(env.msg));
      break;
    default:
      // Messages for other roles (e.g., fragment traffic) are a protocol
      // error if addressed to a KLS.
      PAHOEHOE_CHECK_MSG(false, "unexpected message type at KLS");
  }
}

Metadata KeyLookupServer::suggest_for(const ObjectVersionId& ov,
                                      const Metadata* known,
                                      const Policy& policy,
                                      uint64_t value_size) const {
  Metadata meta(policy, value_size);
  if (known != nullptr) {
    meta.merge_locs(*known);
    if (known->value_size != 0) meta.value_size = known->value_size;
  }
  Metadata suggestion(policy);
  suggestion.locs = suggest_locations(policy, ov, dc(), view_->fs_in_dc(dc()),
                                      view_->disks_per_fs, view_->num_dcs);
  meta.merge_locs(suggestion);
  return meta;
}

void KeyLookupServer::on_decide_locs(NodeId from,
                                     const wire::DecideLocsReq& req) {
  Metadata* stored = store_meta_.find(req.ov);
  const Metadata meta =
      suggest_for(req.ov, stored, req.policy, req.value_size);

  if (req.from_fs) {
    // §3.5: for an FS-originated request the KLS persists its decision
    // before replying, and notifies the sibling FSs of the decision so they
    // can begin (or skip) their own convergence work.
    if (stored != nullptr) {
      stored->merge(meta);
    } else {
      stored = &store_meta_.merge(req.ov, meta).record;
      store_ts_.add(req.ov.key, req.ov.ts);
    }
    const Metadata& merged = *stored;
    if (telemetry().spans.enabled()) {
      telemetry().spans.interval(
          req.ov, "kls_locs_decided", id(), sim_.now(), sim_.now(),
          "decided=" + std::to_string(merged.decided_count()));
    }
    for (NodeId fs : merged.sibling_fs()) {
      if (fs == from) continue;
      send(fs, wire::KlsLocsNotify{req.ov, merged});
    }
    send(from, wire::DecideLocsRep{req.ov, merged, dc()});
    return;
  }
  send(from, wire::DecideLocsRep{req.ov, meta, dc()});
}

void KeyLookupServer::on_store_metadata(NodeId from,
                                        const wire::StoreMetadataReq& req) {
  const auto result = store_meta_.merge(req.ov, req.meta);
  if (result.created) store_ts_.add(req.ov.key, req.ov.ts);
  const Metadata& merged = result.record;
  if (telemetry().spans.enabled()) {
    telemetry().spans.interval(
        req.ov, "kls_meta_write", id(), sim_.now(), sim_.now(),
        "decided=" + std::to_string(merged.decided_count()));
  }
  send(from, wire::StoreMetadataRep{
                 req.ov, wire::Status::kSuccess,
                 static_cast<uint16_t>(merged.decided_count())});
}

void KeyLookupServer::on_retrieve_ts(NodeId from,
                                     const wire::RetrieveTsReq& req) {
  wire::RetrieveTsRep rep;
  rep.key = req.key;
  // Newest first, honoring the paging window (§3.5: proxies may retrieve
  // timestamps iteratively rather than all versions at once).
  const std::vector<Timestamp> all = store_ts_.find(req.key);
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (req.before_ts.valid() && !(*it < req.before_ts)) continue;
    if (req.max_entries != 0 && rep.entries.size() >= req.max_entries) {
      rep.more = true;
      break;
    }
    const ObjectVersionId ov{req.key, *it};
    const Metadata* meta = store_meta_.find(ov);
    // A timestamp with no metadata cannot be acted on by the proxy; report
    // it with empty metadata (counts as incomplete, so gets may look past
    // it once it is safe to do so).
    rep.entries.push_back(
        wire::RetrieveTsRep::Entry{*it,
                                   meta != nullptr ? *meta : Metadata{}});
  }
  send(from, rep);
}

void KeyLookupServer::on_kls_converge(NodeId from,
                                      const wire::KlsConvergeReq& req) {
  // Fig 4 (kls): merge the FS's metadata, reply whether the result is
  // complete. A version this KLS first learns of here gets its timestamp
  // recorded too, so gets can find it.
  const auto merged = store_meta_.merge(req.ov, req.meta);
  if (merged.created) store_ts_.add(req.ov.key, req.ov.ts);
  const bool verified = merged.record.complete();
  if (telemetry().spans.enabled()) {
    telemetry().spans.interval(req.ov, "kls_converge_verify", id(), sim_.now(),
                               sim_.now(), verified ? "verified" : "partial");
  }
  send(from, wire::KlsConvergeRep{req.ov, verified});
}

}  // namespace pahoehoe::core
