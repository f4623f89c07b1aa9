// Key Lookup Server (paper §2, Figures 2–4).
//
// A KLS persists the timestamp store (key → object versions) and the
// metadata store (object version → (policy, locations)). It suggests
// fragment locations for its own data center, accepts metadata stores,
// serves timestamp retrievals for gets, and participates in convergence by
// merging metadata and verifying completeness.
#pragma once

#include "core/config.h"
#include "core/server.h"
#include "storage/stores.h"
#include "wire/messages.h"

namespace pahoehoe::core {

class KeyLookupServer : public Server {
 public:
  KeyLookupServer(sim::Simulator& sim, net::Network& net,
                  std::shared_ptr<const ClusterView> view, NodeId id,
                  DataCenterId dc);

  // Persistent stores, exposed read-only for the experiment oracle & tests.
  const storage::TimestampStore& timestamp_store() const { return store_ts_; }
  const storage::MetaStore& meta_store() const { return store_meta_; }

 protected:
  void dispatch(wire::Envelope&& env) override;

 private:
  void on_decide_locs(NodeId from, const wire::DecideLocsReq& req);
  void on_store_metadata(NodeId from, const wire::StoreMetadataReq& req);
  void on_retrieve_ts(NodeId from, const wire::RetrieveTsReq& req);
  void on_kls_converge(NodeId from, const wire::KlsConvergeReq& req);

  /// which_locs (Fig 2): start from `known`, the persisted metadata for
  /// `ov` (nullptr if none), and fill this data center's undecided slots
  /// with the deterministic placement. `value_size` seeds the metadata when
  /// the store has no better answer.
  Metadata suggest_for(const ObjectVersionId& ov, const Metadata* known,
                       const Policy& policy, uint64_t value_size) const;

  // The two stores hold the same versions: every insert into the metadata
  // store adds the version's timestamp, and neither store ever erases, so a
  // merge into a version already held leaves the timestamp store alone.
  storage::TimestampStore store_ts_;
  storage::MetaStore store_meta_;

  // Registry handles (labeled {node, op}); cached once in the constructor.
  obs::Counter* m_decide_locs_ = nullptr;
  obs::Counter* m_store_metadata_ = nullptr;
  obs::Counter* m_retrieve_ts_ = nullptr;
  obs::Counter* m_converge_ = nullptr;
};

}  // namespace pahoehoe::core
