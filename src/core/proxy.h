// Proxy server: executes put and get on behalf of clients
// (paper Figures 2 and 3, §3.2–§3.3).
//
// Put: two rounds — ask every KLS for locations, then push metadata to all
// KLSs and fragments to the chosen FSs. Includes both latency
// optimizations: partial locations are acted on as soon as any data
// center's locations are decided, and success is reported to the client as
// soon as the policy's fragment-store threshold is met. When every server
// acked, the proxy knows the version is AMR and (if enabled) sends Put AMR
// Indications (§4.1).
//
// Get: ask every KLS for timestamps+metadata, then retrieve fragments for
// versions from latest to earliest. Starts on the first KLS reply, and
// falls back to an earlier version only when it is safe (§3.3): some KLS
// lacked complete metadata for the current version or some FS returned ⊥.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/config.h"
#include "core/server.h"
#include "storage/version_table.h"
#include "wire/messages.h"

namespace pahoehoe::core {

struct PutResult {
  bool success = false;
  ObjectVersionId ov;
  /// Fragment-store acks received by the time the client was answered or
  /// the operation finished (diagnostics).
  int frag_acks = 0;
};
using PutCallback = std::function<void(const PutResult&)>;

struct GetResult {
  bool success = false;
  Bytes value;
  Timestamp ts;  ///< version returned (valid only on success)
};
using GetCallback = std::function<void(const GetResult&)>;

class Proxy : public Server {
 public:
  /// A put still unresolved this long after it began fails.
  static constexpr SimTime kPutTimeout = 10 * kMicrosPerSecond;

  Proxy(sim::Simulator& sim, net::Network& net,
        std::shared_ptr<const ClusterView> view, NodeId id, DataCenterId dc,
        const ConvergenceOptions& convergence, ProxyOptions options);
  ~Proxy() override;

  /// Begin a put; the callback fires exactly once (success, failure, or
  /// timeout — the paper's "unknown" maps to failure here).
  void put(const Key& key, Bytes value, const Policy& policy,
           PutCallback callback);

  /// Begin a get; the callback fires exactly once.
  void get(const Key& key, GetCallback callback);

  // Counters for tests and experiments; the outcome counts are read from
  // the metric registry.
  uint64_t puts_started() const { return puts_started_; }
  uint64_t puts_succeeded() const { return m_puts_acked_->value(); }
  uint64_t puts_failed() const { return m_put_failures_->value(); }
  uint64_t gets_started() const { return gets_started_; }
  uint64_t amr_indications_sent() const {
    return m_amr_indications_->value();
  }

 protected:
  void dispatch(wire::Envelope&& env) override;
  void on_crash() override;

 private:
  struct PutOp;
  struct GetOp;

  // Put plumbing.
  void on_decide_locs_rep(const wire::DecideLocsRep& rep);
  void on_store_metadata_rep(NodeId from, const wire::StoreMetadataRep& rep);
  void on_store_fragment_rep(NodeId from, const wire::StoreFragmentRep& rep);
  /// The put in flight for `ov`, or nullptr (late reply for a finished put).
  PutOp* find_put(const ObjectVersionId& ov);
  void put_check_amr(PutOp& op);
  void put_maybe_reply(PutOp& op);
  void finish_put(const ObjectVersionId& ov);

  // Get plumbing.
  void on_retrieve_ts_rep(NodeId from, const wire::RetrieveTsRep& rep);
  void on_retrieve_frag_rep(NodeId from, wire::RetrieveFragRep&& rep);
  void get_next_ts(GetOp& op);
  void finish_get(const Key& key, GetResult result);

  Timestamp next_timestamp();

  ProxyOptions options_;
  /// ConvergenceOptions::put_amr_indication (§4.1).
  bool put_amr_indication_ = false;
  storage::VersionTable<std::unique_ptr<PutOp>> puts_;
  std::map<Key, std::unique_ptr<GetOp>> gets_;
  Timestamp last_issued_;

  uint64_t puts_started_ = 0;
  uint64_t gets_started_ = 0;

  // Registry handles (labeled {node}, plus {result} where it applies);
  // cached once in the constructor.
  obs::Counter* m_puts_acked_ = nullptr;
  obs::Counter* m_put_failures_ = nullptr;
  obs::Counter* m_gets_ok_ = nullptr;
  obs::Counter* m_gets_failed_ = nullptr;
  obs::Counter* m_amr_concluded_ = nullptr;
  obs::Counter* m_amr_indications_ = nullptr;
};

}  // namespace pahoehoe::core
