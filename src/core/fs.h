// Fragment Server (paper §2, §3.4, §4).
//
// Persists the fragment store (storefrag): one record of metadata plus
// sibling fragments per object version, and the FS's only metadata. The
// convergence work-list (storemeta) is a table of the same keys: the keys of
// `work_` persist across crashes, while each entry's convergence state is
// volatile. Both are hashed VersionTables, and a work entry points at its
// store entry, so a message handler looks its version up once and hands the
// records down. Runs convergence in periodic rounds; for each non-AMR object
// version a convergence step either (a) completes metadata via a KLS
// decide_locs probe, (b) recovers missing local fragments — plain recovery
// or §4.2 sibling fragment recovery — or (c) verifies AMR against every KLS
// and sibling FS. Once a version is verified AMR it is removed from the
// work-list (the fragment store keeps serving it forever; AMR is stable).
//
// Optimizations (ConvergenceOptions):
//  * FS AMR Indications — tell siblings when AMR is verified.
//  * Unsynchronized rounds — uniform-random round spacing in [30 s, 90 s].
//  * Put AMR Indications — honor proxy indications; defer convergence of
//    versions younger than min_age so puts can finish.
//  * Sibling fragment recovery — recover every sibling's missing fragments
//    from one k-fragment read and push them; duplicate recovery suppressed
//    by the lower-id backoff rule.
#pragma once

#include <bitset>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/server.h"
#include "storage/stores.h"
#include "wire/messages.h"

namespace pahoehoe::core {

class FragmentServer : public Server {
 public:
  FragmentServer(sim::Simulator& sim, net::Network& net,
                 std::shared_ptr<const ClusterView> view, NodeId id,
                 DataCenterId dc, ConvergenceOptions options);
  ~FragmentServer() override;

  // Persistent store, read-only, for the experiment oracle & tests.
  const storage::FragStore& frag_store() const { return store_frag_; }

  /// Fault injection for tests: destroy a disk / corrupt a fragment. The
  /// damaged fragments read as ⊥ until convergence repairs them.
  size_t destroy_disk(uint8_t disk);
  bool corrupt_fragment(const ObjectVersionId& ov, int frag_index);
  /// Flip a byte of one uniformly chosen stored fragment (chaos schedules'
  /// silent-corruption fault). Returns false if nothing is stored yet.
  bool corrupt_random_fragment(Rng& rng);
  /// Re-add every version with damaged or missing local fragments to the
  /// convergence work-list (models the elided disk-rebuild scrub). Also
  /// runs periodically when ConvergenceOptions::scrub_interval is set.
  size_t scrub();

  // Counters for tests and experiments, read from the metric registry.
  uint64_t versions_converged() const { return m_converged_->value(); }
  uint64_t versions_given_up() const { return m_giveups_->value(); }
  uint64_t recoveries_completed() const { return m_recoveries_->value(); }
  uint64_t recovery_backoffs() const { return m_backoffs_->value(); }
  uint64_t rounds_run() const { return m_rounds_->value(); }
  uint64_t scrubs_run() const { return scrubs_run_; }
  /// Convergence work outstanding (work-list size).
  size_t pending_versions() const { return work_.size(); }
  /// Work-list entries the round scheduler and the rounds have examined:
  /// host work that should scale with the due entries, not the backlog.
  /// A plain member, not a registry metric, so it changes no report.
  uint64_t worklist_entries_scanned() const { return entries_scanned_; }
  /// Hashed lookups into this FS's version tables (fragment store and
  /// work-list): host work per message that a handler re-finding its
  /// version would inflate. Counts the tables' own counters, so it changes
  /// no report either.
  uint64_t version_lookups() const {
    return store_frag_.lookups() + work_.lookups();
  }
  /// Test-only audit of the eligibility index: "" when every work entry
  /// not mid-recovery is indexed exactly once under eligible_at, no entry
  /// mid-recovery is indexed, and the due list a round would take now, or
  /// at the armed round's time, equals what a full walk of the work-list
  /// selects, in the same order. Otherwise, the first discrepancy found.
  std::string check_eligibility_index() const;

 protected:
  void dispatch(wire::Envelope&& env) override;
  void on_crash() override;
  void on_recover() override;

 private:
  using Entry = storage::FragStore::Entry;

  /// Volatile per-version convergence state; a crash resets it.
  struct Work {
    explicit Work(Entry& stored) : entry(&stored) {}

    /// The version's fragment store entry. Store entries are never erased
    /// and never move, so this stays valid for as long as the work does.
    Entry* entry;
    SimTime next_attempt = 0;
    /// This entry's key in eligible_, or nullopt while it is not indexed.
    std::optional<SimTime> indexed_at;
    int attempts = 0;
    // Verify-step state: the KLSs and sibling FSs that answered "verified",
    // sorted by id. The first ack reserves room for every KLS and FS.
    std::vector<NodeId> verify_acks;
    // Recovery-step state (both plain and sibling recovery).
    bool recovering = false;
    bool plain_recovery = false;
    std::map<NodeId, std::vector<int>> sibling_needs;
    std::map<int, Fragment> gathered;  // fragment index -> shared buffer
    std::set<int> requested_slots;   // retrieve_frag requests outstanding
    std::set<int> failed_slots;      // sources that answered ⊥ this attempt
    sim::TimerId recovery_timer = 0;   // §4.2 reply-accumulation window
    sim::TimerId recovery_deadline = 0;  // abandon a stalled recovery
    sim::TimerId recovery_retry = 0;   // retransmit outstanding fetches
    // Per-durability-class give-up evidence: distinct fragment slots this
    // FS has seen intact somewhere (its own, fetched by a recovery, or
    // certified by a sibling's verified converge reply), one bit per slot
    // index (Policy::n is a uint8_t). Once >= k slots are certified the
    // version is treated as durable-class (sticky until a recovery exhausts
    // its sources, which is direct evidence the cluster lost it).
    std::bitset<256> certified_slots;
    bool durable_evidence = false;
    // Set when a sibling answers "not verified" past giveup_age, where only
    // durable-class versions are left: the next step is a §4.2 sibling
    // recovery that proves the evidence (regenerating what the siblings
    // lack) or, by exhausting its sources, revokes it.
    bool prove_evidence = false;
  };

  /// One version's records at this FS, found once per handler and handed
  /// down. Work-list keys are a subset of the store's, so a version with no
  /// entry has no work either.
  struct Records {
    Entry* entry = nullptr;  ///< nullptr: the version is unknown here
    Work* work = nullptr;    ///< nullptr: not on the work-list
  };

  // Message handlers.
  void on_store_fragment(NodeId from, wire::StoreFragmentReq&& req);
  void on_sibling_store(NodeId from, wire::SiblingStoreReq&& req);
  void on_retrieve_frag(NodeId from, const wire::RetrieveFragReq& req);
  void on_fs_converge(NodeId from, const wire::FsConvergeReq& req);
  void on_fs_converge_rep(NodeId from, const wire::FsConvergeRep& rep);
  void on_kls_converge_rep(NodeId from, const wire::KlsConvergeRep& rep);
  void on_amr_indication(const wire::AmrIndication& msg);
  void on_decide_locs_rep(const wire::DecideLocsRep& rep);
  void on_kls_locs_notify(const wire::KlsLocsNotify& msg);
  void on_retrieve_frag_rep(NodeId from, wire::RetrieveFragRep&& rep);

  // Convergence machinery.
  /// When `work` may next take a step: its backoff deadline, raised to the
  /// version's min-age only while min-age applies (PutAMR).
  SimTime eligible_at(const ObjectVersionId& ov, const Work& work) const;
  /// Bring the entry's key in eligible_ up to date after a change to its
  /// next_attempt or recovering state: indexed under eligible_at unless
  /// mid-recovery. No set update when the key did not move.
  void reindex(const ObjectVersionId& ov, Work& work);
  void unindex(const ObjectVersionId& ov, Work& work);
  /// Drop a work-list entry (AMR or give-up), index key included. `ov` must
  /// not refer to the table's own copy of the key.
  void erase_work(const ObjectVersionId& ov, Work& work);
  /// The versions a round starting at `at` steps, in version order.
  std::vector<ObjectVersionId> due_versions(SimTime at) const;
  void ensure_round_scheduled();
  void start_round();
  void converge_step(const ObjectVersionId& ov, Work& work);
  void begin_verify(const ObjectVersionId& ov, Work& work);
  /// The start plain and sibling recovery share: mark the work recovering,
  /// arm its timers and gather this FS's own intact fragments.
  void start_recovery(const ObjectVersionId& ov, Work& work, bool plain);
  void begin_plain_recovery(const ObjectVersionId& ov, Work& work);
  void begin_sibling_recovery(const ObjectVersionId& ov, Work& work);
  void recovery_gather(const ObjectVersionId& ov, Work& work);
  void recovery_maybe_finish(const ObjectVersionId& ov, Work& work);
  void arm_recovery_deadline(const ObjectVersionId& ov, Work& work);
  void arm_recovery_retry(const ObjectVersionId& ov, Work& work);
  void clear_recovery_state(const ObjectVersionId& ov, Work& work);
  void cancel_recovery(const ObjectVersionId& ov, Work& work);
  void check_amr(const ObjectVersionId& ov, Work& work);
  void mark_amr(const ObjectVersionId& ov, Work& work);
  /// Record a "verified" converge reply from `node`.
  void add_ack(Work& work, NodeId node) const;

  /// The version's records: one work-list lookup and, when the version is
  /// not pending, one fragment store lookup.
  Records find_records(const ObjectVersionId& ov);
  /// Merge metadata into the version's store entry and wake its work if the
  /// metadata changed. A version absent from both stores gets a store entry
  /// and a work entry when `create_work` is set (Fig 4 line 17); `rec` is
  /// updated to them.
  void merge_meta(const ObjectVersionId& ov, Records& rec,
                  const Metadata& meta, bool create_work);
  /// Make the version eligible at the next round (progress was observed).
  void wake_work(const ObjectVersionId& ov, Work& work);
  /// verify() from Fig 4: metadata complete and all locally assigned
  /// fragments present and intact.
  bool local_verify(const Entry& entry) const;
  /// Every decided slot assigned to this FS holds an intact fragment
  /// (missing_local_fragments is empty), without building the list.
  bool local_fragments_intact(const Entry& entry) const;
  /// Locally assigned fragment indices that are missing or corrupt.
  std::vector<int> missing_local_fragments(const Entry& entry) const;
  /// Receipt of a pushed fragment (Fig 2, fs side, and a recovering
  /// sibling's §4.2 push): check the buffer's digest against the message's,
  /// store the buffer, merge the metadata and wake the version's work.
  /// False, with nothing changed, when they differ.
  bool receive_fragment(const ObjectVersionId& ov, const Metadata& meta,
                        int frag_index, Fragment fragment,
                        const Sha256::Digest& digest);
  void bump_backoff(const ObjectVersionId& ov, Work& work);
  SimTime version_age(const ObjectVersionId& ov) const;
  /// Per-durability-class give-up (see ConvergenceOptions): certify this
  /// FS's own intact fragments, then report whether the version has durable
  /// evidence or is marked AMR.
  bool durable_class(Work& work);
  /// Certify `slot` as seen intact and flip durable_evidence at >= k.
  static void certify_slot(Work& work, int slot);
  /// A recovery ran out of sources: the cluster demonstrably cannot supply
  /// k fragments right now, so durable evidence (including the AMR mark) is
  /// revoked and must be re-earned.
  static void revoke_durable_evidence(Work& work);

  ConvergenceOptions options_;
  storage::FragStore store_frag_;  // persistent: metadata + fragments

  void schedule_scrub();

  /// The convergence work-list: keys persistent, values volatile.
  storage::VersionTable<Work> work_;
  /// Eligibility index over work_: (eligible_at, ov) for every entry not
  /// mid-recovery, so the scheduler reads the earliest and a round visits
  /// only the due entries.
  std::set<std::pair<SimTime, ObjectVersionId>> eligible_;
  uint64_t entries_scanned_ = 0;
  sim::TimerId round_timer_ = 0;
  SimTime round_timer_when_ = 0;
  sim::TimerId scrub_timer_ = 0;
  uint64_t scrubs_run_ = 0;
  /// Room every ack set reserves once: one per KLS and FS in the cluster.
  size_t max_acks_ = 0;

  // Registry handles (labeled {node}); cached once in the constructor.
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_amr_skips_ = nullptr;
  obs::Counter* m_converged_ = nullptr;
  obs::Counter* m_giveups_ = nullptr;
  obs::Counter* m_backoffs_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_scrub_repairs_ = nullptr;
  obs::Counter* m_collisions_ = nullptr;
  obs::Counter* m_sibling_recoveries_ = nullptr;
  obs::Histogram* m_converge_attempts_ = nullptr;
};

}  // namespace pahoehoe::core
