#include "core/fs.h"

#include <algorithm>
#include <utility>

#include "common/fragment.h"
#include "obs/prof.h"

namespace pahoehoe::core {

FragmentServer::FragmentServer(sim::Simulator& sim, net::Network& net,
                               std::shared_ptr<const ClusterView> view,
                               NodeId id, DataCenterId dc,
                               ConvergenceOptions options)
    : Server(sim, net, std::move(view), id, NodeKind::kFs, dc),
      options_(options) {
  obs::MetricRegistry& metrics = telemetry().metrics;
  const obs::Labels labels = node_label();
  m_rounds_ = &metrics.counter("fs_rounds_total", labels);
  m_steps_ = &metrics.counter("fs_converge_steps_total", labels);
  m_amr_skips_ = &metrics.counter("fs_amr_skips_total", labels);
  m_converged_ = &metrics.counter("fs_converged_total", labels);
  m_giveups_ = &metrics.counter("fs_giveups_total", labels);
  m_backoffs_ = &metrics.counter("fs_recovery_backoffs_total", labels);
  m_recoveries_ = &metrics.counter("fs_recoveries_total", labels);
  m_scrub_repairs_ = &metrics.counter("fs_scrub_repairs_total", labels);
  // §4.2 lower-id stand-downs: two FSs collided on recovering the same
  // version. A dedicated counter (instead of folding into backoffs) gives
  // the chaos coverage signature its rarest protocol state.
  m_collisions_ = &metrics.counter("fs_recovery_collisions_total", labels);
  m_sibling_recoveries_ =
      &metrics.counter("fs_sibling_recoveries_total", labels);
  m_converge_attempts_ = &metrics.histogram("fs_converge_attempts", labels);
  max_acks_ = view_->all_kls.size();
  for (const auto& fss : view_->fs_by_dc) max_acks_ += fss.size();
  schedule_scrub();
}

FragmentServer::~FragmentServer() = default;

FragmentServer::Records FragmentServer::find_records(
    const ObjectVersionId& ov) {
  Records rec;
  rec.work = work_.find(ov);
  rec.entry = rec.work != nullptr ? rec.work->entry : store_frag_.find(ov);
  return rec;
}

SimTime FragmentServer::version_age(const ObjectVersionId& ov) const {
  return std::max<SimTime>(0, sim_.now() - ov.ts.wall_micros);
}

void FragmentServer::certify_slot(Work& work, int slot) {
  if (work.durable_evidence) return;
  work.certified_slots.set(static_cast<size_t>(slot));
  if (static_cast<int>(work.certified_slots.count()) >=
      work.entry->meta.policy.k) {
    work.durable_evidence = true;
    work.certified_slots.reset();
  }
}

bool FragmentServer::durable_class(Work& work) {
  const Entry& entry = *work.entry;
  if (work.durable_evidence || entry.amr) return true;
  // Certify what local state proves right now: our own intact fragments.
  for (int slot : entry.meta.fragments_for(id())) {
    if (entry.intact_fragment(slot) != nullptr) certify_slot(work, slot);
  }
  return work.durable_evidence;
}

void FragmentServer::revoke_durable_evidence(Work& work) {
  work.certified_slots.reset();
  work.durable_evidence = false;
  work.entry->amr = false;
}

/// Exponential per-version backoff after a convergence step that did not
/// reach AMR: base * factor^(attempts-1), jittered, capped at backoff_max.
constexpr SimTime kBackoffBase = 60 * kMicrosPerSecond;
constexpr double kBackoffFactor = 2.0;

void FragmentServer::bump_backoff(const ObjectVersionId& ov, Work& work) {
  // Exponential backoff with jitter (§3.5): the longer a version fails to
  // converge, the less often we retry.
  double delay = static_cast<double>(kBackoffBase);
  for (int i = 0; i < std::min(work.attempts, 40); ++i) {
    delay *= kBackoffFactor;
    if (delay >= static_cast<double>(options_.backoff_max)) break;
  }
  delay = std::min(delay, static_cast<double>(options_.backoff_max));
  const double jitter = 0.5 + sim_.rng().uniform01();  // [0.5, 1.5)
  work.attempts += 1;
  work.next_attempt = sim_.now() + static_cast<SimTime>(delay * jitter);
  reindex(ov, work);
}

bool FragmentServer::local_verify(const Entry& entry) const {
  return entry.meta.complete() && local_fragments_intact(entry);
}

bool FragmentServer::local_fragments_intact(const Entry& entry) const {
  const auto& locs = entry.meta.locs;
  for (size_t slot = 0; slot < locs.size(); ++slot) {
    if (locs[slot].has_value() && locs[slot]->fs == id() &&
        entry.intact_fragment(static_cast<int>(slot)) == nullptr) {
      return false;
    }
  }
  return true;
}

std::vector<int> FragmentServer::missing_local_fragments(
    const Entry& entry) const {
  std::vector<int> missing;
  for (int slot : entry.meta.fragments_for(id())) {
    if (entry.intact_fragment(slot) == nullptr) missing.push_back(slot);
  }
  return missing;
}

void FragmentServer::merge_meta(const ObjectVersionId& ov, Records& rec,
                                const Metadata& meta, bool create_work) {
  if (rec.work == nullptr) {
    // Fig 4 line 17 requires ov to be absent from *both* stores before the
    // work-list entry is (re)created: a version already verified AMR keeps
    // serving fragments but is never resurrected into convergence.
    if (rec.entry != nullptr) {
      rec.entry->meta.merge(meta);
      return;
    }
    if (!create_work) return;
    rec.entry = &store_frag_.upsert(ov, meta).record;
    // Eligible at the next round.
    rec.work = work_.try_emplace(ov, *rec.entry).first;
    reindex(ov, *rec.work);
  } else if (rec.entry->meta.merge(meta)) {
    // Genuinely new information (fresh locations) accelerates the next
    // attempt — post-heal catch-up. Unchanged metadata must NOT reset the
    // exponential backoff, or sibling converge traffic would keep every
    // FS retrying at full cadence forever.
    rec.work->next_attempt = std::min(rec.work->next_attempt, sim_.now());
    reindex(ov, *rec.work);
  }
  telemetry().spans.report_work(ov, id(), rec.work->next_attempt,
                                rec.work->recovering);
  ensure_round_scheduled();
}

void FragmentServer::wake_work(const ObjectVersionId& ov, Work& work) {
  work.next_attempt = std::min(work.next_attempt, sim_.now());
  reindex(ov, work);
  telemetry().spans.report_work(ov, id(), work.next_attempt,
                                work.recovering);
  ensure_round_scheduled();
}

namespace {

/// The disk `meta` assigns fragment `frag_index` to (0 while undecided).
uint8_t disk_in(const Metadata& meta, int frag_index) {
  if (frag_index < static_cast<int>(meta.locs.size()) &&
      meta.locs[static_cast<size_t>(frag_index)].has_value()) {
    return meta.locs[static_cast<size_t>(frag_index)]->disk;
  }
  return 0;
}

}  // namespace

bool FragmentServer::receive_fragment(const ObjectVersionId& ov,
                                      const Metadata& meta, int frag_index,
                                      Fragment fragment,
                                      const Sha256::Digest& digest) {
  // The buffer's memo answers for a fragment its maker sealed; only a fresh
  // buffer (one decoded from bytes, or built by a test) is hashed here.
  if (fragment.digest() != digest) return false;
  Records rec = find_records(ov);
  merge_meta(ov, rec, meta, /*create_work=*/true);
  // The disk by the best metadata this FS knows: the stored entry while
  // work is pending, else the message's.
  const uint8_t disk =
      disk_in(rec.work != nullptr ? rec.entry->meta : meta, frag_index);
  store_frag_.put_fragment(*rec.entry, frag_index, std::move(fragment),
                           digest, disk);
  // A fragment arriving is progress worth acting on.
  if (rec.work != nullptr) wake_work(ov, *rec.work);
  return true;
}

// --- round machinery --------------------------------------------------------

SimTime FragmentServer::eligible_at(const ObjectVersionId& ov,
                                    const Work& work) const {
  const SimTime min_age = options_.effective_min_age();
  if (min_age <= 0) return work.next_attempt;
  return std::max(work.next_attempt, ov.ts.wall_micros + min_age);
}

void FragmentServer::reindex(const ObjectVersionId& ov, Work& work) {
  std::optional<SimTime> key;
  if (!work.recovering) key = eligible_at(ov, work);
  // Most calls come from converge chatter that moved nothing.
  if (key == work.indexed_at) return;
  unindex(ov, work);
  if (key.has_value()) eligible_.emplace(*key, ov);
  work.indexed_at = key;
}

void FragmentServer::unindex(const ObjectVersionId& ov, Work& work) {
  if (!work.indexed_at.has_value()) return;
  eligible_.erase({*work.indexed_at, ov});
  work.indexed_at.reset();
}

void FragmentServer::erase_work(const ObjectVersionId& ov, Work& work) {
  unindex(ov, work);
  work_.erase(ov);
}

std::vector<ObjectVersionId> FragmentServer::due_versions(SimTime at) const {
  std::vector<ObjectVersionId> due;
  for (const auto& [when, ov] : eligible_) {
    if (when > at) break;
    due.push_back(ov);
  }
  std::sort(due.begin(), due.end());
  return due;
}

std::string FragmentServer::check_eligibility_index() const {
  size_t indexed = 0;
  for (const auto* item : work_.sorted()) {
    const auto& [ov, work] = *item;
    if (work.recovering) {
      if (work.indexed_at.has_value()) {
        return "recovering entry " + to_string(ov) + " is indexed";
      }
      continue;
    }
    ++indexed;
    const SimTime key = eligible_at(ov, work);
    if (work.indexed_at != key || eligible_.count({key, ov}) == 0) {
      return "entry " + to_string(ov) + " is not indexed under eligible_at " +
             std::to_string(key);
    }
  }
  if (eligible_.size() != indexed) {
    return "index holds " + std::to_string(eligible_.size()) +
           " keys for " + std::to_string(indexed) + " eligible entries";
  }
  // The full walk the index replaces, for a round starting at `at`.
  const auto walk = [this](SimTime at) {
    std::vector<ObjectVersionId> due;
    for (const auto* item : work_.sorted()) {
      const auto& [ov, work] = *item;
      if (work.recovering || at < work.next_attempt) continue;
      if (options_.effective_min_age() > 0 &&
          at - ov.ts.wall_micros < options_.effective_min_age()) {
        continue;
      }
      due.push_back(ov);
    }
    return due;
  };
  for (const SimTime at : {sim_.now(), round_timer_ != 0 ? round_timer_when_
                                                         : sim_.now()}) {
    if (due_versions(at) != walk(at)) {
      return "due list at " + std::to_string(at) + " differs from the walk";
    }
  }
  return "";
}

/// Unsynchronized round jitter (§4.1).
constexpr SimTime kRoundMin = 30 * kMicrosPerSecond;
constexpr SimTime kRoundMax = 90 * kMicrosPerSecond;
/// Synchronized rounds.
constexpr SimTime kSyncRoundPeriod = 60 * kMicrosPerSecond;

void FragmentServer::ensure_round_scheduled() {
  if (crashed() || work_.empty()) return;
  SimTime when;
  if (options_.unsync_rounds) {
    // §4.1: uniformly random spacing desynchronizes sibling FSs.
    when = sim_.now() + sim_.rng().uniform_int(kRoundMin, kRoundMax);
  } else {
    // Synchronized schedule: every FS rounds at multiples of the period.
    when = (sim_.now() / kSyncRoundPeriod + 1) * kSyncRoundPeriod;
  }
  // If every pending version is waiting on backoff or min-age, skip the
  // no-op rounds and wake when the earliest version becomes eligible.
  if (eligible_.empty()) {
    // Everything is mid-recovery; those paths re-arm the timer themselves.
    return;
  }
  ++entries_scanned_;
  when = std::max(when, eligible_.begin()->first);
  if (round_timer_ != 0) {
    // Keep the earlier of the existing and newly computed round times, so
    // fresh work pulls a far-skipped round back in without letting message
    // arrivals push a due round out.
    if (when >= round_timer_when_) return;
    sim_.cancel(round_timer_);
  }
  round_timer_when_ = when;
  round_timer_ = sim_.schedule_at(when, [this] { start_round(); });
}

void FragmentServer::start_round() {
  obs::ProfScope prof("fs_round");
  round_timer_ = 0;
  m_rounds_->inc();
  // Fig 4: a convergence step for every object version not yet verified AMR
  // that is due, in version order. A step changes only its own entry (it
  // may erase it, but never inserts one or moves another's key) and the
  // clock stands still, so the due set fixed here is the one a walk of the
  // whole work-list would select as it went.
  const std::vector<ObjectVersionId> due = due_versions(sim_.now());
  entries_scanned_ += due.size();
  for (const ObjectVersionId& ov : due) {
    Work& work = *work_.find(ov);
    if (version_age(ov) > options_.giveup_age && !durable_class(work)) {
      // §3.5: stop convergence work for hopeless versions after a long
      // horizon (fragments are kept; only the work-list entry goes).
      // Durable-class versions are never dropped, so anything given up
      // here is non-durable.
      m_giveups_->inc();
      telemetry().spans.interval(ov, "give_up", id(), sim_.now(), sim_.now(),
                                 "class=non-durable");
      telemetry().spans.report_work_done(ov, id());
      erase_work(ov, work);
      continue;
    }
    converge_step(ov, work);
  }
  ensure_round_scheduled();
}

void FragmentServer::converge_step(const ObjectVersionId& ov, Work& work) {
  const Entry& entry = *work.entry;
  const Metadata& meta = entry.meta;
  m_steps_->inc();
  bump_backoff(ov, work);

  // One span per convergence round; the messages this step sends become
  // its children. The backoff_wait interval records the wait this step
  // just scheduled for the *next* attempt; report_work feeds the
  // critical-path attribution clock.
  obs::SpanTracer& spans = telemetry().spans;
  obs::SpanTracer::Scope span_scope;
  if (spans.enabled()) {
    span_scope =
        spans.version_scope(ov, "converge_round", id(),
                            "attempt " + std::to_string(work.attempts));
    spans.interval(ov, "backoff_wait", id(), sim_.now(), work.next_attempt);
    spans.report_work(ov, id(), work.next_attempt, work.recovering);
  }

  if (!meta.complete()) {
    // Fig 4 line 5: incomplete metadata — act like a proxy doing a put, but
    // probe one KLS per data center in a fixed rotation (§3.5) instead of
    // broadcasting.
    for (int d = 0; d < view_->num_dcs; ++d) {
      const auto& klss = view_->kls_in_dc(DataCenterId{static_cast<uint8_t>(d)});
      if (klss.empty()) continue;
      const size_t probe =
          static_cast<size_t>(work.attempts - 1) % klss.size();
      send(klss[probe], wire::DecideLocsReq{ov, meta.policy, meta.value_size,
                                            /*from_fs=*/true});
    }
    return;
  }

  const bool prove = std::exchange(work.prove_evidence, false);
  if (prove || !local_fragments_intact(entry)) {
    // Fig 4 line 8: recover missing local fragments. Proving durable
    // evidence takes a §4.2 sibling recovery whatever the options say: only
    // that kind learns and regenerates what the siblings lack.
    if (prove || options_.sibling_recovery) {
      begin_sibling_recovery(ov, work);
    } else {
      begin_plain_recovery(ov, work);
    }
    return;
  }

  begin_verify(ov, work);
}

void FragmentServer::begin_verify(const ObjectVersionId& ov, Work& work) {
  // Fig 4 lines 10–11: ask every KLS and sibling FS to verify. Positive
  // acks accumulate across rounds — verification is monotone (locations
  // and fragments are never removed), and requiring a full ack set within
  // one round would make convergence needlessly fragile under heavy loss.
  // One request of each kind per step, encoded once per destination.
  const Metadata& meta = work.entry->meta;
  const wire::KlsConvergeReq kls_req{ov, meta};
  for (NodeId kls : view_->all_kls) send(kls, kls_req);
  const wire::FsConvergeReq fs_req{ov, meta, /*intends_recovery=*/false};
  for (NodeId fs : meta.sibling_fs()) {
    if (fs == id()) continue;  // an FS does not message itself (§4)
    send(fs, fs_req);
  }
  check_amr(ov, work);  // degenerate topologies may need no acks
}

/// How long a sibling-recovery initiator accumulates converge replies
/// before fetching fragments (§4.2 "waits some time").
constexpr SimTime kRecoveryWait = 200 * kMicrosPerMilli;
/// Abandon a recovery attempt whose fragment fetches never complete
/// (sources down or replies lost); the step retries with backoff.
constexpr SimTime kRecoveryTimeout = 5 * kMicrosPerSecond;
/// Retransmit a recovery attempt's outstanding fragment fetches at this
/// interval until the attempt's deadline. Without in-attempt retries, one
/// lost fetch fails the whole attempt, and under heavy loss a version
/// could exhaust its backoff schedule before ever completing a recovery.
constexpr SimTime kRecoveryRetryInterval = 1500 * kMicrosPerMilli;

void FragmentServer::start_recovery(const ObjectVersionId& ov, Work& work,
                                    bool plain) {
  work.recovering = true;
  work.plain_recovery = plain;
  unindex(ov, work);
  telemetry().spans.report_work(ov, id(), work.next_attempt, true,
                                plain ? "plain" : "sibling");
  arm_recovery_deadline(ov, work);
  arm_recovery_retry(ov, work);
  const Entry& entry = *work.entry;
  for (int slot : entry.meta.fragments_for(id())) {
    if (const storage::StoredFragment* frag = entry.intact_fragment(slot);
        frag != nullptr) {
      work.gathered.emplace(slot, frag->data);  // shares the buffer
    }
  }
}

void FragmentServer::begin_plain_recovery(const ObjectVersionId& ov,
                                          Work& work) {
  // recover_fragment (Fig 4 line 8): a get restricted to this object
  // version — request every other decided slot and decode from the first k.
  start_recovery(ov, work, /*plain=*/true);
  const Metadata& meta = work.entry->meta;
  for (size_t slot = 0; slot < meta.locs.size(); ++slot) {
    if (!meta.locs[slot].has_value() || meta.locs[slot]->fs == id()) continue;
    send(meta.locs[slot]->fs,
         wire::RetrieveFragReq{ov, static_cast<uint16_t>(slot)});
    work.requested_slots.insert(static_cast<int>(slot));
  }
  recovery_maybe_finish(ov, work);  // local fragments may already suffice
}

void FragmentServer::begin_sibling_recovery(const ObjectVersionId& ov,
                                            Work& work) {
  // §4.2: announce recovery intent; siblings reply with the fragments they
  // need so one FS can regenerate everything from a single k-fragment read.
  m_sibling_recoveries_->inc();
  start_recovery(ov, work, /*plain=*/false);
  const Metadata& meta = work.entry->meta;
  for (NodeId fs : meta.sibling_fs()) {
    if (fs == id()) continue;
    send(fs, wire::FsConvergeReq{ov, meta, /*intends_recovery=*/true});
  }
  work.recovery_timer = sim_.schedule_after(
      kRecoveryWait, [this, ov] {
        Work* w = work_.find(ov);
        if (w == nullptr || !w->recovering) return;
        w->recovery_timer = 0;
        const obs::SpanTracer::Scope span_scope =
            telemetry().spans.version_scope(ov, "recovery_gather", id());
        recovery_gather(ov, *w);
      });
}

void FragmentServer::recovery_gather(const ObjectVersionId& ov, Work& work) {
  // Fetch enough fragments to reach k distinct, counting requests already
  // outstanding (re-entry happens on every ⊥ reply; without the
  // accounting, requests would multiply). Local-data-center sources are
  // preferred to save WAN capacity.
  const Metadata& meta = work.entry->meta;
  const int k = meta.policy.k;
  const int have = static_cast<int>(work.gathered.size());
  if (have >= k) {
    recovery_maybe_finish(ov, work);
    return;
  }
  const int outstanding = static_cast<int>(work.requested_slots.size());
  const int need = k - have - outstanding;
  if (need <= 0) return;  // enough fetches in flight; wait for replies

  // Fresh candidates: decided slots held by someone else, not yet gathered,
  // requested, failed, or reported missing by their owner.
  std::vector<int> candidates;
  for (size_t slot = 0; slot < meta.locs.size(); ++slot) {
    const int s = static_cast<int>(slot);
    if (!meta.locs[slot].has_value()) continue;
    if (meta.locs[slot]->fs == id()) continue;
    if (work.gathered.count(s) > 0) continue;
    if (work.requested_slots.count(s) > 0) continue;
    if (work.failed_slots.count(s) > 0) continue;
    bool reported_missing = false;
    for (const auto& [fs, needs] : work.sibling_needs) {
      (void)fs;
      if (std::find(needs.begin(), needs.end(), s) != needs.end()) {
        reported_missing = true;
        break;
      }
    }
    if (!reported_missing) candidates.push_back(s);
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const bool a_local = view_->dc_of(meta.locs[static_cast<size_t>(a)]->fs) == dc();
    const bool b_local = view_->dc_of(meta.locs[static_cast<size_t>(b)]->fs) == dc();
    return a_local > b_local;
  });

  if (static_cast<int>(candidates.size()) < need) {
    if (outstanding == 0) {
      // Nothing in flight and not enough reachable sources; retry a later
      // round under backoff. Every responsive source answered ⊥ or reported
      // the slot missing, so this is direct evidence the cluster cannot
      // supply k fragments right now — durable evidence must be re-earned.
      revoke_durable_evidence(work);
      cancel_recovery(ov, work);
    }
    // Otherwise wait: in-flight replies may still push us over k.
    return;
  }
  for (int i = 0; i < need; ++i) {
    const int slot = candidates[static_cast<size_t>(i)];
    send(meta.locs[static_cast<size_t>(slot)]->fs,
         wire::RetrieveFragReq{ov, static_cast<uint16_t>(slot)});
    work.requested_slots.insert(slot);
  }
}

void FragmentServer::recovery_maybe_finish(const ObjectVersionId& ov,
                                           Work& work) {
  Entry& entry = *work.entry;
  const Metadata& meta = entry.meta;
  const int k = meta.policy.k;
  if (static_cast<int>(work.gathered.size()) < k) return;
  obs::ProfScope prof("fs_recovery");

  // Regenerate my missing fragments plus (sibling recovery) everything the
  // siblings reported missing.
  std::vector<int> targets = missing_local_fragments(entry);
  if (!work.plain_recovery) {
    for (const auto& [fs, needs] : work.sibling_needs) {
      (void)fs;
      for (int slot : needs) {
        if (std::find(targets.begin(), targets.end(), slot) ==
            targets.end()) {
          targets.push_back(slot);
        }
      }
    }
  }
  std::sort(targets.begin(), targets.end());

  std::vector<erasure::IndexedFragment> available;
  available.reserve(work.gathered.size());
  for (const auto& [slot, data] : work.gathered) {
    available.push_back(erasure::IndexedFragment{slot, &data.bytes()});
  }
  // Size the regeneration by the gathered fragments themselves: a server
  // that learned of this version only through convergence may not know the
  // value size yet, and fragment repair does not need it.
  const size_t frag_size = work.gathered.begin()->second.size();
  std::vector<Fragment> regenerated = Fragment::seal_all(
      codec(meta.policy).regenerate_sized(available, targets, frag_size));

  for (size_t i = 0; i < targets.size(); ++i) {
    const int slot = targets[i];
    Fragment fragment = std::move(regenerated[i]);
    const Sha256::Digest digest = fragment.digest();
    const auto& loc = meta.locs[static_cast<size_t>(slot)];
    PAHOEHOE_CHECK(loc.has_value());
    if (loc->fs == id()) {
      store_frag_.put_fragment(entry, slot, std::move(fragment), digest,
                               loc->disk);
    } else {
      // §4.2: push the recovered fragment to its sibling.
      send(loc->fs, wire::SiblingStoreReq{ov, meta,
                                          static_cast<uint16_t>(slot),
                                          std::move(fragment), digest});
    }
  }
  m_recoveries_->inc();
  work.next_attempt = sim_.now();  // verify at the next round
  clear_recovery_state(ov, work);
  if (telemetry().spans.enabled()) {
    telemetry().spans.interval(
        ov, "recovery_complete", id(), sim_.now(), sim_.now(),
        "regenerated=" + std::to_string(targets.size()));
    telemetry().spans.report_work(ov, id(), work.next_attempt, false);
  }
  ensure_round_scheduled();
}

void FragmentServer::arm_recovery_retry(const ObjectVersionId& ov,
                                        Work& work) {
  // Periodically retransmit whatever fetches are still outstanding and top
  // up from fresh candidates; one lost message must not sink the attempt.
  work.recovery_retry = sim_.schedule_after(
      kRecoveryRetryInterval, [this, ov] {
        Work* w = work_.find(ov);
        if (w == nullptr || !w->recovering) return;
        w->recovery_retry = 0;
        const obs::SpanTracer::Scope span_scope =
            telemetry().spans.version_scope(ov, "recovery_retry", id());
        const Metadata& meta = w->entry->meta;
        for (int slot : w->requested_slots) {
          const auto& loc = meta.locs[static_cast<size_t>(slot)];
          if (!loc.has_value()) continue;
          send(loc->fs, wire::RetrieveFragReq{ov, static_cast<uint16_t>(slot)});
        }
        if (!w->plain_recovery) recovery_gather(ov, *w);
        if (w->recovering && w->recovery_retry == 0) arm_recovery_retry(ov, *w);
      });
}

void FragmentServer::arm_recovery_deadline(const ObjectVersionId& ov,
                                           Work& work) {
  work.recovery_deadline = sim_.schedule_after(
      kRecoveryWait + kRecoveryTimeout, [this, ov] {
        Work* w = work_.find(ov);
        if (w == nullptr || !w->recovering) return;
        w->recovery_deadline = 0;
        // Sources are unreachable or replies were lost; retry with backoff.
        cancel_recovery(ov, *w);
      });
}

void FragmentServer::clear_recovery_state(const ObjectVersionId& ov,
                                          Work& work) {
  work.recovering = false;
  work.plain_recovery = false;
  work.gathered.clear();
  work.requested_slots.clear();
  work.failed_slots.clear();
  work.sibling_needs.clear();
  if (work.recovery_timer != 0) {
    sim_.cancel(work.recovery_timer);
    work.recovery_timer = 0;
  }
  if (work.recovery_deadline != 0) {
    sim_.cancel(work.recovery_deadline);
    work.recovery_deadline = 0;
  }
  if (work.recovery_retry != 0) {
    sim_.cancel(work.recovery_retry);
    work.recovery_retry = 0;
  }
  reindex(ov, work);
}

void FragmentServer::cancel_recovery(const ObjectVersionId& ov, Work& work) {
  if (!work.recovering) return;
  clear_recovery_state(ov, work);
  m_backoffs_->inc();
  if (telemetry().spans.enabled()) {
    telemetry().spans.interval(ov, "recovery_canceled", id(), sim_.now(),
                               sim_.now());
    telemetry().spans.report_work(ov, id(), work.next_attempt, false);
  }
  ensure_round_scheduled();
}

namespace {

bool has_ack(const std::vector<NodeId>& acks, NodeId node) {
  return std::binary_search(acks.begin(), acks.end(), node);
}

}  // namespace

void FragmentServer::add_ack(Work& work, NodeId node) const {
  auto& acks = work.verify_acks;
  if (acks.capacity() == 0) acks.reserve(max_acks_);
  const auto it = std::lower_bound(acks.begin(), acks.end(), node);
  if (it == acks.end() || *it != node) acks.insert(it, node);
}

void FragmentServer::check_amr(const ObjectVersionId& ov, Work& work) {
  // is_amr (Fig 4 line 25): this FS verifies locally and every KLS and
  // sibling FS replied "verified". Runs on every verified reply, so the
  // cheap ack-set test goes first; the three tests have no side effects,
  // so their order does not change the verdict.
  for (NodeId kls : view_->all_kls) {
    if (!has_ack(work.verify_acks, kls)) return;
  }
  const Entry& entry = *work.entry;
  for (const std::optional<Location>& loc : entry.meta.locs) {
    if (!loc.has_value() || loc->fs == id()) continue;
    if (!has_ack(work.verify_acks, loc->fs)) return;
  }
  if (!local_verify(entry)) return;
  mark_amr(ov, work);
}

void FragmentServer::mark_amr(const ObjectVersionId& ov, Work& work) {
  Entry& entry = *work.entry;
  clear_recovery_state(ov, work);
  m_converge_attempts_->observe(work.attempts);
  m_converged_->inc();
  entry.amr = true;
  telemetry().amr.on_amr_confirmed(ov, sim_.now());
  telemetry().spans.on_amr_confirmed(ov, id());
  telemetry().spans.report_work_done(ov, id());
  if (options_.fs_amr_indication) {
    // §4.1: tell the siblings so they skip their own convergence steps.
    for (NodeId fs : entry.meta.sibling_fs()) {
      if (fs == id()) continue;
      send(fs, wire::AmrIndication{ov});
    }
  }
  erase_work(ov, work);
}

// --- message handlers --------------------------------------------------------

void FragmentServer::on_store_fragment(NodeId from,
                                       wire::StoreFragmentReq&& req) {
  const bool ok = receive_fragment(req.ov, req.meta, req.frag_index,
                                   std::move(req.fragment), req.digest);
  send(from, wire::StoreFragmentRep{
                 req.ov, req.frag_index,
                 ok ? wire::Status::kSuccess : wire::Status::kFailure});
}

void FragmentServer::on_sibling_store(NodeId from,
                                      wire::SiblingStoreReq&& req) {
  const bool ok = receive_fragment(req.ov, req.meta, req.frag_index,
                                   std::move(req.fragment), req.digest);
  send(from, wire::SiblingStoreRep{
                 req.ov, req.frag_index,
                 ok ? wire::Status::kSuccess : wire::Status::kFailure});
}

void FragmentServer::on_retrieve_frag(NodeId from,
                                      const wire::RetrieveFragReq& req) {
  // Fig 3 (fs): reply with the fragment or ⊥. Corrupt fragments read as ⊥
  // (hash verification on the read path).
  wire::RetrieveFragRep rep;
  rep.ov = req.ov;
  rep.frag_index = req.frag_index;
  if (const storage::StoredFragment* frag =
          store_frag_.fragment_if_intact(req.ov, req.frag_index);
      frag != nullptr) {
    rep.found = true;
    rep.fragment = frag->data;  // shares the buffer
  }
  send(from, rep);
}

void FragmentServer::on_fs_converge(NodeId from,
                                    const wire::FsConvergeReq& req) {
  // Fig 4 lines 16–22.
  Records rec = find_records(req.ov);
  merge_meta(req.ov, rec, req.meta, /*create_work=*/true);
  Work* work = rec.work;

  // §4.2 lower-id backoff: if we are also attempting sibling recovery and
  // the requester has the higher unique server id, we stand down.
  if (req.intends_recovery && work != nullptr && work->recovering &&
      from.value > id().value) {
    m_collisions_->inc();
    cancel_recovery(req.ov, *work);
    bump_backoff(req.ov, *work);
    telemetry().spans.report_work(req.ov, id(), work->next_attempt, false);
  }

  wire::FsConvergeRep rep;
  rep.ov = req.ov;
  rep.verified = local_verify(*rec.entry);
  if (req.intends_recovery) {
    for (int slot : missing_local_fragments(*rec.entry)) {
      rep.needed_fragments.push_back(static_cast<uint16_t>(slot));
    }
  }
  rep.also_recovering = work != nullptr && work->recovering;
  send(from, rep);
}

void FragmentServer::on_fs_converge_rep(NodeId from,
                                        const wire::FsConvergeRep& rep) {
  Work* found = work_.find(rep.ov);
  if (found == nullptr) return;
  Work& work = *found;

  if (work.recovering && !work.plain_recovery) {
    if (!rep.needed_fragments.empty()) {
      std::vector<int> needs(rep.needed_fragments.begin(),
                             rep.needed_fragments.end());
      work.sibling_needs[from] = std::move(needs);
    }
    // Reply-path backoff mirror of the §4.2 rule.
    if (rep.also_recovering && from.value > id().value) {
      m_collisions_->inc();
      cancel_recovery(rep.ov, work);
      bump_backoff(rep.ov, work);
      telemetry().spans.report_work(rep.ov, id(), work.next_attempt, false);
      return;
    }
  }
  if (rep.verified) {
    add_ack(work, from);
    // A verified sibling proves its assigned fragments are intact; that is
    // durable-class evidence this FS can certify without any extra traffic.
    if (!work.durable_evidence) {
      for (int slot : work.entry->meta.fragments_for(from)) {
        certify_slot(work, slot);
      }
    }
    check_amr(rep.ov, work);
  } else if (!work.recovering &&
             version_age(rep.ov) > options_.giveup_age) {
    // A definite "no" past the non-durable horizon, where only durable-class
    // versions are left: prove the evidence or have it revoked. A "no"
    // during a recovery answers its own intent and is already being served.
    work.prove_evidence = true;
  }
}

void FragmentServer::on_kls_converge_rep(NodeId from,
                                         const wire::KlsConvergeRep& rep) {
  Work* work = work_.find(rep.ov);
  if (work == nullptr || !rep.verified) return;
  add_ack(*work, from);
  check_amr(rep.ov, *work);
}

void FragmentServer::on_amr_indication(const wire::AmrIndication& msg) {
  // §4.1: the version is AMR; drop it from the work-list (fragments stay).
  // Count as a skip only when the indication actually removed pending
  // convergence work — the rounds-saved quantity Fig 5 prices in.
  const Records rec = find_records(msg.ov);
  if (rec.work != nullptr) {
    m_amr_skips_->inc();
    // Chains under the AmrIndication message span: the skipped rounds the
    // §4.1 optimization buys are visible in the version's tree.
    telemetry().spans.interval(msg.ov, "amr_skip", id(), sim_.now(),
                               sim_.now());
    clear_recovery_state(msg.ov, *rec.work);
    erase_work(msg.ov, *rec.work);
  }
  // Siblings learn of a version by storing it before anyone can confirm it
  // AMR, so an indication for a version never stored here names nothing.
  if (rec.entry != nullptr) rec.entry->amr = true;
  telemetry().spans.report_work_done(msg.ov, id());
}

void FragmentServer::on_decide_locs_rep(const wire::DecideLocsRep& rep) {
  // Fig 4 lines 12–15: merge useful locations from our own probe.
  Work* work = work_.find(rep.ov);
  if (work == nullptr) return;
  Records rec{work->entry, work};
  merge_meta(rep.ov, rec, rep.meta, /*create_work=*/false);
}

void FragmentServer::on_kls_locs_notify(const wire::KlsLocsNotify& msg) {
  // §3.5: a KLS decided locations on behalf of a sibling FS; treat like a
  // converge announcement (we may be hosting fragments we do not have yet).
  Records rec = find_records(msg.ov);
  merge_meta(msg.ov, rec, msg.meta, /*create_work=*/true);
}

void FragmentServer::on_retrieve_frag_rep(NodeId /*from*/,
                                          wire::RetrieveFragRep&& rep) {
  Work* found = work_.find(rep.ov);
  if (found == nullptr || !found->recovering) return;
  Work& work = *found;
  if (work.requested_slots.count(rep.frag_index) == 0) return;
  work.requested_slots.erase(rep.frag_index);
  if (rep.found) {
    // A source serves only a fragment it holds intact: evidence on receipt.
    certify_slot(work, rep.frag_index);
    work.gathered.emplace(static_cast<int>(rep.frag_index),
                          std::move(rep.fragment));
    recovery_maybe_finish(rep.ov, work);
  } else {
    work.failed_slots.insert(rep.frag_index);
    if (!work.plain_recovery) {
      // A source we counted on lacks its fragment; try further candidates.
      recovery_gather(rep.ov, work);
    }
  }
  // Plain recovery requested every decided slot already; if too many ⊥
  // replies come back the attempt starves and the next round retries it.
  // Detect exhaustion: no outstanding requests and still short of k.
  if (work.recovering && work.requested_slots.empty() &&
      static_cast<int>(work.gathered.size()) < work.entry->meta.policy.k) {
    // Every requested source replied and we are still short of k: the
    // reachable cluster demonstrably lacks the fragments (crashed sources
    // take the deadline path instead and keep the evidence).
    revoke_durable_evidence(work);
    cancel_recovery(rep.ov, work);
  }
}

// --- fault injection & lifecycle ---------------------------------------------

size_t FragmentServer::destroy_disk(uint8_t disk) {
  return store_frag_.destroy_disk(disk);
}

bool FragmentServer::corrupt_fragment(const ObjectVersionId& ov,
                                      int frag_index) {
  return store_frag_.corrupt_fragment(ov, frag_index);
}

bool FragmentServer::corrupt_random_fragment(Rng& rng) {
  std::vector<std::pair<ObjectVersionId, int>> stored;
  for (const auto* item : store_frag_.sorted()) {
    const auto& [ov, entry] = *item;
    for (const auto& [index, frag] : entry.fragments) {
      if (!frag.data.empty()) stored.emplace_back(ov, index);
    }
  }
  if (stored.empty()) return false;
  const auto& [ov, index] = stored[static_cast<size_t>(
      rng.uniform_int(0, static_cast<int64_t>(stored.size()) - 1))];
  return store_frag_.corrupt_fragment(ov, index);
}

void FragmentServer::schedule_scrub() {
  if (options_.scrub_interval <= 0 || crashed()) return;
  // Jittered so sibling scrubs do not synchronize.
  const SimTime jitter =
      sim_.rng().uniform_int(0, options_.scrub_interval / 10 + 1);
  scrub_timer_ =
      sim_.schedule_after(options_.scrub_interval + jitter, [this] {
        scrub_timer_ = 0;
        scrub();
        ++scrubs_run_;
        schedule_scrub();
      });
}

size_t FragmentServer::scrub() {
  obs::ProfScope prof("fs_scrub");
  size_t readded = 0;
  for (auto* item : store_frag_.sorted()) {
    auto& [ov, entry] = *item;
    if (work_.contains(ov)) continue;
    // Honor the give-up horizon (§3.5): resurrecting a version convergence
    // already gave up on would livelock scrub against give-up. Past the
    // horizon, damaged non-durable versions are left to the (elided) disk
    // rebuild; versions in the AMR history are durable-class and never
    // given up, so scrub repairs them no matter how old.
    const bool durable = entry.amr;
    if (version_age(ov) > options_.giveup_age && !durable) continue;
    if (local_fragments_intact(entry)) continue;
    reindex(ov, *work_.try_emplace(ov, entry).first);
    telemetry().spans.report_work(ov, id(), 0, false);
    // The class note mirrors give_up's: coverage tells a durable-class
    // repair of an old AMR version (legal) from a non-durable re-add past
    // the give-up age (a horizon violation).
    telemetry().spans.interval(ov, "scrub_readd", id(), sim_.now(),
                               sim_.now(),
                               durable ? "class=durable"
                                       : "class=non-durable");
    ++readded;
  }
  if (readded > 0) {
    m_scrub_repairs_->inc(readded);
    ensure_round_scheduled();
  }
  return readded;
}

void FragmentServer::on_crash() {
  // Volatile state is lost; persistent stores survive (§3.1). The work-list
  // keys are persistent, but each entry restarts from fresh Work.
  if (round_timer_ != 0) {
    sim_.cancel(round_timer_);
    round_timer_ = 0;
  }
  if (scrub_timer_ != 0) {
    sim_.cancel(scrub_timer_);
    scrub_timer_ = 0;
  }
  for (auto* item : work_.sorted()) {
    auto& [ov, work] = *item;
    clear_recovery_state(ov, work);
    telemetry().spans.report_work_done(ov, id());
    unindex(ov, work);
    work = Work(*work.entry);
    reindex(ov, work);
  }
}

void FragmentServer::on_recover() {
  // on_crash reset every entry, so each is eligible at the next round.
  for (const auto* item : work_.sorted()) {
    telemetry().spans.report_work(item->first, id(), 0, false);
  }
  ensure_round_scheduled();
  schedule_scrub();
}

void FragmentServer::dispatch(wire::Envelope&& env) {
  using wire::MessageType;
  wire::Message& msg = env.msg;
  switch (env.type) {
    case MessageType::kStoreFragmentReq:
      on_store_fragment(env.from,
                        std::move(std::get<wire::StoreFragmentReq>(msg)));
      break;
    case MessageType::kSiblingStoreReq:
      on_sibling_store(env.from,
                       std::move(std::get<wire::SiblingStoreReq>(msg)));
      break;
    case MessageType::kRetrieveFragReq:
      on_retrieve_frag(env.from, std::get<wire::RetrieveFragReq>(msg));
      break;
    case MessageType::kFsConvergeReq:
      on_fs_converge(env.from, std::get<wire::FsConvergeReq>(msg));
      break;
    case MessageType::kFsConvergeRep:
      on_fs_converge_rep(env.from, std::get<wire::FsConvergeRep>(msg));
      break;
    case MessageType::kKlsConvergeRep:
      on_kls_converge_rep(env.from, std::get<wire::KlsConvergeRep>(msg));
      break;
    case MessageType::kAmrIndication:
      on_amr_indication(std::get<wire::AmrIndication>(msg));
      break;
    case MessageType::kDecideLocsRep:
      on_decide_locs_rep(std::get<wire::DecideLocsRep>(msg));
      break;
    case MessageType::kKlsLocsNotify:
      on_kls_locs_notify(std::get<wire::KlsLocsNotify>(msg));
      break;
    case MessageType::kRetrieveFragRep:
      on_retrieve_frag_rep(env.from,
                           std::move(std::get<wire::RetrieveFragRep>(msg)));
      break;
    case MessageType::kSiblingStoreRep:
      break;  // recovered-fragment push acks carry no actionable state
    case MessageType::kStoreFragmentRep:
      break;  // possible if a proxy role ever shares an id; ignore
    default:
      PAHOEHOE_CHECK_MSG(false, "unexpected message type at FS");
  }
}

}  // namespace pahoehoe::core
