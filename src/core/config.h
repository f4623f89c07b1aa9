// Configuration knobs for the Pahoehoe protocol stack.
#pragma once

#include <string>

#include "common/types.h"

namespace pahoehoe::core {

/// Shape of the simulated deployment. The paper's evaluation (§5.1) uses
/// two data centers with two replicated KLSs and three FSs each, one proxy.
struct ClusterTopology {
  int num_dcs = 2;
  int kls_per_dc = 2;
  int fs_per_dc = 3;
  int disks_per_fs = 2;
  int num_proxies = 1;

  int total_kls() const { return num_dcs * kls_per_dc; }
  int total_fs() const { return num_dcs * fs_per_dc; }
  bool valid() const {
    return num_dcs >= 1 && kls_per_dc >= 1 && fs_per_dc >= 1 &&
           disks_per_fs >= 1 && num_proxies >= 1;
  }
};

/// Convergence behaviour (§3.4 naïve protocol plus the §4 optimizations).
struct ConvergenceOptions {
  // --- the four optimization switches the evaluation sweeps -----------------
  /// §4.1: an FS that verifies AMR sends indications to its siblings.
  bool fs_amr_indication = false;
  /// §4.1: rounds start uniformly at random in [30 s, 90 s] instead of on a
  /// synchronized fixed-period schedule.
  bool unsync_rounds = false;
  /// §4.1: the proxy sends AMR indications after a fully successful put;
  /// FSs defer convergence of young versions (min_age) to let puts finish.
  bool put_amr_indication = false;
  /// §4.2: one FS recovers all missing sibling fragments and pushes them,
  /// with lower-id backoff to suppress duplicated recovery work.
  bool sibling_recovery = false;

  // --- timing ---------------------------------------------------------------
  /// Minimum version age before an FS initiates convergence (paper: 300 s);
  /// applied only when put_amr_indication is on (naïve convergence "may
  /// start convergence even before the put operation completes", §4.1).
  SimTime min_age = 300 * kMicrosPerSecond;
  /// Stop attempting convergence for *non-durable* versions older than this
  /// (paper: two months for every version, §3.5). A version an FS has
  /// evidence is durable (>= k certified intact fragments cluster-wide, or
  /// verified AMR in the past) is never dropped from the work-list, so scrub
  /// can repair arbitrarily old AMR-eligible versions; non-durable versions
  /// (failed puts that can never converge) leave at this age, which is what
  /// keeps quiescence reachable. Past it, a durable holder that a sibling
  /// answers "not verified" must prove its evidence with a §4.2 sibling
  /// recovery or have it revoked (DESIGN.md §9).
  SimTime giveup_age = 60LL * 24 * 3600 * kMicrosPerSecond;
  /// Cap of the exponential per-version backoff after a convergence step
  /// that did not reach AMR.
  SimTime backoff_max = 7LL * 24 * 3600 * kMicrosPerSecond;
  /// Periodic disk scrub (§3.1 "detect disk corruption using hashes"):
  /// every interval the FS re-checks its fragments and re-enters damaged
  /// versions into convergence. 0 disables (the default — the paper's
  /// evaluation does not scrub). Note: a nonzero interval keeps the event
  /// queue alive forever; drive such simulations with a finite horizon
  /// (Simulator::run(until)) rather than run-to-quiescence.
  SimTime scrub_interval = 0;

  SimTime effective_min_age() const {
    return put_amr_indication ? min_age : 0;
  }

  // --- presets matching the paper's Figure 5 configurations ------------------
  static ConvergenceOptions naive();
  /// FS AMR indications, synchronized round starts (FSAMR-S).
  static ConvergenceOptions fs_amr_sync();
  /// FS AMR indications, unsynchronized round starts (FSAMR-U).
  static ConvergenceOptions fs_amr_unsync();
  /// Put AMR indications only (with unsynchronized rounds), the "PutAMR"
  /// column of Figures 5–8.
  static ConvergenceOptions put_amr();
  /// "Unsynchronized sibling fragment recovery" only (§5.3), the "Sibling"
  /// column of Figures 6–8.
  static ConvergenceOptions sibling_only();
  /// Everything on ("All").
  static ConvergenceOptions all_opts();
};

/// Proxy behaviour.
struct ProxyOptions {
  /// Versions per RetrieveTs page (§3.5 iterative timestamp retrieval);
  /// 0 fetches every version in one reply.
  uint16_t get_page_size = 0;
  /// Additive skew applied to this proxy's loosely synchronized clock.
  SimTime clock_skew = 0;
};

std::string describe(const ConvergenceOptions& opts);

}  // namespace pahoehoe::core
