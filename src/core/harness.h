// Experiment harness: one self-contained simulated run of the paper's
// workload under a fault schedule, plus multi-seed aggregation (the paper
// runs 50–150 seeds and reports means with 95% confidence checks, §5.1).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/cluster.h"
#include "obs/attribution.h"
#include "core/config.h"
#include "core/workload.h"
#include "net/network.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"

namespace pahoehoe::core {

/// Declarative fault to install before the run starts.
struct FaultSpec {
  enum class Kind {
    kFsBlackout,   ///< drop all traffic of FS (dc, index) in [start, end)
    kKlsBlackout,  ///< drop all traffic of KLS (dc, index) in [start, end)
    kDcPartition,  ///< isolate an entire data center in [start, end)
    kUniformLoss,  ///< drop every message iid with `rate`, whole run
    kFsCrash,      ///< crash FS (dc, index) at `start`, recover at `end`
                   ///< (volatile state lost; stable storage survives)
    kKlsCrash,     ///< same for a KLS
    kFragCorrupt,  ///< at `start`, flip a byte of one uniformly chosen
                   ///< stored fragment on FS (dc, index) — silent corruption
    kProxyCrash,   ///< crash proxy `index_in_dc` (global index) at `start`,
                   ///< recover at `end`; in-flight client ops are lost
    kDuplicationBurst,  ///< raise the network duplication rate to `rate`
                        ///< during [start, end)
    kDiskDestroy,  ///< at `start`, wipe every fragment on disk `disk` of
                   ///< FS (dc, index) — bulk data loss; scrub + convergence
                   ///< must rebuild from siblings
  };
  static constexpr int kKindCount = 10;

  Kind kind = Kind::kUniformLoss;
  int dc = 0;
  int index_in_dc = 0;
  int disk = 0;  ///< kDiskDestroy only
  SimTime start = 0;
  SimTime end = 0;
  double rate = 0.0;

  static FaultSpec fs_blackout(int dc, int index, SimTime start, SimTime end);
  static FaultSpec kls_blackout(int dc, int index, SimTime start,
                                SimTime end);
  static FaultSpec dc_partition(int dc, SimTime start, SimTime end);
  static FaultSpec uniform_loss(double rate);
  static FaultSpec fs_crash(int dc, int index, SimTime start, SimTime end);
  static FaultSpec kls_crash(int dc, int index, SimTime start, SimTime end);
  static FaultSpec frag_corrupt(int dc, int index, SimTime at);
  static FaultSpec proxy_crash(int index, SimTime start, SimTime end);
  static FaultSpec duplication_burst(double rate, SimTime start, SimTime end);
  static FaultSpec disk_destroy(int dc, int index, int disk, SimTime at);

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// One-line human-readable description, also valid C++ for pasting into a
/// RunConfig's fault list (the shrinker's repro output).
std::string to_repro_string(const FaultSpec& spec);

/// Trace lines kept in the forensics dump of a failed run.
inline constexpr size_t kTraceTailLines = 40;

/// Observability knobs for one run. Everything defaults off: the figure
/// benches and chaos sweeps opt in to exactly what they need, and a run
/// with telemetry off is event-for-event identical to the pre-telemetry
/// harness.
struct TelemetryOptions {
  /// Periodic metric sampling interval (sim time); 0 disables the sampler.
  /// Samples are taken on the simulation's own event queue at k * interval
  /// and stop once the rest of the queue drains — note the sampler's
  /// events are counted by RunResult::events and can extend end_time by up
  /// to one interval (see DESIGN.md).
  SimTime sample_interval = 0;
  /// Enable net::Tracer with this ring capacity; 0 disables. When on, a
  /// failed audit attaches the trailing trace window to the RunResult.
  /// Message counts and bytes come from NetworkStats either way.
  size_t trace_capacity = 0;
  /// Causal span tracing (obs/span.h): per-version lifecycle trees,
  /// put-ack → AMR critical-path attribution, and the tail attribution
  /// report over those paths (obs/attribution.h). The tracer is a pure
  /// observer (no events, no RNG draws) and the report is built after the
  /// run, so enabling this never perturbs the run.
  bool spans = false;
};

struct RunConfig {
  ClusterTopology topology;
  ConvergenceOptions convergence;
  ProxyOptions proxy;
  WorkloadConfig workload;
  TelemetryOptions telemetry;
  std::vector<FaultSpec> faults;
  uint64_t seed = 1;
  /// Hard stop; generous enough for the two-month give-up horizon.
  SimTime max_sim_time = 200LL * 24 * 3600 * kMicrosPerSecond;
  /// Liveness budgets audited at the end of the run; 0 disables the check.
  /// A run that blows a budget fails the audit even if it converged —
  /// convergence must be cheap as well as eventual.
  uint64_t event_budget = 0;    ///< simulator events executed
  uint64_t message_budget = 0;  ///< network messages sent
};

/// One broken invariant, attributed to an object version where applicable.
struct InvariantViolation {
  enum class Kind {
    kAckedNonDurable,   ///< a client-acked put ended with < k intact frags
    kAckedNotAmr,       ///< a client-acked put was durable but never AMR
    kDurableNotAmr,     ///< a durable version (acked or not) stuck non-AMR
    kGetValueMismatch,  ///< a completed get returned bytes != what was put
    kNotQuiescent,      ///< convergence work still pending at the horizon
    kEventBudget,       ///< simulator executed more events than budgeted
    kMessageBudget,     ///< network sent more messages than budgeted
  };

  Kind kind;
  ObjectVersionId ov;  ///< zero-initialized for run-global violations
  std::string detail;
};

const char* to_string(InvariantViolation::Kind kind);

/// Machine-checkable verdict of one run: empty == every audited invariant
/// held (the paper's convergence claim plus read-your-writes integrity).
struct AuditReport {
  std::vector<InvariantViolation> violations;

  bool passed() const { return violations.empty(); }
  /// Multi-line "kind ov: detail" listing ("all invariants held" if none).
  std::string to_string() const;
};

struct RunResult {
  net::NetworkStats stats;

  int puts_attempted = 0;
  int puts_acked = 0;    ///< success replies seen by the client
  int puts_failed = 0;

  int gets_attempted = 0;
  int gets_ok = 0;          ///< completed with a value
  int gets_mismatched = 0;  ///< completed with the WRONG value

  int versions_total = 0;
  int amr = 0;
  /// AMR versions whose put the client saw fail (paper Fig 9 "excess AMR").
  int excess_amr = 0;
  int durable_not_amr = 0;  ///< should be 0 at quiescence
  int non_durable = 0;
  int given_up = 0;         ///< work-list entries dropped at the give-up age

  /// When the last event executed — effectively the time the system went
  /// quiet (all convergence work done or given up).
  SimTime end_time = 0;
  uint64_t events = 0;
  bool quiescent = false;

  /// Client-observed per-op latencies in seconds, in resolution order: puts
  /// from first-attempt arrival to final resolution (acked ops only — a
  /// failed put's "latency" is a timeout artifact), gets issue → value.
  std::vector<double> put_latency_s;
  std::vector<double> get_latency_s;

  AuditReport audit;

  // --- telemetry (always populated; sampler/tracer fields only when the
  // corresponding TelemetryOptions knob was on) ----------------------------
  /// Final snapshot of every metric the run registered.
  obs::MetricRegistry metrics;
  /// Periodic samples (empty unless telemetry.sample_interval > 0).
  obs::TimeSeries timeline;
  /// Put-ack → AMR-confirmation latency distribution (seconds).
  QuantileSketch time_to_amr_s;
  uint64_t amr_confirmed = 0;     ///< versions some node confirmed AMR
  size_t amr_backlog_final = 0;   ///< acked-but-not-yet-AMR at run end
  size_t amr_backlog_peak = 0;
  /// Forensics: trailing trace window, captured only when the audit failed
  /// and telemetry.trace_capacity was > 0.
  std::string trace_tail;
  uint64_t trace_overflowed = 0;  ///< records evicted from the trace ring
  /// Per-version critical-path decompositions in confirmation order, and
  /// their mergeable aggregate (empty unless telemetry.spans was on).
  std::vector<obs::VersionCriticalPath> critical_paths;
  obs::CriticalPathAggregate critical_path;
  /// The run's span tracer, moved out of the Network at the end of the run
  /// so callers can render trees / export Perfetto traces.
  obs::SpanTracer spans;
  /// Forensics: span tree of the first audit violation that names a traced
  /// version (empty when the audit passed or spans were off).
  std::string span_forensics;
  /// Tail (≥p95) vs. body cohort attribution over this run's critical
  /// paths (empty unless telemetry.spans).
  obs::AttributionReport attribution;
  /// Host wall-clock phase breakdown of this run (empty unless
  /// obs::prof profiling is enabled). Pure side channel — excluded from
  /// every determinism digest (DESIGN.md §11).
  obs::ProfReport profile;
};

/// Build a cluster, run the workload under the faults, drive the simulation
/// to quiescence, and classify every attempted version with the oracle.
RunResult run_experiment(const RunConfig& config);

/// Multi-seed aggregate of RunResults.
struct AggregateResult {
  int seeds = 0;
  SampleStats msg_count;
  SampleStats msg_bytes;
  SampleStats wan_bytes;
  std::array<SampleStats, wire::kMessageTypeCount> count_by_type;
  std::array<SampleStats, wire::kMessageTypeCount> bytes_by_type;
  SampleStats puts_attempted;
  SampleStats puts_acked;
  SampleStats amr;
  SampleStats excess_amr;
  SampleStats durable_not_amr;
  SampleStats non_durable;
  SampleStats end_time_s;
  /// Per-op latencies pooled across every seed (mergeable sketches, so
  /// per-seed partials combine deterministically), plus the per-seed mean
  /// put latency for CI reporting.
  QuantileSketch put_latency_s;
  QuantileSketch get_latency_s;
  SampleStats put_latency_mean_s;

  // --- telemetry ----------------------------------------------------------
  /// Per-seed registries merged in seed order (counters add, gauges add,
  /// histograms bucket-merge) — byte-identical for every jobs value.
  obs::MetricRegistry metrics;
  /// Pooled put-ack → AMR latency across all seeds (seconds).
  QuantileSketch time_to_amr_s;
  /// Row-aligned mean of per-seed timelines (empty unless sampling was on).
  obs::TimeSeries timeline;
  SampleStats amr_confirmed;
  SampleStats amr_backlog_final;
  /// Per-component critical-path aggregate merged in seed order —
  /// byte-identical to_text() for every jobs value.
  obs::CriticalPathAggregate critical_path;
  /// Tail attribution pooled over every seed's critical paths, walked in
  /// seed order (empty unless telemetry.spans).
  obs::AttributionReport attribution;
  /// Per-seed wall-clock profiles merged in seed order (empty unless
  /// profiling was enabled). Side channel only — never digested.
  obs::ProfReport profile;
};

/// Run `config` under seeds base_seed, base_seed+1, … and aggregate.
/// Seeds are independent runs, dispatched across `jobs` worker threads;
/// aggregation happens in seed order afterwards, so the result is
/// byte-identical for every jobs value.
AggregateResult run_many(RunConfig config, int num_seeds, uint64_t base_seed,
                         int jobs = 1);

/// The paper's default experimental setup (§5.1): 2 DCs × (2 KLS + 3 FS),
/// 100 puts of 100 KiB, default policy. Convergence options filled by the
/// caller.
RunConfig paper_default_config();

}  // namespace pahoehoe::core
