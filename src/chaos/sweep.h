// Chaos sweep driver: run N seeds of randomized fault schedules through the
// invariant auditor, and shrink any failing schedule to a minimal repro.
#pragma once

#include <functional>

#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "core/harness.h"

namespace pahoehoe::chaos {

struct SweepOptions {
  int seeds = 50;
  uint64_t base_seed = 1;
  /// Worker threads to dispatch seeds across (each seed owns its whole
  /// simulation, so seeds parallelize perfectly). Results are collected in
  /// seed order: the SweepResult — outcomes, counters, summary() — is
  /// byte-identical for every jobs value. <= 0 means one per hardware
  /// thread.
  int jobs = 1;
  ScheduleOptions schedule;
  bool shrink_failures = true;
  ShrinkOptions shrink;
  /// Trace ring capacity installed into every seed's run (0 disables). A
  /// failing seed's outcome then carries the trailing trace window plus a
  /// metrics digest as forensics. Kept modest by default: the window is for
  /// "what happened right before the violation", not whole-run capture.
  size_t trace_capacity = 512;
  size_t trace_dump_lines = 40;
  /// Causal span tracing in every seed's run: a failing seed's forensics
  /// then include the span tree of the first violating version (why it
  /// missed AMR, not just that it did). Pure observer — turning it off
  /// changes no simulation behavior, only the forensics detail.
  bool spans = true;
  /// Progress hook, called after each seed completes (may be empty).
  /// Called under a lock, but in completion order, which for jobs > 1 is
  /// not seed order.
  std::function<void(const struct SeedOutcome&)> on_seed;
};

/// What happened under one seed.
struct SeedOutcome {
  uint64_t seed = 0;
  bool passed = false;
  std::vector<core::FaultSpec> schedule;  ///< as generated
  core::AuditReport audit;                ///< of the full schedule
  /// Filled only for failures when shrink_failures is set.
  std::vector<core::FaultSpec> shrunk;
  int shrink_runs = 0;
  /// Failures only: metrics digest + trailing trace window of the original
  /// (unshrunk) failing run, for debugging without a re-run.
  std::string forensics;
};

struct SweepResult {
  int runs = 0;
  int failures = 0;
  std::vector<SeedOutcome> outcomes;  ///< one per seed, in seed order

  bool passed() const { return failures == 0; }
  /// Process exit code for CLI drivers: 0 only when every audited invariant
  /// held in every seed. ANY violation — including a run-global one such
  /// as a blown message budget while every version resolved — is non-zero,
  /// so CI cannot green-light a run that converged too expensively.
  int exit_code() const { return passed() ? 0 : 1; }
  /// Short human-readable summary; failing seeds include the shrunk repro.
  std::string summary() const;
};

/// Run the sweep: for seed s in [base_seed, base_seed + seeds), generate a
/// schedule, append it to config.faults, run, audit. `config` supplies
/// everything but the seed and the generated faults; faults already present
/// in config.faults run in every seed and are shrunk together with the
/// generated ones when a seed fails.
SweepResult run_sweep(core::RunConfig config, const SweepOptions& options);

}  // namespace pahoehoe::chaos
