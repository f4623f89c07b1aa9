// Greedy schedule shrinking (delta debugging over fault schedules).
//
// Given a RunConfig whose fault schedule fails the invariant audit, find a
// smaller schedule that still fails. Every probe is a full deterministic
// re-run of the simulation with the same seed, so a reduction is kept only
// if the violation actually reproduces without the dropped faults. The
// result prints as a ready-to-paste FaultSpec list (format_repro).
#pragma once

#include "chaos/schedule.h"
#include "core/harness.h"

namespace pahoehoe::chaos {

struct ShrinkOptions {
  /// Hard cap on simulation re-runs; shrinking stops (keeping the best
  /// schedule so far) when the budget is exhausted.
  int max_runs = 400;
};

struct ShrinkResult {
  std::vector<core::FaultSpec> schedule;  ///< minimal failing schedule found
  int runs = 0;                           ///< simulation re-runs spent
  core::AuditReport audit;                ///< audit of the final schedule
};

/// Minimize `schedule` while `run_experiment` still fails its audit.
/// `config.faults` is ignored (overwritten per probe); everything else in
/// `config` — including the seed — is held fixed. If the full schedule does
/// not fail, returns it unchanged with a passing audit and runs == 1.
ShrinkResult shrink_schedule(core::RunConfig config,
                             std::vector<core::FaultSpec> schedule,
                             const ShrinkOptions& options = {});

}  // namespace pahoehoe::chaos
