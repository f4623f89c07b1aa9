#include "chaos/shrink.h"

#include <algorithm>

namespace pahoehoe::chaos {

namespace {

using core::FaultSpec;

/// One deterministic probe: does `schedule` still break an invariant?
struct Prober {
  core::RunConfig config;
  int runs = 0;
  int max_runs;
  core::AuditReport last_failing_audit;
  core::AuditReport last_audit;

  bool budget_left() const { return runs < max_runs; }

  bool fails(const std::vector<FaultSpec>& schedule) {
    ++runs;
    config.faults = schedule;
    core::RunResult result = core::run_experiment(config);
    last_audit = result.audit;
    if (!result.audit.passed()) {
      last_failing_audit = result.audit;
      return true;
    }
    return false;
  }
};

/// ddmin-style chunk removal: try dropping chunks of decreasing size until
/// no single fault can be removed.
std::vector<FaultSpec> minimize_faults(Prober& prober,
                                       std::vector<FaultSpec> schedule) {
  size_t chunk = schedule.size() / 2;
  if (chunk == 0) chunk = 1;
  while (chunk >= 1) {
    bool removed_any = false;
    for (size_t i = 0; i + 1 <= schedule.size() && schedule.size() > 1;) {
      if (!prober.budget_left()) return schedule;
      const size_t len = std::min(chunk, schedule.size() - i);
      std::vector<FaultSpec> candidate;
      candidate.reserve(schedule.size() - len);
      candidate.insert(candidate.end(), schedule.begin(),
                       schedule.begin() + static_cast<long>(i));
      candidate.insert(candidate.end(),
                       schedule.begin() + static_cast<long>(i + len),
                       schedule.end());
      if (!candidate.empty() && prober.fails(candidate)) {
        schedule = std::move(candidate);
        removed_any = true;
        // Same index now holds the next chunk; do not advance.
      } else {
        i += len;
      }
    }
    if (chunk == 1) {
      if (!removed_any) break;  // fixpoint at granularity 1
    } else {
      chunk /= 2;
    }
  }
  return schedule;
}

/// Parameter shrinking: halve windows (toward min_len) and rates (toward a
/// floor) as long as the smaller fault still reproduces the failure.
std::vector<FaultSpec> minimize_params(Prober& prober,
                                       std::vector<FaultSpec> schedule) {
  constexpr SimTime kMinWindow = 1 * kMicrosPerSecond;
  constexpr double kMinRate = 0.01;
  for (size_t i = 0; i < schedule.size(); ++i) {
    // Halve this fault's window repeatedly while the failure persists.
    for (int step = 0; step < 16; ++step) {
      if (!prober.budget_left()) return schedule;
      FaultSpec& spec = schedule[i];
      std::vector<FaultSpec> candidate = schedule;
      bool changed = false;
      const SimTime window = spec.end - spec.start;
      if (window > kMinWindow) {
        candidate[i].end = spec.start + std::max(kMinWindow, window / 2);
        changed = true;
      }
      if (spec.rate > kMinRate) {
        candidate[i].rate = std::max(kMinRate, spec.rate / 2);
        changed = true;
      }
      if (!changed) break;
      if (prober.fails(candidate)) {
        schedule = std::move(candidate);
      } else {
        break;
      }
    }
  }
  return schedule;
}

}  // namespace

ShrinkResult shrink_schedule(core::RunConfig config,
                             std::vector<core::FaultSpec> schedule,
                             const ShrinkOptions& options) {
  Prober prober{std::move(config), 0, options.max_runs, {}, {}};

  ShrinkResult result;
  if (!prober.fails(schedule)) {
    // Nothing to shrink: the full schedule passes.
    result.schedule = std::move(schedule);
    result.runs = prober.runs;
    result.audit = prober.last_audit;
    return result;
  }

  schedule = minimize_faults(prober, std::move(schedule));
  schedule = minimize_params(prober, std::move(schedule));

  result.schedule = std::move(schedule);
  result.runs = prober.runs;
  result.audit = prober.last_failing_audit;
  return result;
}

}  // namespace pahoehoe::chaos
