// Structural mutation of fault schedules (the search's generation half).
//
// The uniform generator (chaos/schedule.h) samples every schedule from the
// same distribution: faults start inside a 30-minute horizon with bounded
// windows and capped rates. Mutation breaks out of that manifold — it can
// push a corruption past the give-up horizon, stretch a blackout across a
// whole recovery epoch, stack two crash windows on the same node, or splice
// the interesting half of one corpus schedule into another. Each operator
// is a pure function of (inputs, seed): the same parent, donor pool, and
// seed always produce the same child, which is what lets the search replay
// and shrink anything it finds.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/schedule.h"
#include "core/harness.h"

namespace pahoehoe::chaos {

/// Bounds for mutated schedules. Wider than ScheduleOptions on purpose:
/// the generator's bounds keep uniform sweeps converging comfortably, the
/// mutator's bounds define how far guided search may push beyond them.
///
/// Mutated faults may move anywhere in [0, kMutateHorizon): 4 h, past
/// chaos_default_config's 2 h give-up age, so mutation (and only mutation)
/// can reach the scrub-after-give-up-window states.
inline constexpr SimTime kMutateHorizon = 4LL * 3600 * kMicrosPerSecond;
/// Schedules never grow beyond this many faults.
inline constexpr int kMutateMaxFaults = 16;

/// Produce one child schedule from `parent`. `corpus` supplies splice
/// donors (may be empty; may include the parent itself). Deterministic in
/// every argument; never returns an empty schedule for a non-empty parent.
std::vector<core::FaultSpec> mutate_schedule(
    const std::vector<core::FaultSpec>& parent,
    const std::vector<std::vector<core::FaultSpec>>& corpus, uint64_t seed,
    const core::ClusterTopology& topology);

}  // namespace pahoehoe::chaos
