#include "chaos/mutate.h"

#include <algorithm>

#include "common/rng.h"

namespace pahoehoe::chaos {

namespace {

using core::FaultSpec;

/// Widened windows are capped at this length.
constexpr SimTime kMaxWindow = 60LL * 60 * kMicrosPerSecond;
/// Whole-run iid loss stays below this under escalation (1.0 would blind
/// the run entirely and teach the search nothing).
constexpr double kMaxLossRate = 0.5;
constexpr double kMaxDuplicationRate = 1.0;
/// Mutation operators applied per child (1..kMaxOps, rng-chosen).
constexpr int kMaxOps = 3;

bool instant(const FaultSpec& spec) {
  return spec.kind == FaultSpec::Kind::kFragCorrupt ||
         spec.kind == FaultSpec::Kind::kDiskDestroy;
}

bool windowed(const FaultSpec& spec) {
  return !instant(spec) && spec.kind != FaultSpec::Kind::kUniformLoss;
}

bool rated(const FaultSpec& spec) {
  return spec.kind == FaultSpec::Kind::kUniformLoss ||
         spec.kind == FaultSpec::Kind::kDuplicationBurst;
}

size_t pick(Rng& rng, size_t size) {
  return static_cast<size_t>(
      rng.uniform_int(0, static_cast<int64_t>(size) - 1));
}

void clamp_times(FaultSpec& spec) {
  spec.start = std::clamp<SimTime>(spec.start, 0, kMutateHorizon - 1);
  if (instant(spec)) {
    spec.end = spec.start;
  } else if (windowed(spec)) {
    spec.end =
        std::clamp<SimTime>(spec.end, spec.start, spec.start + kMaxWindow);
  }
}

/// Move a fault in time, keeping its window length.
void op_shift(Rng& rng, FaultSpec& spec) {
  if (spec.kind == FaultSpec::Kind::kUniformLoss) return;
  const SimTime len = spec.end - spec.start;
  const SimTime range = kMutateHorizon / 4;
  spec.start += rng.uniform_int(-range, range);
  spec.start = std::clamp<SimTime>(spec.start, 0, kMutateHorizon - 1);
  spec.end = spec.start + len;
  clamp_times(spec);
}

/// Stretch a window (or re-place an instant fault anywhere in the horizon —
/// the only way a corruption escapes the generator's 30-minute box).
void op_widen(Rng& rng, FaultSpec& spec) {
  if (instant(spec)) {
    spec.start = rng.uniform_int(0, kMutateHorizon - 1);
    spec.end = spec.start;
    return;
  }
  if (!windowed(spec)) return;
  spec.end += rng.uniform_int(30 * kMicrosPerSecond, kMaxWindow);
  clamp_times(spec);
}

/// Align one fault's window to overlap another's (concurrent faults are
/// where the §4.2 races live).
void op_overlap(Rng& rng, std::vector<FaultSpec>& schedule) {
  if (schedule.size() < 2) return;
  const size_t a = pick(rng, schedule.size());
  size_t b = pick(rng, schedule.size() - 1);
  if (b >= a) ++b;
  const FaultSpec& anchor = schedule[a];
  FaultSpec& moved = schedule[b];
  if (moved.kind == FaultSpec::Kind::kUniformLoss ||
      anchor.kind == FaultSpec::Kind::kUniformLoss) {
    return;
  }
  const SimTime len = moved.end - moved.start;
  moved.start = rng.uniform_int(anchor.start, std::max(anchor.start,
                                                       anchor.end));
  moved.end = moved.start + len;
  clamp_times(moved);
}

/// Point the fault at a different node / data center / disk.
void op_retarget(Rng& rng, FaultSpec& spec,
                 const core::ClusterTopology& topology) {
  spec.dc = static_cast<int>(rng.uniform_int(0, topology.num_dcs - 1));
  switch (spec.kind) {
    case FaultSpec::Kind::kFsBlackout:
    case FaultSpec::Kind::kFsCrash:
    case FaultSpec::Kind::kFragCorrupt:
      spec.index_in_dc =
          static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
      break;
    case FaultSpec::Kind::kDiskDestroy:
      spec.index_in_dc =
          static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
      spec.disk =
          static_cast<int>(rng.uniform_int(0, topology.disks_per_fs - 1));
      break;
    case FaultSpec::Kind::kKlsBlackout:
    case FaultSpec::Kind::kKlsCrash:
      spec.index_in_dc =
          static_cast<int>(rng.uniform_int(0, topology.kls_per_dc - 1));
      break;
    case FaultSpec::Kind::kProxyCrash:
      spec.index_in_dc =
          static_cast<int>(rng.uniform_int(0, topology.num_proxies - 1));
      break;
    case FaultSpec::Kind::kDcPartition:
    case FaultSpec::Kind::kUniformLoss:
    case FaultSpec::Kind::kDuplicationBurst:
      break;  // dc re-roll above is all there is to retarget
  }
}

/// Turn the intensity up: raise a rate toward its cap, or duplicate a
/// non-rated fault at a shifted time.
void op_escalate(Rng& rng, std::vector<FaultSpec>& schedule, size_t i) {
  FaultSpec& spec = schedule[i];
  if (rated(spec)) {
    const double cap = spec.kind == FaultSpec::Kind::kUniformLoss
                           ? kMaxLossRate
                           : kMaxDuplicationRate;
    spec.rate = std::min(cap, spec.rate * (1.2 + rng.uniform01()));
    return;
  }
  if (static_cast<int>(schedule.size()) >= kMutateMaxFaults) return;
  FaultSpec copy = spec;
  op_shift(rng, copy);
  schedule.push_back(copy);
}

/// Copy one fault from a donor schedule (crossover).
void op_splice(Rng& rng, std::vector<FaultSpec>& schedule,
               const std::vector<std::vector<FaultSpec>>& corpus) {
  if (corpus.empty()) return;
  const std::vector<FaultSpec>& donor = corpus[pick(rng, corpus.size())];
  if (donor.empty()) return;
  const FaultSpec& gene = donor[pick(rng, donor.size())];
  if (static_cast<int>(schedule.size()) < kMutateMaxFaults) {
    schedule.push_back(gene);
  } else {
    schedule[pick(rng, schedule.size())] = gene;
  }
}

void op_drop(Rng& rng, std::vector<FaultSpec>& schedule) {
  if (schedule.size() < 2) return;
  schedule.erase(schedule.begin() +
                 static_cast<int64_t>(pick(rng, schedule.size())));
}

}  // namespace

std::vector<FaultSpec> mutate_schedule(
    const std::vector<FaultSpec>& parent,
    const std::vector<std::vector<FaultSpec>>& corpus, uint64_t seed,
    const core::ClusterTopology& topology) {
  // Same seed-whitening as generate_schedule so child streams do not
  // correlate with run seeds.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xa17eULL);
  std::vector<FaultSpec> child = parent;
  if (child.empty()) return child;

  const int ops = static_cast<int>(rng.uniform_int(1, kMaxOps));
  for (int op = 0; op < ops; ++op) {
    const size_t i = pick(rng, child.size());
    switch (rng.uniform_int(0, 6)) {
      case 0: op_shift(rng, child[i]); break;
      case 1: op_widen(rng, child[i]); break;
      case 2: op_overlap(rng, child); break;
      case 3: op_retarget(rng, child[i], topology); break;
      case 4: op_escalate(rng, child, i); break;
      case 5: op_splice(rng, child, corpus); break;
      case 6: op_drop(rng, child); break;
    }
  }
  return child;
}

}  // namespace pahoehoe::chaos
