// Tail attribution: turn "p99 is high" into "these versions, this
// component".
//
// attribute() splits every resolved version (its VersionCriticalPath) into
// two cohorts around the p95 of their put-ack → AMR latency — tail (latency
// ≥ p95) vs. body — and compares the cohorts' critical-path component means.
// The per-component gap (tail mean − body mean) is ranked by its share of
// the total positive gap, which is exactly the "83% of the gap is
// recovery_backoff" sentence the report renders. The report also names the
// worst versions with their seeds, so the gap leads to concrete span trees
// (version_inspector --worst).
//
// Determinism (DESIGN.md §13): the threshold comes from a latency sketch
// whose buckets depend only on the multiset of latencies; cohort
// accumulation is pure integer micros walked in seed order; the worst
// versions are ranked by a total order; floats appear only at report time as
// derived quantities of those integers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/critical_path.h"
#include "obs/json.h"

namespace pahoehoe::obs {

/// One of the worst versions: its put-ack → AMR latency and the components
/// that telescope to it exactly (sum(components) == latency_micros, the
/// identity VersionCriticalPath guarantees).
struct Exemplar {
  ObjectVersionId ov;
  uint64_t seed = 0;
  SimTime latency_micros = 0;
  std::array<SimTime, kPathComponentCount> components{};

  friend bool operator==(const Exemplar&, const Exemplar&) = default;
};

/// Worst-first total order: latency desc, then version id asc, then seed
/// asc — the "value-then-version-id" tie-break that keeps the worst
/// versions stable when latencies collide.
bool worse_than(const Exemplar& a, const Exemplar& b);

/// One-line render, no trailing newline:
///   key=obj-3 ts=1234/7 seed=5007 latency_us=610200000 nw=.. rs=.. rb=.. sp=..
std::string exemplar_to_text(const Exemplar& e);

/// Exact integer accumulation for one cohort. All micros; means are derived
/// at render time only.
struct CohortTotals {
  uint64_t versions = 0;
  uint64_t latency_micros = 0;
  std::array<uint64_t, kPathComponentCount> component_micros{};

  double mean_s() const;
  double component_mean_s(PathComponent c) const;
};

/// One component's contribution to the tail-vs-body gap.
struct ComponentGap {
  PathComponent component = PathComponent::kNetworkWait;
  double tail_mean_s = 0;
  double body_mean_s = 0;
  double gap_s = 0;      ///< tail_mean_s - body_mean_s (may be negative)
  double gap_share = 0;  ///< max(gap,0) / sum of positive gaps, in [0,1]
};

struct AttributionReport {
  /// Worst versions kept in `top`.
  static constexpr size_t kTopK = 8;

  uint64_t versions = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
  double tail_threshold_s = 0;  ///< p95 of the latency sketch
  CohortTotals tail;
  CohortTotals body;
  /// All components, ranked by gap_share desc (ties: component enum order).
  std::vector<ComponentGap> ranked;
  /// The kTopK worst versions, worst first (worse_than order).
  std::vector<Exemplar> top;

  bool empty() const { return versions == 0; }

  /// Value-bearing multi-line render ("p99 is 7.9x p50; 83.2% of the gap is
  /// recovery_backoff; top exemplar ..."). Byte equality across --jobs is
  /// the determinism contract.
  std::string to_text() const;
};

/// One seed's sealed critical paths, in confirmation order.
struct SeedPaths {
  uint64_t seed = 0;
  std::span<const VersionCriticalPath> paths;
};

/// The report over every path of `runs`, walked in the order given (seed
/// order). Pass one fills the latency sketch (1% relative error), which
/// fixes the p95 threshold; pass two sums the cohorts in integer micros and
/// keeps the kTopK worst versions.
AttributionReport attribute(const std::vector<SeedPaths>& runs);

/// Emit the report as one JSON object value (caller writes the key first).
void attribution_to_json(JsonWriter& w, const AttributionReport& report);

/// Reconstruct a report from attribution_to_json output; nullopt if the
/// value is missing required members. Doubles round-trip at the writer's
/// %.10g precision; integer micros round-trip exactly.
std::optional<AttributionReport> attribution_from_json(const JsonValue& v);

}  // namespace pahoehoe::obs
