// Cohort attribution: turn "p99 is high" into "these versions, this
// component".
//
// The engine splits every resolved version (its VersionCriticalPath) into
// two cohorts around the exemplar store's p95 latency — tail (latency ≥
// p95) vs. body — and compares the cohorts' critical-path component means.
// The per-component gap (tail mean − body mean) is ranked by its share of
// the total positive gap, which is exactly the "83% of the gap is
// recovery_backoff" sentence the report renders.
//
// Determinism (DESIGN.md §13): the threshold comes from the *merged*
// latency sketch (bucket-wise exact, so identical for any --jobs); cohort
// accumulation is pure integer micros walked in seed order; floats appear
// only at report time as derived quantities of those integers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/exemplar.h"
#include "obs/json.h"

namespace pahoehoe::obs {

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
  uint64_t versions = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
  double tail_threshold_s = 0;  ///< p95 of the merged latency sketch
  CohortTotals tail;
  CohortTotals body;
  /// All components, ranked by gap_share desc (ties: component enum order).
  std::vector<ComponentGap> ranked;
  /// Worst-K exemplars carried over from the store, worst first.
  std::vector<Exemplar> top;

  bool empty() const { return versions == 0; }

  /// Value-bearing multi-line render ("p99 is 7.9x p50; 83.2% of the gap is
  /// recovery_backoff; top exemplar ..."). Byte equality across --jobs is
  /// the determinism contract.
  std::string to_text() const;
};

/// Two-pass construction: the store (already merged across seeds) fixes the
/// p95 threshold, then every version's critical path is bucketed against
/// it. add() is pure integer accumulation; call in seed order.
class AttributionBuilder {
 public:
  explicit AttributionBuilder(const ExemplarStore& store);

  void add(const VersionCriticalPath& path);
  AttributionReport finish() const;

 private:
  AttributionReport report_;
};

/// Emit the report as one JSON object value (caller writes the key first).
void attribution_to_json(JsonWriter& w, const AttributionReport& report);

/// Reconstruct a report from attribution_to_json output; nullopt if the
/// value is missing required members. Doubles round-trip at the writer's
/// %.10g precision; integer micros round-trip exactly.
std::optional<AttributionReport> attribution_from_json(const JsonValue& v);

}  // namespace pahoehoe::obs
