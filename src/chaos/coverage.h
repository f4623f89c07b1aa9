// Coverage signatures: what protocol states one chaos run exercised.
//
// The coverage-guided search (chaos/search.h) needs a feedback signal that
// says "this schedule reached something no schedule before it did". A
// signature is a set of *features*, each a short human-readable name hashed
// to 64 bits:
//
//   * span features — which span kinds fired, per node role (proxy / kls /
//     fs), with log2-bucketed occurrence counts so "one give-up" and "a
//     storm of give-ups" are distinct states; recovery spans split by mode
//     (plain vs §4.2 sibling).
//   * critical-path features — the component mix of time-to-AMR, each
//     component's share bucketed to deciles (a run dominated by
//     recovery_backoff covers different ground than one dominated by
//     network_wait even if both converge).
//   * metric edge features — log2 buckets of the auditor-adjacent
//     convergence counters (give-ups, §4.2 recovery collisions, sibling
//     recoveries, scrub repairs, backoffs).
//   * outcome features — audit violation kinds, quiescence, failed puts.
//   * rare composite features the search is explicitly hunting
//     (kFeatureCollision, kFeatureSiblingRecovery, kFeatureDurableScrubLate,
//     kFeatureScrubPastGiveup).
//
// Extraction is a pure function of the RunResult (plus the config for the
// give-up horizon and node-role arithmetic): it walks spans in the tracer's
// deterministic order and reads only merged counters, so the same run
// always yields byte-identical signatures on any machine — the foundation
// of the search's any-`--jobs` reproducibility (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/harness.h"

namespace pahoehoe::chaos {

/// Stable 64-bit feature id: FNV-1a over the feature name. Pure and
/// platform-independent, so corpus files and growth curves are portable.
uint64_t feature_hash(std::string_view name);

/// A set of coverage features. The map is keyed by feature hash with the
/// human-readable name as value; iteration order (by hash) is part of the
/// deterministic-output contract.
struct Coverage {
  std::map<uint64_t, std::string> features;

  size_t size() const { return features.size(); }
  bool contains(std::string_view name) const {
    return features.count(feature_hash(name)) > 0;
  }
  /// Union with `other`; returns how many features were new.
  size_t merge(const Coverage& other);
  /// Feature names in hash order (deterministic).
  std::vector<std::string> names() const;
};

/// Rare protocol states the search hunts explicitly (asserted reached by
/// the CI smoke). Exact feature names, so callers can Coverage::contains().
inline constexpr const char* kFeatureCollision =
    "rare:recovery_backoff_collision";  ///< §4.2 lower-id stand-down fired
inline constexpr const char* kFeatureSiblingRecovery =
    "rare:sibling_recovery";  ///< a §4.2 sibling recovery attempt started
inline constexpr const char* kFeatureScrubPastGiveup =
    "rare:scrub_past_giveup_window";  ///< scrub re-added a non-durable
                                      ///< version already older than the
                                      ///< give-up age — scrub itself
                                      ///< enforces that horizon, so
                                      ///< reaching this means the horizon
                                      ///< logic disagreed with itself
inline constexpr const char* kFeatureDurableScrubLate =
    "rare:durable_scrub_past_base_age";  ///< a durable-class scrub re-add
                                         ///< past the (non-durable) give-up
                                         ///< age — the state the per-class
                                         ///< policy exists to make legal

/// Extract the signature of one finished run. `config` must be the config
/// the run executed under (topology for role mapping, convergence for the
/// give-up horizon). Requires telemetry.spans to have been on; with spans
/// off only metric/outcome features are produced.
Coverage extract_coverage(const core::RunResult& run,
                          const core::RunConfig& config);

}  // namespace pahoehoe::chaos
