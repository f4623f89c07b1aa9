#include "chaos/coverage.h"

#include <bit>
#include <cstring>

#include "obs/prof.h"

namespace pahoehoe::chaos {

namespace {

/// Node-id → role, mirroring the Cluster's allocation order (proxies, then
/// KLSs, then FSs, starting at id 101).
const char* role_of(const core::ClusterTopology& topology, NodeId node) {
  const uint32_t base = 101;
  if (node.value < base) return "ext";
  const uint32_t offset = node.value - base;
  if (offset < static_cast<uint32_t>(topology.num_proxies)) return "proxy";
  if (offset < static_cast<uint32_t>(topology.num_proxies +
                                     topology.total_kls())) {
    return "kls";
  }
  if (offset < static_cast<uint32_t>(topology.num_proxies +
                                     topology.total_kls() +
                                     topology.total_fs())) {
    return "fs";
  }
  return "ext";
}

/// AFL-style occurrence bucket: 1 → 0, 2–3 → 1, 4–7 → 2, ... Collapses
/// "how often" into coarse magnitudes so counts that differ by noise do not
/// mint spurious features, while storms still differ from single events.
int log2_bucket(uint64_t count) {
  return std::bit_width(count) - 1;  // count >= 1
}

void add(Coverage& coverage, std::string name) {
  const uint64_t hash = feature_hash(name);
  coverage.features.emplace(hash, std::move(name));
}

void add_counted(Coverage& coverage, const std::string& stem,
                 uint64_t count) {
  if (count == 0) return;
  add(coverage, stem);
  add(coverage, stem + ":x" + std::to_string(log2_bucket(count)));
}

}  // namespace

uint64_t feature_hash(std::string_view name) {
  // FNV-1a 64: tiny, portable, and stable — feature ids live in corpus
  // files and must not depend on libstdc++'s std::hash.
  uint64_t h = 14695981039346656037ULL;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

size_t Coverage::merge(const Coverage& other) {
  size_t added = 0;
  for (const auto& [hash, name] : other.features) {
    if (features.emplace(hash, name).second) ++added;
  }
  return added;
}

std::vector<std::string> Coverage::names() const {
  std::vector<std::string> out;
  out.reserve(features.size());
  for (const auto& [hash, name] : features) out.push_back(name);
  return out;
}

Coverage extract_coverage(const core::RunResult& run,
                          const core::RunConfig& config) {
  obs::ProfScope prof("chaos_coverage");
  Coverage coverage;

  // --- span features: which span kinds fired, per role, with buckets -------
  // Tally first (visit order is deterministic but we want one feature per
  // (role, kind), not per span). Recovery spans carry their mode ("plain" /
  // "sibling"), give-ups and scrub re-adds their durability class in the
  // note; those notes are part of the state, unlike free-form ones
  // ("attempt 3").
  std::map<std::string, uint64_t> span_counts;
  std::string stem;  // reused per span: the map copies it only on insert
  bool scrub_past_giveup = false;
  bool durable_scrub_late = false;
  run.spans.visit_spans([&](const ObjectVersionId& ov,
                            const obs::Span& span) {
    stem = "span:";
    stem += role_of(config.topology, span.node);
    stem += ':';
    stem += span.name;
    if ((span.name == "recovery" || span.name == "give_up") &&
        !span.note.empty()) {
      stem += ':';
      stem += span.note;
    }
    ++span_counts[stem];
    if (span.name == "scrub_readd" &&
        span.start - ov.ts.wall_micros > config.convergence.giveup_age) {
      // The span note carries the class, mirroring give_up. Durable
      // versions are never given up, so repairing one past the give-up age
      // is the legal state the per-class policy exists for; a non-durable
      // re-add past it is a horizon violation.
      if (span.note == "class=durable") {
        durable_scrub_late = true;
      } else {
        scrub_past_giveup = true;
      }
    }
  });
  for (const auto& [stem, count] : span_counts) {
    add_counted(coverage, stem, count);
  }

  // --- critical-path features: decile-bucketed component mix ---------------
  if (run.critical_path.versions() > 0) {
    uint64_t total = 0;
    for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
      total += run.critical_path.total_micros(
          static_cast<obs::PathComponent>(c));
    }
    for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
      const auto component = static_cast<obs::PathComponent>(c);
      const uint64_t micros = run.critical_path.total_micros(component);
      const int decile =
          total == 0 ? 0 : static_cast<int>((micros * 10) / total);
      add(coverage, std::string("cp:") + obs::to_string(component) +
                        ":d" + std::to_string(std::min(decile, 9)));
    }
  }

  // --- metric edge features -------------------------------------------------
  static constexpr const char* kEdgeCounters[] = {
      "fs_giveups_total",          "fs_recovery_collisions_total",
      "fs_sibling_recoveries_total", "fs_scrub_repairs_total",
      "fs_recovery_backoffs_total", "fs_recoveries_total",
      "fs_amr_skips_total",
  };
  for (const char* name : kEdgeCounters) {
    add_counted(coverage, std::string("metric:") + name,
                static_cast<uint64_t>(run.metrics.counter_sum(name)));
  }

  // --- outcome features -----------------------------------------------------
  add(coverage, run.quiescent ? "outcome:quiescent" : "outcome:not_quiescent");
  if (run.puts_failed > 0) add(coverage, "outcome:puts_failed");
  if (run.gets_mismatched > 0) add(coverage, "outcome:gets_mismatched");
  if (run.given_up > 0) add(coverage, "outcome:given_up");
  if (run.excess_amr > 0) add(coverage, "outcome:excess_amr");
  if (run.durable_not_amr > 0) add(coverage, "outcome:durable_not_amr");
  for (const core::InvariantViolation& v : run.audit.violations) {
    add(coverage, std::string("violation:") + core::to_string(v.kind));
  }

  // --- rare composites the search hunts explicitly --------------------------
  if (run.metrics.counter_sum("fs_recovery_collisions_total") > 0) {
    add(coverage, kFeatureCollision);
  }
  if (run.metrics.counter_sum("fs_sibling_recoveries_total") > 0) {
    add(coverage, kFeatureSiblingRecovery);
  }
  if (scrub_past_giveup) add(coverage, kFeatureScrubPastGiveup);
  if (durable_scrub_late) add(coverage, kFeatureDurableScrubLate);

  return coverage;
}

}  // namespace pahoehoe::chaos
