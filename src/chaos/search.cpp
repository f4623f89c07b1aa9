#include "chaos/search.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>

#include "chaos/mutate.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/prof.h"
#include "wire/serde.h"

namespace pahoehoe::chaos {

namespace {

/// Everything one candidate run produces, filled by a worker into its slot
/// and consumed by the sequential merge.
struct CandidateOutcome {
  uint64_t seed = 0;  ///< simulation seed the candidate ran under
  std::vector<core::FaultSpec> schedule;
  Coverage coverage;
  bool passed = true;
  core::AuditReport audit;
  std::vector<core::FaultSpec> shrunk;
  int shrink_runs = 0;
  std::string forensics;
};

/// Compact digest of the convergence counters that matter when diagnosing a
/// violated invariant, then the trailing trace window, the span tree of the
/// first violating version, and the tail attribution.
std::string build_forensics(const core::RunResult& run) {
  const auto sum = [&run](const char* name) {
    return static_cast<unsigned long long>(run.metrics.counter_sum(name));
  };
  char line[256];
  std::snprintf(
      line, sizeof(line),
      "metrics: rounds=%llu steps=%llu amr_skips=%llu converged=%llu "
      "giveups=%llu backoffs=%llu scrub_repairs=%llu amr_backlog=%zu\n",
      sum("fs_rounds_total"), sum("fs_converge_steps_total"),
      sum("fs_amr_skips_total"), sum("fs_converged_total"),
      sum("fs_giveups_total"), sum("fs_recovery_backoffs_total"),
      sum("fs_scrub_repairs_total"), run.amr_backlog_final);
  std::string out = line;
  if (!run.trace_tail.empty()) {
    std::snprintf(line, sizeof(line),
                  "trace tail (last %zu lines, %llu overflowed):\n",
                  core::kTraceTailLines,
                  static_cast<unsigned long long>(run.trace_overflowed));
    out += line;
    out += run.trace_tail;
  }
  if (!run.span_forensics.empty()) {
    out += "span tree of first violating version:\n";
    out += run.span_forensics;
  }
  if (!run.attribution.empty()) {
    // Names the component that inflated the tail of this failing run
    // ("83% of the gap is recovery_backoff") with the worst versions to
    // chase in version_inspector --worst.
    out += run.attribution.to_text();
  }
  return out;
}

/// Per-candidate sub-seed: decorrelates (round, index) pairs from each
/// other and from the base seed's own schedule stream.
uint64_t candidate_seed(uint64_t base, int round, int index) {
  uint64_t h = base;
  h ^= 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(round);
  h *= 0xff51afd7ed558ccdULL;
  h ^= static_cast<uint64_t>(index) + 0x2545f4914f6cdd1dULL;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h;
}

/// The search's persistent state between rounds, updated only in the
/// sequential merge.
struct CorpusState {
  std::vector<CorpusEntry> entries;
  /// feature hash -> number of corpus entries whose signature contains it
  /// (rarity denominator for parent selection).
  std::map<uint64_t, int> feature_counts;

  /// Rarity weight: an entry scores the sum of 1/count over its features,
  /// so holders of features nobody else has dominate parent selection.
  double weight(const CorpusEntry& entry) const {
    double w = 0.0;
    for (const auto& [hash, name] : entry.coverage.features) {
      const auto it = feature_counts.find(hash);
      if (it != feature_counts.end() && it->second > 0) {
        // lint:float-ok(features is an ordered map, so the sum order is fixed)
        w += 1.0 / static_cast<double>(it->second);
      }
    }
    return w;
  }

  const CorpusEntry& select_parent(Rng& rng) const {
    double total = 0.0;
    // lint:float-ok(entries is a vector in admission order; sum order fixed)
    for (const CorpusEntry& e : entries) total += weight(e);
    if (total <= 0.0) return entries[0];
    double draw = rng.uniform01() * total;
    for (const CorpusEntry& e : entries) {
      // lint:float-ok(same fixed admission order as the total above)
      draw -= weight(e);
      if (draw <= 0.0) return e;
    }
    return entries.back();
  }

  void admit(CorpusEntry entry) {
    for (const auto& [hash, name] : entry.coverage.features) {
      ++feature_counts[hash];
    }
    entries.push_back(std::move(entry));
  }
};

}  // namespace

std::string SearchResult::summary() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "chaos search: %d runs (+%d shrinking), %zu features, "
                "%zu corpus entries, %zu failures\n",
                runs, shrink_runs, coverage.size(), corpus.size(),
                failures.size());
  std::string out = line;

  out += "coverage growth (runs -> features):\n";
  for (const SearchRound& point : growth) {
    std::snprintf(line, sizeof(line),
                  "  round %2d: %4d runs  %4zu features  %3zu corpus  "
                  "%d failures\n",
                  point.round, point.runs, point.features, point.corpus,
                  point.failures);
    out += line;
  }

  out += "rare features: ";
  bool any = false;
  for (const char* rare :
       {kFeatureCollision, kFeatureSiblingRecovery, kFeatureDurableScrubLate,
        kFeatureScrubPastGiveup}) {
    if (!coverage.contains(rare)) continue;
    if (any) out += ", ";
    out += rare;
    any = true;
  }
  if (!any) out += "(none reached)";
  out += "\n";

  for (const SearchFailure& failure : failures) {
    std::snprintf(line, sizeof(line),
                  "FAILURE (round %d, run seed %llu, %zu faults, "
                  "shrunk to %zu):\n",
                  failure.round,
                  static_cast<unsigned long long>(failure.seed),
                  failure.schedule.size(), failure.shrunk.size());
    out += line;
    out += failure.audit.to_string();
    if (!failure.new_features.empty()) {
      out += "newly reached features:\n";
      for (const std::string& name : failure.new_features) {
        out += "  " + name + "\n";
      }
    }
    out += failure.forensics;
    if (!failure.shrunk.empty()) {
      out += "minimal repro (run seed ";
      out += std::to_string(failure.seed);
      out += "):\n";
      out += format_repro(failure.shrunk);
    }
  }
  return out;
}

SearchResult run_search(core::RunConfig config, const SearchOptions& options) {
  const std::vector<core::FaultSpec> base_faults = config.faults;
  config.telemetry.trace_capacity = options.trace_capacity;
  // Signatures need the span walk, which also gives every failure its tail
  // attribution. It is a pure observer.
  config.telemetry.spans = true;

  SearchResult result;
  CorpusState state;

  // One candidate run, worker-side: everything here is a pure function of
  // (schedule, run seed, config), so slots are independent of claim order.
  const auto run_candidate = [&](std::vector<core::FaultSpec> schedule,
                                 uint64_t seed) -> CandidateOutcome {
    CandidateOutcome outcome;
    outcome.seed = seed;
    core::RunConfig candidate_config = config;
    candidate_config.seed = seed;
    candidate_config.faults = base_faults;
    candidate_config.faults.insert(candidate_config.faults.end(),
                                   schedule.begin(), schedule.end());
    outcome.schedule = std::move(schedule);
    const core::RunResult run = core::run_experiment(candidate_config);
    outcome.coverage = extract_coverage(run, candidate_config);
    outcome.audit = run.audit;
    outcome.passed = run.audit.passed();
    if (!outcome.passed) {
      outcome.forensics = build_forensics(run);
      if (options.shrink_failures) {
        ShrinkResult shrunk = shrink_schedule(
            candidate_config, candidate_config.faults, options.shrink);
        outcome.shrunk = std::move(shrunk.schedule);
        outcome.shrink_runs = shrunk.runs;
      }
    }
    return outcome;
  };

  // Sequential slot-order merge of one outcome. This is the only place
  // corpus/coverage/failure state changes, so the search trajectory is
  // independent of worker scheduling.
  const auto merge_outcome = [&](int round, CandidateOutcome& outcome) {
    ++result.runs;
    result.shrink_runs += outcome.shrink_runs;
    Coverage fresh;
    for (const auto& [hash, name] : outcome.coverage.features) {
      if (result.coverage.features.count(hash) == 0) {
        fresh.features.emplace(hash, name);
      }
    }
    result.coverage.merge(outcome.coverage);
    if (!outcome.passed) {
      SearchFailure failure;
      failure.round = round;
      failure.seed = outcome.seed;
      failure.schedule = outcome.schedule;
      failure.audit = std::move(outcome.audit);
      failure.shrunk = std::move(outcome.shrunk);
      failure.shrink_runs = outcome.shrink_runs;
      failure.new_features = fresh.names();
      failure.forensics = std::move(outcome.forensics);
      result.failures.push_back(std::move(failure));
    }
    if (!fresh.features.empty()) {
      CorpusEntry entry;
      entry.schedule = std::move(outcome.schedule);
      entry.coverage = std::move(outcome.coverage);
      entry.round = round;
      entry.new_features = fresh.features.size();
      state.admit(std::move(entry));
    }
  };

  // The seed rule: a generated schedule runs under the seed it was
  // generated from; a loaded or mutated one under its candidate seed.
  const size_t loaded = options.initial_corpus.size();
  const auto run_seed = [&](int round, size_t slot) -> uint64_t {
    if (round == 0 && slot >= loaded) {
      return options.base_seed + (slot - loaded);
    }
    return candidate_seed(options.base_seed, round, static_cast<int>(slot));
  };

  // Round 0: the loaded corpus, then the generated schedules.
  std::vector<std::vector<core::FaultSpec>> candidates =
      options.initial_corpus;
  for (int i = 0; i < options.seeds; ++i) {
    candidates.push_back(generate_schedule(
        run_seed(0, loaded + static_cast<size_t>(i)), config.topology,
        options.schedule));
  }

  for (int round = 0; round <= options.rounds; ++round) {
    // One wall-clock phase per search round: breeding, then the candidate
    // runs and their merge (inline when jobs <= 1; workers account to their
    // own threads otherwise).
    obs::ProfScope prof_round("chaos_search_round");
    if (round > 0) {
      // Breed this round's candidates from the corpus as it stood after
      // the previous round — fully determined before any worker runs.
      candidates.clear();
      std::vector<std::vector<core::FaultSpec>> donor_pool;
      donor_pool.reserve(state.entries.size());
      for (const CorpusEntry& e : state.entries) {
        donor_pool.push_back(e.schedule);
      }
      for (int i = 0; i < options.batch; ++i) {
        const uint64_t sub_seed = run_seed(round, static_cast<size_t>(i));
        Rng select_rng(sub_seed);
        const CorpusEntry& parent = state.select_parent(select_rng);
        candidates.push_back(mutate_schedule(parent.schedule, donor_pool,
                                             sub_seed, config.topology));
      }
    }
    // An empty round ends the search (after an empty seeding round there
    // is no corpus to breed from).
    if (candidates.empty()) break;

    // Slots finish in any order. A finished slot waits only until every
    // earlier slot has been merged, so the merge is one slot-order pass for
    // every jobs value and holds just the out-of-order outcomes, not the
    // whole round's coverage signatures.
    std::vector<std::optional<CandidateOutcome>> finished(candidates.size());
    size_t next_merge = 0;
    std::mutex merge_mutex;
    parallel_for(static_cast<int>(candidates.size()), options.jobs,
                 [&](int i) {
                   const size_t slot = static_cast<size_t>(i);
                   CandidateOutcome outcome =
                       run_candidate(candidates[slot], run_seed(round, slot));
                   const std::lock_guard<std::mutex> lock(merge_mutex);
                   finished[slot] = std::move(outcome);
                   for (; next_merge < finished.size() &&
                          finished[next_merge].has_value();
                        ++next_merge) {
                     merge_outcome(round, *finished[next_merge]);
                     finished[next_merge].reset();
                   }
                 });

    SearchRound point;
    point.round = round;
    point.runs = result.runs;
    point.features = result.coverage.size();
    point.corpus = state.entries.size();
    point.failures = static_cast<int>(result.failures.size());
    result.growth.push_back(point);
    if (options.on_round) options.on_round(point);
  }

  result.corpus = std::move(state.entries);
  return result;
}

Bytes encode_corpus(const std::vector<std::vector<core::FaultSpec>>& corpus) {
  wire::Writer w;
  w.u32(static_cast<uint32_t>(corpus.size()));
  for (const std::vector<core::FaultSpec>& schedule : corpus) {
    w.bytes(encode_schedule(schedule));
  }
  return std::move(w).take();
}

std::vector<std::vector<core::FaultSpec>> decode_corpus(const Bytes& data) {
  wire::Reader r(data);
  const uint32_t count = r.u32();
  std::vector<std::vector<core::FaultSpec>> corpus;
  corpus.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    corpus.push_back(decode_schedule(r.bytes()));
  }
  r.expect_exhausted();
  return corpus;
}

}  // namespace pahoehoe::chaos
