// The chaos driver: randomized fault schedules through the invariant
// auditor, as a uniform sweep or as an AFL-style coverage-guided search.
//
// Round 0, the seeding round, runs any loaded corpus and then `seeds`
// independently generated schedules; with `rounds = 0` that is the whole
// run, a uniform sweep. Each mutation round closes the loop: run a
// candidate, extract its coverage signature (chaos/coverage.h), keep it in
// the corpus iff it reached a feature no earlier schedule did, and breed
// the next batch by mutating corpus parents (chaos/mutate.h) — parents
// holding rare features are picked more often. Any candidate that violates
// an audited invariant is fed straight into the ddmin shrinker and reported
// with its forensics and the features it newly reached, tying the
// violation to the protocol state that triggered it.
//
// Seed rule: generated schedule i runs under the seed it was generated
// from, base_seed + i, so a sweep failure replays from a small seed. A
// loaded or mutated schedule runs under candidate_seed(base_seed, round,
// index), the same seed that bred it.
//
// Determinism contract (DESIGN.md §9): one round's candidates are fully
// determined before the round starts (parent selection and mutation draw
// from per-candidate seeded RNGs over the *previous* round's corpus);
// candidates run on the worker pool into per-candidate slots; admission,
// rarity updates, the growth curve, and all reporting happen in a
// sequential slot-order merge, which takes each slot as soon as every
// earlier one is merged. The SearchResult — and therefore the CLI's
// stdout — is byte-identical for every --jobs value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/coverage.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "core/harness.h"

namespace pahoehoe::chaos {

struct SearchOptions {
  /// Generated schedules in the seeding round (round 0).
  int seeds = 50;
  uint64_t base_seed = 1;
  /// Mutation rounds after the seeding round; 0 is a uniform sweep.
  int rounds = 0;
  /// Candidates per mutation round.
  int batch = 16;
  /// Schedules to run ahead of the generated ones in round 0 (a corpus
  /// file from a previous search, --corpus-in). Each is run and admitted
  /// under the same new-feature rule as every other candidate.
  std::vector<std::vector<core::FaultSpec>> initial_corpus;
  /// Worker threads (<= 0: one per hardware thread). Results are merged in
  /// candidate order; every jobs value yields byte-identical output.
  int jobs = 1;
  ScheduleOptions schedule;  ///< generator knobs for the seeding round
  bool shrink_failures = true;
  ShrinkOptions shrink;
  /// Trace ring capacity installed into every run (0 disables); a failure's
  /// forensics then carry the trailing trace window. Kept modest: the
  /// window is for "what happened right before the violation", not
  /// whole-run capture.
  size_t trace_capacity = 512;
  /// Progress hook, called sequentially after each round's merge (round 0
  /// is the seeding round). Deterministic call order and content.
  std::function<void(const struct SearchRound&)> on_round;
};

/// One admitted corpus entry.
struct CorpusEntry {
  std::vector<core::FaultSpec> schedule;
  Coverage coverage;        ///< full signature of the entry's run
  int round = 0;            ///< round it was admitted in (0 = seeding)
  size_t new_features = 0;  ///< features it added at admission time
};

/// One audited-invariant violation the search found.
struct SearchFailure {
  int round = 0;
  uint64_t seed = 0;  ///< simulation seed to replay the violation under
  std::vector<core::FaultSpec> schedule;
  core::AuditReport audit;
  std::vector<core::FaultSpec> shrunk;  ///< empty if shrinking was off
  int shrink_runs = 0;
  /// Features this schedule reached that no earlier run had (the protocol
  /// state that triggered the violation).
  std::vector<std::string> new_features;
  /// Of the unshrunk failing run, for debugging without a re-run: a
  /// convergence-counter digest, the trailing trace window, the span tree
  /// of the first violating version, and the tail attribution.
  std::string forensics;
};

/// Per-round progress snapshot (also the growth-curve points).
struct SearchRound {
  int round = 0;        ///< 0 = seeding round
  int runs = 0;         ///< cumulative candidate runs (excludes shrinking)
  size_t features = 0;  ///< cumulative distinct coverage features
  size_t corpus = 0;    ///< cumulative corpus size
  int failures = 0;     ///< cumulative violations found
};

struct SearchResult {
  int runs = 0;         ///< candidate runs (excludes shrink re-runs)
  int shrink_runs = 0;
  Coverage coverage;    ///< union over every run
  std::vector<CorpusEntry> corpus;
  std::vector<SearchFailure> failures;
  std::vector<SearchRound> growth;  ///< one point per round, in order

  bool passed() const { return failures.empty(); }
  /// Process exit code for CLI drivers: 0 only when every audited invariant
  /// held in every run. ANY violation — including a run-global one such as
  /// a blown message budget while every version resolved — is non-zero, so
  /// CI cannot green-light a run that converged too expensively.
  int exit_code() const { return passed() ? 0 : 1; }
  /// Deterministic human-readable report: the coverage-growth curve
  /// (features vs. runs, plateaus visible), rare-feature hits, and every
  /// failure with its newly reached features and minimal repro.
  std::string summary() const;
};

/// Run the search. `config` supplies everything but the seed and the
/// generated faults; faults already present in config.faults run in every
/// candidate and are shrunk together with the candidate's own when it
/// fails.
SearchResult run_search(core::RunConfig config, const SearchOptions& options);

/// On-disk corpus format (--corpus-in / --corpus-out): u32 schedule count,
/// then each schedule as a u32-length-prefixed encode_schedule() frame.
/// decode throws wire::WireError on malformed input.
Bytes encode_corpus(const std::vector<std::vector<core::FaultSpec>>& corpus);
std::vector<std::vector<core::FaultSpec>> decode_corpus(const Bytes& data);

}  // namespace pahoehoe::chaos
