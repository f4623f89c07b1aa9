// Chaos runner: uniform sweeps and coverage-guided search over randomized
// fault schedules, through the invariant auditor. Any failing schedule is
// shrunk to a minimal repro that prints as a ready-to-paste FaultSpec list;
// search failures also print the coverage features they newly reached.
//
// Examples:
//   ./build/examples/chaos_cli --seeds=50
//   ./build/examples/chaos_cli --seeds=200 --intensity=2.0
//   ./build/examples/chaos_cli --seeds=20 --scrub=false   (expect failures:
//       silent corruption is never repaired without scrubbing)
//   ./build/examples/chaos_cli --search --search-rounds=10 --jobs=8
//   ./build/examples/chaos_cli --search --corpus-out=corpus.bin
//   ./build/examples/chaos_cli --search --corpus-in=corpus.bin
//   ./build/examples/chaos_cli --seeds=20 --profile --profile-top=8
#include <cstdio>
#include <fstream>
#include <map>

#include "chaos/search.h"
#include "chaos/sweep.h"
#include "common/flags.h"
#include "obs/prof.h"

using namespace pahoehoe;

namespace {

int run_search_mode(core::RunConfig config, chaos::SearchOptions options,
                    const std::string& corpus_in,
                    const std::string& corpus_out) {
  if (!corpus_in.empty()) {
    std::ifstream in(corpus_in, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read corpus file %s\n", corpus_in.c_str());
      return 2;
    }
    const Bytes data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    options.initial_corpus = chaos::decode_corpus(data);
    std::printf("loaded %zu corpus schedules from %s\n",
                options.initial_corpus.size(), corpus_in.c_str());
  }

  // on_round fires sequentially after each round's deterministic merge, so
  // streaming per-round progress needs no reordering buffer.
  options.on_round = [](const chaos::SearchRound& round) {
    std::printf("round %2d: %4d runs  %4zu features  %3zu corpus  "
                "%d failures\n",
                round.round, round.runs, round.features, round.corpus,
                round.failures);
    std::fflush(stdout);
  };

  const chaos::SearchResult result = chaos::run_search(config, options);
  std::printf("\n%s", result.summary().c_str());

  if (!corpus_out.empty()) {
    std::vector<std::vector<core::FaultSpec>> schedules;
    schedules.reserve(result.corpus.size());
    for (const chaos::CorpusEntry& entry : result.corpus) {
      schedules.push_back(entry.schedule);
    }
    const Bytes data = chaos::encode_corpus(schedules);
    std::ofstream out(corpus_out, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write corpus file %s\n",
                   corpus_out.c_str());
      return 2;
    }
    std::printf("wrote %zu corpus schedules to %s\n", schedules.size(),
                corpus_out.c_str());
  }
  return result.exit_code();
}

/// The hottest phases by wall time, over everything this process ran
/// (worker threads flush on join, so the table is complete here).
void print_profile(size_t top) {
  std::printf("\nwall-clock profile (host time; hottest %zu phases):\n%s",
              top, obs::prof::global_report().to_text(top).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  chaos::SweepOptions sweep;
  sweep.seeds = static_cast<int>(flags.get_int("seeds", 50, "seeds to run"));
  sweep.base_seed =
      static_cast<uint64_t>(flags.get_int("base-seed", 1, "first seed"));
  sweep.jobs = static_cast<int>(flags.get_int(
      "jobs", 1, "worker threads (0 = hardware); summary is identical "
                 "for every value"));
  sweep.schedule.intensity = flags.get_double(
      "intensity", 1.0, "fault count scale (~6 faults at 1.0)");
  sweep.schedule.corruption =
      flags.get_bool("corruption", true, "inject silent frag corruption");
  sweep.schedule.crashes =
      flags.get_bool("crashes", true, "inject FS/KLS crash-recover");
  sweep.schedule.proxy_crashes =
      flags.get_bool("proxy-crashes", true, "inject proxy crashes");
  sweep.schedule.partitions =
      flags.get_bool("partitions", true, "inject DC partitions");
  sweep.schedule.loss = flags.get_bool("loss", true, "inject iid loss");
  sweep.schedule.blackouts =
      flags.get_bool("blackouts", true, "inject node blackouts");
  sweep.schedule.duplication =
      flags.get_bool("duplication", true, "inject duplication bursts");
  sweep.schedule.disk_destroys =
      flags.get_bool("disk-destroys", true, "inject FS disk wipes");
  sweep.shrink_failures =
      flags.get_bool("shrink", true, "shrink failing schedules");
  sweep.shrink.max_runs = static_cast<int>(
      flags.get_int("shrink-runs", 400, "re-run budget per shrink"));
  sweep.trace_capacity = static_cast<size_t>(flags.get_int(
      "trace-capacity", 512,
      "message-trace ring per run; failing seeds print the tail (0 = off)"));
  sweep.trace_dump_lines = static_cast<size_t>(flags.get_int(
      "trace-lines", 40, "trace lines in a failing seed's forensics"));
  sweep.spans = flags.get_bool(
      "spans", true,
      "causal span tracing; failing seeds print the violating version's "
      "span tree");

  // Coverage-guided search mode (chaos/search.h).
  const bool search = flags.get_bool(
      "search", false,
      "coverage-guided schedule search instead of a uniform sweep");
  chaos::SearchOptions search_options;
  search_options.rounds = static_cast<int>(flags.get_int(
      "search-rounds", 10, "mutation rounds after the seeding round"));
  search_options.batch = static_cast<int>(
      flags.get_int("search-batch", 16, "candidates per mutation round"));
  search_options.seed_corpus = static_cast<int>(flags.get_int(
      "search-seeds", 8, "uniformly generated schedules seeding the corpus"));
  const std::string corpus_in = flags.get_string(
      "corpus-in", "", "corpus file to replay before the seeding round");
  const std::string corpus_out = flags.get_string(
      "corpus-out", "", "file to write the final corpus to");

  core::RunConfig config = chaos::chaos_default_config();
  const bool scrub = flags.get_bool(
      "scrub", true, "periodic scrub-and-repair (off: corruption sticks)");
  if (!scrub) config.convergence.scrub_interval = 0;
  config.workload.num_puts = static_cast<int>(
      flags.get_int("puts", config.workload.num_puts, "objects to store"));

  // Wall-clock phase profiling (DESIGN.md §11): a pure side channel, so
  // sweep/search results are byte-identical with it on or off.
  const bool profile = flags.get_bool(
      "profile", false,
      "print the hottest wall-clock phases after the run");
  const int64_t profile_top = flags.get_int(
      "profile-top", 12, "phases to print with --profile (hottest first)");
  flags.finish();
  if (profile_top < 1) {
    std::fprintf(stderr, "flag error: --profile-top must be >= 1, got %lld\n",
                 static_cast<long long>(profile_top));
    return 2;
  }
  obs::prof::set_enabled(profile);

  if (search) {
    search_options.base_seed = sweep.base_seed;
    search_options.jobs = sweep.jobs;
    search_options.schedule = sweep.schedule;
    search_options.shrink_failures = sweep.shrink_failures;
    search_options.shrink = sweep.shrink;
    search_options.trace_capacity = sweep.trace_capacity;
    search_options.trace_dump_lines = sweep.trace_dump_lines;
    const int rc = run_search_mode(config, std::move(search_options),
                                   corpus_in, corpus_out);
    if (profile) print_profile(static_cast<size_t>(profile_top));
    return rc;
  }

  // The hook fires in completion order, which is scheduler-dependent when
  // jobs > 1. Buffer out-of-order seeds and flush in seed order so stdout
  // is byte-identical for every job count (it runs under the sweep lock,
  // so plain state is fine).
  const bool verbose = sweep.seeds <= 100;
  auto pending = std::make_shared<std::map<uint64_t, chaos::SeedOutcome>>();
  auto next = std::make_shared<uint64_t>(sweep.base_seed);
  sweep.on_seed = [verbose, pending, next](const chaos::SeedOutcome& outcome) {
    (*pending)[outcome.seed] = outcome;
    for (auto it = pending->begin();
         it != pending->end() && it->first == *next;
         it = pending->erase(it), ++*next) {
      const chaos::SeedOutcome& done = it->second;
      if (done.passed) {
        if (verbose) {
          std::printf("seed %llu ok (%zu faults)\n",
                      static_cast<unsigned long long>(done.seed),
                      done.schedule.size());
        }
      } else {
        std::printf("seed %llu FAILED (%zu faults)\n",
                    static_cast<unsigned long long>(done.seed),
                    done.schedule.size());
      }
    }
    std::fflush(stdout);
  };

  chaos::SweepResult result = chaos::run_sweep(config, sweep);
  std::printf("\n%s", result.summary().c_str());
  if (profile) print_profile(static_cast<size_t>(profile_top));
  // exit_code() is non-zero for ANY violation, run-global budget-only runs
  // included (regression-tested in span_test).
  return result.exit_code();
}
