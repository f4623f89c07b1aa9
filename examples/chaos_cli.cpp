// Chaos runner: randomized fault schedules through the invariant auditor,
// as a uniform sweep (the default) or a coverage-guided search
// (--search-rounds > 0). Any failing schedule is shrunk to a minimal repro
// that prints as a ready-to-paste FaultSpec list, after its forensics and
// the coverage features it newly reached.
//
// Examples:
//   ./build/examples/chaos_cli --seeds=50
//   ./build/examples/chaos_cli --seeds=200 --intensity=2.0
//   ./build/examples/chaos_cli --seeds=20 --scrub=false   (expect failures:
//       silent corruption is never repaired without scrubbing)
//   ./build/examples/chaos_cli --seeds=8 --search-rounds=10 --jobs=8
//   ./build/examples/chaos_cli --search-rounds=10 --corpus-out=corpus.bin
//   ./build/examples/chaos_cli --seeds=0 --search-rounds=10
//       --corpus-in=corpus.bin
//   ./build/examples/chaos_cli --seeds=20 --profile --profile-top=8
#include <cstdio>
#include <fstream>

#include "chaos/search.h"
#include "common/flags.h"
#include "obs/prof.h"

using namespace pahoehoe;

namespace {

int run_chaos(core::RunConfig config, chaos::SearchOptions options,
              const std::string& corpus_in, const std::string& corpus_out) {
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
  // exit_code() is non-zero for ANY violation, run-global budget-only runs
  // included (regression-tested in span_test).
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

  chaos::SearchOptions options;
  options.seeds = static_cast<int>(flags.get_int(
      "seeds", 50,
      "generated schedules in the seeding round; schedule i runs under "
      "seed base-seed + i"));
  options.base_seed =
      static_cast<uint64_t>(flags.get_int("base-seed", 1, "first seed"));
  options.rounds = static_cast<int>(flags.get_int(
      "search-rounds", 0,
      "mutation rounds after the seeding round (0 = uniform sweep)"));
  options.batch = static_cast<int>(
      flags.get_int("search-batch", 16, "candidates per mutation round"));
  options.jobs = static_cast<int>(flags.get_int(
      "jobs", 1, "worker threads (0 = hardware); output is identical "
                 "for every value"));
  options.schedule.intensity = flags.get_double(
      "intensity", 1.0, "fault count scale (~6 faults at 1.0)");
  options.schedule.corruption =
      flags.get_bool("corruption", true, "inject silent frag corruption");
  options.schedule.crashes =
      flags.get_bool("crashes", true, "inject FS/KLS crash-recover");
  options.schedule.proxy_crashes =
      flags.get_bool("proxy-crashes", true, "inject proxy crashes");
  options.schedule.partitions =
      flags.get_bool("partitions", true, "inject DC partitions");
  options.schedule.loss = flags.get_bool("loss", true, "inject iid loss");
  options.schedule.blackouts =
      flags.get_bool("blackouts", true, "inject node blackouts");
  options.schedule.duplication =
      flags.get_bool("duplication", true, "inject duplication bursts");
  options.schedule.disk_destroys =
      flags.get_bool("disk-destroys", true, "inject FS disk wipes");
  options.shrink_failures =
      flags.get_bool("shrink", true, "shrink failing schedules");
  options.shrink.max_runs = static_cast<int>(
      flags.get_int("shrink-runs", 400, "re-run budget per shrink"));
  options.trace_capacity = static_cast<size_t>(flags.get_int(
      "trace-capacity", 512,
      "message-trace ring per run; failures print the tail (0 = off)"));
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
  // results are byte-identical with it on or off.
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

  const int rc =
      run_chaos(config, std::move(options), corpus_in, corpus_out);
  if (profile) print_profile(static_cast<size_t>(profile_top));
  return rc;
}
