// Version inspector: run one seed with causal span tracing on and dump an
// object version's full lifecycle — put, erasure encode, every fragment and
// metadata message, each convergence round with its backoff waits and
// recoveries, and the final AMR confirmation — as an annotated span tree,
// with the put-ack → AMR critical path decomposed per component.
//
// Examples:
//   ./build/examples/version_inspector                        (object 0)
//   ./build/examples/version_inspector --blackout-s=600       (delayed AMR)
//   ./build/examples/version_inspector --object=-1 --variant=naive
//   ./build/examples/version_inspector --perfetto=trace.json  (then open the
//       file at https://ui.perfetto.dev)
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/harness.h"
#include "obs/json.h"
#include "obs/prof.h"

using namespace pahoehoe;

namespace {

core::ConvergenceOptions variant_options(const std::string& name) {
  if (name == "naive") return core::ConvergenceOptions::naive();
  if (name == "fs-amr-sync") return core::ConvergenceOptions::fs_amr_sync();
  if (name == "fs-amr-unsync") return core::ConvergenceOptions::fs_amr_unsync();
  if (name == "put-amr") return core::ConvergenceOptions::put_amr();
  if (name == "sibling") return core::ConvergenceOptions::sibling_only();
  if (name == "all") return core::ConvergenceOptions::all_opts();
  std::fprintf(stderr,
               "unknown --variant '%s' (naive, fs-amr-sync, fs-amr-unsync, "
               "put-amr, sibling, all)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  core::RunConfig config = core::paper_default_config();
  config.seed = static_cast<uint64_t>(flags.get_int("seed", 1, "run seed"));
  config.workload.num_puts = static_cast<int>(
      flags.get_int("puts", 3, "objects to store"));
  config.convergence = variant_options(flags.get_string(
      "variant", "all",
      "convergence preset: naive, fs-amr-sync, fs-amr-unsync, put-amr, "
      "sibling, all"));
  const int64_t object = flags.get_int(
      "object", 0, "workload object index to inspect (-1 = every version)");
  const int64_t worst = flags.get_int(
      "worst", 0,
      "instead of --object, inspect the N worst put-ack → AMR latency "
      "exemplars: prints the tail attribution report, then their span trees");
  const int64_t blackout_s = flags.get_int(
      "blackout-s", 0,
      "black out FS (0,0) for this many seconds from t=0 — the put still "
      "acks (10 of 12 fragments reachable) but AMR waits on convergence");
  const double loss = flags.get_double("loss", 0.0, "iid message loss rate");
  const std::string perfetto_path = flags.get_string(
      "perfetto", "",
      "also write the selected versions as a Chrome trace-event / Perfetto "
      "JSON file");
  const bool profile = flags.get_bool(
      "profile", false,
      "wall-clock phase profile: print the hottest phases and add a "
      "host-time track to --perfetto output (side channel; simulated "
      "results are unchanged)");
  flags.finish();

  obs::prof::set_enabled(profile);
  config.telemetry.spans = true;
  if (blackout_s > 0) {
    config.faults.push_back(core::FaultSpec::fs_blackout(
        0, 0, 0, blackout_s * kMicrosPerSecond));
  }
  if (loss > 0.0) {
    config.faults.push_back(core::FaultSpec::uniform_loss(loss));
  }

  core::RunResult result = core::run_experiment(config);

  std::vector<ObjectVersionId> selected;
  if (worst > 0) {
    // The attribution report already names the worst versions; jump
    // straight to their span trees.
    const std::vector<obs::Exemplar>& top = result.attribution.top;
    if (top.empty()) {
      std::fprintf(stderr,
                   "flag error: --worst=%lld but the run resolved no "
                   "versions (0 out of %d puts)\n",
                   static_cast<long long>(worst), result.puts_attempted);
      return 2;
    }
    for (const obs::Exemplar& e : top) {
      if (selected.size() >= static_cast<size_t>(worst)) break;
      selected.push_back(e.ov);
    }
  } else {
    // The workload names objects deterministically, so the inspector can
    // select by index without replaying the driver.
    const Key want{config.workload.key_prefix + std::to_string(object)};
    for (const ObjectVersionId& ov : result.spans.versions()) {
      if (object < 0 || ov.key == want) selected.push_back(ov);
    }
    if (selected.empty()) {
      std::fprintf(stderr,
                   "flag error: --object=%lld selected none of the %zu "
                   "traced versions (valid object indexes are 0..%d, -1 for "
                   "every version, or use --worst=N for the exemplar-ranked "
                   "tail)\n",
                   static_cast<long long>(object),
                   result.spans.versions().size(),
                   config.workload.num_puts - 1);
      return 2;
    }
  }

  std::printf("seed %llu: %d puts attempted, %d acked, %d versions AMR; "
              "audit: %s\n\n",
              static_cast<unsigned long long>(config.seed),
              result.puts_attempted, result.puts_acked, result.amr,
              result.audit.passed() ? "passed" : "FAILED");
  if (worst > 0) {
    std::printf("%s\n", result.attribution.to_text().c_str());
  }
  for (const ObjectVersionId& ov : selected) {
    std::fputs(result.spans.render_tree(ov).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  std::printf("%s", result.critical_path.to_text().c_str());
  if (profile) {
    std::printf("\nwall-clock profile (host time; hottest phases):\n%s",
                result.profile.to_text(12).c_str());
  }

  if (!perfetto_path.empty()) {
    obs::JsonWriter w;
    result.spans.export_perfetto(w, selected,
                                 profile ? &result.profile : nullptr);
    w.write_file(perfetto_path);
    std::printf("\nwrote %zu-version Perfetto trace to %s "
                "(open at https://ui.perfetto.dev)\n",
                selected.size(), perfetto_path.c_str());
  }
  return result.audit.passed() ? 0 : 1;
}
