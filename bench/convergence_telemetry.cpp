// Convergence telemetry bench (observability; not a paper figure): how long
// after the client ack object versions reach At Maximum Redundancy, and how
// the non-AMR backlog drains over simulated time, per convergence variant.
// This is the quantity the paper's §5 message-count figures are a proxy
// for — the optimizations trade messages against how quickly the system can
// *know* it is safe.
//
// Output: a human-readable table and BENCH_telemetry.json with, per
// variant, the pooled put-ack → AMR latency quantiles (p50/p95/p99), the
// span tracer's critical-path decomposition of that latency (per-component
// p50/p95 seconds and share of time-to-AMR), and the sampled
// backlog/pending/messages time-series (cross-seed means on the shared tick
// grid).
//
// Examples:
//   ./build/bench/convergence_telemetry
//   ./build/bench/convergence_telemetry --seeds=30 --jobs=8
//   ./build/bench/convergence_telemetry --puts=6 --seeds=2 --selfcheck
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "core/harness.h"

namespace pahoehoe {
namespace {

struct Variant {
  std::string name;
  core::AggregateResult agg;
  uint64_t acked_total = 0;  ///< exact, from the merged metric registry
};

/// Schema validation for the ctest smoke target: re-read the emitted file
/// and check the keys exist, the time axis is strictly increasing, and the
/// latency histogram accounts for every acked put. Prints the first
/// problem; returns false on any.
bool selfcheck(const std::string& path, size_t min_variants) {
  const auto fail = [&path](const char* what) {
    std::fprintf(stderr, "selfcheck %s: %s\n", path.c_str(), what);
    return false;
  };
  const std::optional<obs::JsonValue> doc = obs::json_parse_file(path);
  if (!doc.has_value()) return fail("unreadable or invalid JSON");
  for (const char* key :
       {"bench", "seeds", "puts", "object_kib", "sample_interval_s",
        "variants"}) {
    if (doc->find(key) == nullptr) return fail("missing top-level key");
  }
  std::string meta_error;
  if (!bench::check_meta(*doc, &meta_error)) return fail(meta_error.c_str());
  const obs::JsonValue* profile = doc->find("profile");
  if (profile == nullptr || !profile->is_array()) {
    return fail("profile array missing");
  }
  const obs::JsonValue* variants = doc->find("variants");
  if (!variants->is_array() || variants->array.size() < min_variants) {
    return fail("fewer variants than expected");
  }
  for (const obs::JsonValue& variant : variants->array) {
    for (const char* key :
         {"name", "time_to_amr_s", "amr_confirmed", "acked_total",
          "backlog_final", "timeline"}) {
      if (variant.find(key) == nullptr) return fail("missing variant key");
    }
    const obs::JsonValue* latency = variant.find("time_to_amr_s");
    for (const char* key : {"count", "p50", "p95", "p99", "max"}) {
      if (latency->find(key) == nullptr) return fail("missing quantile key");
    }
    // Failure-free runs drive every acked put to AMR, so the histogram must
    // account for exactly the acked ops (the "counts sum to ops" check).
    if (latency->find("count")->number !=
        variant.find("acked_total")->number) {
      return fail("latency count != acked puts");
    }
    // Critical-path decomposition: all four components present, versions
    // matching the latency sample count, shares inside [0, 1].
    const obs::JsonValue* path = variant.find("critical_path");
    if (path == nullptr) return fail("missing critical_path");
    if (path->find("versions") == nullptr ||
        path->find("versions")->number != latency->find("count")->number) {
      return fail("critical_path versions != time_to_amr count");
    }
    const obs::JsonValue* components = path->find("components");
    if (components == nullptr) return fail("missing critical_path components");
    for (const char* name : {"network_wait", "round_scheduling",
                             "recovery_backoff", "server_processing"}) {
      const obs::JsonValue* component = components->find(name);
      if (component == nullptr) return fail("missing path component");
      for (const char* key :
           {"total_s", "p50_s", "p95_s", "share_p50", "share_p95"}) {
        const obs::JsonValue* field = component->find(key);
        if (field == nullptr || field->number < 0) {
          return fail("missing or negative path component field");
        }
      }
      if (component->find("share_p95")->number > 1.0 + 1e-9) {
        return fail("path component share above 1");
      }
    }
    // Tail attribution: cohorts partition the resolved versions, gap
    // shares are proper fractions, and every top exemplar's integer
    // component micros telescope exactly to its reported latency.
    const obs::JsonValue* attribution = variant.find("tail_attribution");
    if (attribution == nullptr) return fail("missing tail_attribution");
    const std::optional<obs::AttributionReport> report =
        obs::attribution_from_json(*attribution);
    if (!report.has_value()) return fail("tail_attribution fails to parse");
    if (static_cast<double>(report->versions) !=
        latency->find("count")->number) {
      return fail("tail_attribution versions != time_to_amr count");
    }
    if (report->tail.versions + report->body.versions != report->versions) {
      return fail("tail + body cohorts do not partition the versions");
    }
    if (report->ranked.size() != obs::kPathComponentCount) {
      return fail("tail_attribution missing ranked components");
    }
    for (const obs::ComponentGap& gap : report->ranked) {
      if (gap.gap_share < 0.0 || gap.gap_share > 1.0 + 1e-9) {
        return fail("tail_attribution gap share outside [0, 1]");
      }
    }
    for (const obs::Exemplar& exemplar : report->top) {
      SimTime sum = 0;
      for (SimTime micros : exemplar.components) sum += micros;
      if (sum != exemplar.latency_micros) {
        return fail("exemplar components do not telescope to its latency");
      }
    }
    const obs::JsonValue* timeline = variant.find("timeline");
    const obs::JsonValue* t = timeline->find("t_s");
    if (t == nullptr || !t->is_array() || t->array.empty()) {
      return fail("missing timeline.t_s");
    }
    for (size_t i = 1; i < t->array.size(); ++i) {
      if (!(t->array[i - 1].number < t->array[i].number)) {
        return fail("timeline t_s not strictly increasing");
      }
    }
    for (const char* column :
         {"amr_backlog", "pending_versions", "msgs_sent", "bytes_sent"}) {
      const obs::JsonValue* series = timeline->find(column);
      if (series == nullptr || !series->is_array() ||
          series->array.size() != t->array.size()) {
        return fail("timeline column missing or misaligned");
      }
    }
  }
  std::printf("selfcheck %s: ok\n", path.c_str());
  return true;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds =
      static_cast<int>(flags.get_int("seeds", 10, "seeds per variant"));
  const int puts = static_cast<int>(flags.get_int("puts", 100, "puts"));
  const int object_kib =
      static_cast<int>(flags.get_int("object-kib", 100, "object size (KiB)"));
  const int jobs = static_cast<int>(
      flags.get_int("jobs", 1, "worker threads for seed dispatch"));
  const double sample_interval_s = flags.get_double(
      "sample-interval-s", 10.0, "time-series sampling interval (sim s)");
  const double blackout_min = flags.get_double(
      "blackout-min", 10.0,
      "black out FS (0,0) for this many minutes spanning the puts (0 = "
      "failure-free; then AMR concludes on the put path and all variants "
      "collapse to milliseconds)");
  const std::string out =
      flags.get_string("out", "BENCH_telemetry.json", "JSON output path");
  const bool check = flags.get_bool(
      "selfcheck", false, "re-parse the emitted JSON and validate it");
  flags.finish();

  core::RunConfig config = core::paper_default_config();
  config.workload.num_puts = puts;
  config.workload.value_size = static_cast<size_t>(object_kib) * 1024;
  config.telemetry.sample_interval =
      static_cast<SimTime>(sample_interval_s * kMicrosPerSecond);
  // Span tracing feeds the per-variant critical-path decomposition and the
  // tail attribution over it; it is a pure observer, so the measured runs
  // are unchanged.
  config.telemetry.spans = true;
  if (blackout_min > 0) {
    config.faults.push_back(core::FaultSpec::fs_blackout(
        0, 0, 0,
        static_cast<SimTime>(blackout_min * 60 * kMicrosPerSecond)));
  }

  struct Preset {
    const char* label;
    core::ConvergenceOptions conv;
  };
  const std::vector<Preset> presets = {
      {"none", core::ConvergenceOptions::naive()},
      {"FSAMR-S", core::ConvergenceOptions::fs_amr_sync()},
      {"FSAMR-U", core::ConvergenceOptions::fs_amr_unsync()},
      {"All", core::ConvergenceOptions::all_opts()},
  };

  std::printf("convergence telemetry: %d puts of %d KiB, %d seeds, "
              "sampling every %gs, FS blackout %g min\n\n",
              puts, object_kib, seeds, sample_interval_s, blackout_min);
  std::printf("%-10s %10s %10s %10s %10s %10s %8s\n", "variant", "acked",
              "p50 (s)", "p95 (s)", "p99 (s)", "max (s)", "samples");

  // Profile the measured runs; the merged per-seed phase tables land in the
  // JSON's profile section. Pure side channel — the simulated results are
  // byte-identical with this off (DESIGN.md §11, prof_test).
  obs::prof::set_enabled(true);
  obs::ProfReport profile;
  std::vector<Variant> variants;
  for (const Preset& preset : presets) {
    config.convergence = preset.conv;
    Variant v;
    v.name = preset.label;
    v.agg = core::run_many(config, seeds, /*base_seed=*/5000, jobs);
    v.acked_total = v.agg.metrics.counter_sum("amr_acked_total");
    const QuantileSketch& lat = v.agg.time_to_amr_s;
    std::printf("%-10s %10llu %10.2f %10.2f %10.2f %10.2f %8zu\n",
                v.name.c_str(), static_cast<unsigned long long>(v.acked_total),
                lat.quantile(0.50), lat.quantile(0.95), lat.quantile(0.99),
                lat.max(), v.agg.timeline.rows().size());
    std::printf("%-10s   p50 share of time-to-AMR:", "");
    for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
      const auto component = static_cast<obs::PathComponent>(c);
      std::printf(" %s %.2f", obs::to_string(component),
                  v.agg.critical_path.share(component).quantile(0.50));
    }
    std::printf("\n");
    std::fflush(stdout);
    profile.merge(v.agg.profile);
    variants.push_back(std::move(v));
  }
  obs::prof::set_enabled(false);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "convergence_telemetry");
  bench::json_meta(w, jobs);
  w.kv("seeds", seeds);
  w.kv("puts", puts);
  w.kv("object_kib", object_kib);
  w.kv("sample_interval_s", sample_interval_s);
  w.key("variants");
  w.begin_array();
  for (const Variant& v : variants) {
    w.begin_object();
    w.kv("name", v.name);
    w.key("time_to_amr_s");
    bench::json_quantiles(w, v.agg.time_to_amr_s);
    w.kv("acked_total", v.acked_total);
    w.key("amr_confirmed");
    bench::json_stat(w, v.agg.amr_confirmed);
    w.key("backlog_final");
    bench::json_stat(w, v.agg.amr_backlog_final);
    w.key("critical_path");
    w.begin_object();
    w.kv("versions", v.agg.critical_path.versions());
    w.key("components");
    w.begin_object();
    for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
      const auto component = static_cast<obs::PathComponent>(c);
      w.key(obs::to_string(component));
      w.begin_object();
      w.kv("total_s",
           static_cast<double>(v.agg.critical_path.total_micros(component)) /
               static_cast<double>(kMicrosPerSecond));
      const QuantileSketch& secs = v.agg.critical_path.seconds(component);
      w.kv("p50_s", secs.quantile(0.50));
      w.kv("p95_s", secs.quantile(0.95));
      const QuantileSketch& shr = v.agg.critical_path.share(component);
      w.kv("share_p50", shr.quantile(0.50));
      w.kv("share_p95", shr.quantile(0.95));
      w.end_object();
    }
    w.end_object();
    w.end_object();
    w.key("tail_attribution");
    obs::attribution_to_json(w, v.agg.attribution);
    w.key("timeline");
    w.begin_object();
    const obs::TimeSeries& series = v.agg.timeline;
    w.key("t_s");
    w.begin_array();
    for (const auto& row : series.rows()) {
      w.value(static_cast<double>(row.t) /
              static_cast<double>(kMicrosPerSecond));
    }
    w.end_array();
    for (size_t c = 0; c < series.columns().size(); ++c) {
      w.key(series.columns()[c]);
      w.begin_array();
      for (size_t r = 0; r < series.rows().size(); ++r) {
        w.value(series.value(r, c));
      }
      w.end_array();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  bench::json_profile(w, profile);
  w.end_object();
  if (!w.write_file(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());

  if (check && !selfcheck(out, /*min_variants=*/3)) return 1;
  return 0;
}

}  // namespace
}  // namespace pahoehoe

int main(int argc, char** argv) { return pahoehoe::run(argc, argv); }
