// Bench-trajectory regression gate for the erasure kernels: compares a
// fresh BENCH_erasure.json against the committed baseline for this host's
// class under bench/baselines/ and exits non-zero when a gated series
// regressed beyond its relative tolerance.
//
// Gate design — why this catches a >= 20% encode regression:
//  * machine-normalized (tol 15%): the best-kernel speedup vs scalar, and
//    encode/decode throughput divided by the same kernel's raw throughput
//    (`one_source_mb_s`: the dot product of one source into one output,
//    dst = c * src, one product per byte). A regression in the
//    encode/decode path around the kernel moves the ratio one-for-one
//    while the raw rate stays put; a SIMD-kernel regression moves the
//    speedup. Either way a 20% loss trips the 15% gate. Documents written
//    before the fused dot product timed an in-place `mul_acc_mb_s`
//    instead, which is not the same operation (the scalar kernel's
//    one-source pass is about 1.4x its old in-place pass), so against such
//    a baseline the ratio gates are reported as not run, not gated.
//  * absolute MB/s (tol 60%): a catastrophe net only — catches
//    "accidentally shipping the scalar path" class failures on same-class
//    hosts without gating on exact clock speeds.
// Neither is immune to host variance: on a shared 4-core VM every run
// failed several of the 56 gates, at any commit (EXPERIMENTS.md
// "Profiling & bench trajectory").
//
// Host class = the best GF(2^8) kernel the host supports (gfni / avx2 /
// ssse3 / scalar): baselines/erasure-<class>.json. A class without a
// baseline is gated against the next narrower class that has one, on the
// kernels both documents measured: a gfni host checked against
// erasure-avx2.json gates scalar, ssse3 and avx2, and notes that gfni is
// ungated. Simulated behaviour is not gated here: it is deterministic, so
// tests/golden_outcome_test pins it exactly.
//
// No baseline at or below the host's class, a baseline generated with
// different flags, or documents that share no scalar oracle is a SKIP with
// notice (exit 0) so CI on exotic runners degrades gracefully; --require
// turns skips into failures. --write-baseline installs the fresh document
// as the baseline of the host's own class. --selftest proves the gate
// engine itself on synthetic documents, including that an injected 20%
// encode-throughput regression fails, also when the fresh document
// measured a kernel the baseline did not.
//
// Examples:
//   ./build/bench/micro_erasure --selfcheck --target-ms=200
//   ./build/bench/trendcheck                       # gate the document
//   ./build/bench/trendcheck --write-baseline      # refresh the baseline
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "erasure/gf256.h"
#include "obs/json.h"

namespace pahoehoe {
namespace {

// Relative tolerances, per the gate design above.
constexpr double kTolNormalized = 0.15;  // speedups and per-kernel ratios
constexpr double kTolAbsolute = 0.60;    // raw MB/s catastrophe net

struct Outcome {
  bool comparable = false;   ///< false => structural mismatch, see skip_reason
  std::string skip_reason;
  int gates = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notices;  ///< non-fatal coverage gaps
};

/// Fresh must not fall below baseline * (1 - rel_tol).
void gate(Outcome& out, const std::string& name, double fresh,
          double baseline, double rel_tol) {
  ++out.gates;
  const double bound = baseline * (1.0 - rel_tol);
  if (fresh >= bound) return;
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "REGRESSION %s: fresh=%.6g below allowed %.6g "
                "(baseline %.6g, tol -%.0f%%)",
                name.c_str(), fresh, bound, baseline, rel_tol * 100);
  out.failures.push_back(msg);
}

/// meta.git_sha of a parsed document, for provenance lines.
std::string doc_sha(const obs::JsonValue& doc) {
  const obs::JsonValue* meta = doc.find("meta");
  const obs::JsonValue* sha = meta != nullptr ? meta->find("git_sha") : nullptr;
  return sha != nullptr && sha->is_string() ? sha->string : "unknown";
}

double num_or(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

// --- erasure gates ----------------------------------------------------------

std::vector<std::string> kernel_names(const obs::JsonValue& doc) {
  std::vector<std::string> names;
  const obs::JsonValue* kernels = doc.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) return names;
  for (const obs::JsonValue& k : kernels->array) names.push_back(k.string);
  return names;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

const obs::JsonValue* find_case(const obs::JsonValue& cases, double k,
                                double n, double fragment_size) {
  for (const obs::JsonValue& c : cases.array) {
    if (num_or(c.find("k"), -1) == k && num_or(c.find("n"), -1) == n &&
        num_or(c.find("fragment_size"), -1) == fragment_size) {
      return &c;
    }
  }
  return nullptr;
}

const obs::JsonValue* find_kernel_result(const obs::JsonValue& results,
                                         const std::string& kernel) {
  for (const obs::JsonValue& r : results.array) {
    const obs::JsonValue* name = r.find("kernel");
    if (name != nullptr && name->string == kernel) return &r;
  }
  return nullptr;
}

/// The names in both lists, in `a`'s order.
std::vector<std::string> shared(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& name : a) {
    if (std::find(b.begin(), b.end(), name) != b.end()) out.push_back(name);
  }
  return out;
}

/// The best `op` throughput among `kernels` over scalar's (at least 1): the
/// speedup micro_erasure reports, restricted to kernels both documents
/// measured.
double best_speedup(const obs::JsonValue& results,
                    const std::vector<std::string>& kernels, const char* op) {
  const obs::JsonValue* scalar = find_kernel_result(results, "scalar");
  const double base = scalar != nullptr ? num_or(scalar->find(op), 0) : 0;
  double best = 1.0;
  if (base <= 0) return best;
  for (const std::string& kernel : kernels) {
    const obs::JsonValue* r = find_kernel_result(results, kernel);
    if (r != nullptr) best = std::max(best, num_or(r->find(op), 0) / base);
  }
  return best;
}

Outcome compare_erasure(const obs::JsonValue& fresh,
                        const obs::JsonValue& baseline) {
  Outcome out;
  const std::vector<std::string> fresh_kernels = kernel_names(fresh);
  const std::vector<std::string> base_kernels = kernel_names(baseline);
  const std::vector<std::string> kernels =
      shared(fresh_kernels, base_kernels);
  if (std::find(kernels.begin(), kernels.end(), "scalar") == kernels.end()) {
    out.skip_reason = "no shared scalar oracle: fresh [" +
                      join(fresh_kernels) + "] vs baseline [" +
                      join(base_kernels) + "]";
    return out;
  }
  if (kernels != fresh_kernels || kernels != base_kernels) {
    out.notices.push_back("kernel sets differ: fresh [" + join(fresh_kernels) +
                          "] vs baseline [" + join(base_kernels) +
                          "]; gating the shared [" + join(kernels) + "]");
  }
  const obs::JsonValue* fresh_cases = fresh.find("cases");
  const obs::JsonValue* base_cases = baseline.find("cases");
  if (fresh_cases == nullptr || !fresh_cases->is_array() ||
      base_cases == nullptr || !base_cases->is_array()) {
    out.skip_reason = "cases array missing";
    return out;
  }
  out.comparable = true;

  int unrun_ratios = 0;
  for (const obs::JsonValue& fc : fresh_cases->array) {
    const double k = num_or(fc.find("k"), -1);
    const double n = num_or(fc.find("n"), -1);
    const double frag = num_or(fc.find("fragment_size"), -1);
    char label[64];
    std::snprintf(label, sizeof(label), "k=%g n=%g frag=%gK", k, n,
                  frag / 1024);
    const obs::JsonValue* bc = find_case(*base_cases, k, n, frag);
    if (bc == nullptr) {
      out.notices.push_back(std::string("case ") + label +
                            " has no baseline (new case? refresh with "
                            "--write-baseline)");
      continue;
    }
    const obs::JsonValue& fresh_results = *fc.find("results");
    const obs::JsonValue& base_results = *bc->find("results");
    // Machine-normalized: best-kernel speedup over scalar.
    for (const char* op : {"encode", "decode"}) {
      const std::string key = std::string(op) + "_mb_s";
      gate(out, std::string(label) + " speedup." + op,
           best_speedup(fresh_results, kernels, key.c_str()),
           best_speedup(base_results, kernels, key.c_str()), kTolNormalized);
    }
    for (const std::string& kernel : kernels) {
      const obs::JsonValue* fr = find_kernel_result(fresh_results, kernel);
      const obs::JsonValue* br = find_kernel_result(base_results, kernel);
      if (fr == nullptr || br == nullptr) {
        out.notices.push_back(std::string(label) + " kernel " + kernel +
                              " has no result in both documents");
        continue;
      }
      const std::string prefix = std::string(label) + " " + kernel + " ";
      const double f_raw = num_or(fr->find("one_source_mb_s"), 0);
      const double b_raw = num_or(br->find("one_source_mb_s"), 0);
      for (const char* op : {"encode_mb_s", "decode_mb_s"}) {
        const double f = num_or(fr->find(op), 0);
        const double b = num_or(br->find(op), 0);
        // Machine-normalized: throughput per unit of this host's own raw
        // kernel throughput. A kernel-wide slowdown cancels out; an
        // encode/decode-path regression does not.
        if (f_raw > 0 && b_raw > 0) {
          gate(out, prefix + op + "/one_source", f / f_raw, b / b_raw,
               kTolNormalized);
        } else {
          ++unrun_ratios;
        }
        gate(out, prefix + op, f, b, kTolAbsolute);
      }
    }
  }
  if (unrun_ratios > 0) {
    out.notices.push_back(
        std::to_string(unrun_ratios) +
        " ratio gates not run: a document has no one_source_mb_s (a "
        "baseline from before it; refresh it with --write-baseline on a "
        "host of its class)");
  }
  return out;
}

// --- document plumbing ------------------------------------------------------

/// nullopt with a stderr note when unreadable or failing check_meta.
std::optional<obs::JsonValue> load_checked(const std::string& path,
                                           const char* role) {
  std::optional<obs::JsonValue> doc = obs::json_parse_file(path);
  if (!doc.has_value()) {
    std::fprintf(stderr, "trendcheck: %s %s: unreadable or invalid JSON\n",
                 role, path.c_str());
    return std::nullopt;
  }
  std::string meta_error;
  if (!bench::check_meta(*doc, &meta_error)) {
    std::fprintf(stderr, "trendcheck: %s %s: %s\n", role, path.c_str(),
                 meta_error.c_str());
    return std::nullopt;
  }
  return doc;
}

bool copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trendcheck: cannot read %s\n", from.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out || !(out << buf.str())) {
    std::fprintf(stderr, "trendcheck: cannot write %s\n", to.c_str());
    return false;
  }
  return true;
}

// --- selftest ---------------------------------------------------------------

/// A miniature but shape-complete erasure document (two kernels, one case;
/// with `wide`, a third kernel as a host of a wider class measures).
std::string synth_erasure_text(bool wide) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "erasure");
  bench::json_meta(w, /*jobs=*/1);
  w.key("kernels");
  w.begin_array().value("scalar").value("simd");
  if (wide) w.value("wide");
  w.end_array();
  w.key("cases");
  w.begin_array();
  w.begin_object();
  w.kv("k", 4).kv("n", 12).kv("fragment_size", 65536);
  w.key("results");
  w.begin_array();
  w.begin_object()
      .kv("kernel", "scalar")
      .kv("encode_mb_s", 1000.0)
      .kv("decode_mb_s", 900.0)
      .kv("one_source_mb_s", 2000.0)
      .end_object();
  w.begin_object()
      .kv("kernel", "simd")
      .kv("encode_mb_s", 5000.0)
      .kv("decode_mb_s", 4500.0)
      .kv("one_source_mb_s", 11000.0)
      .end_object();
  if (wide) {
    w.begin_object()
        .kv("kernel", "wide")
        .kv("encode_mb_s", 9000.0)
        .kv("decode_mb_s", 8100.0)
        .kv("one_source_mb_s", 20000.0)
        .end_object();
  }
  w.end_array();
  w.key("speedup");
  const double speedup = wide ? 9.0 : 5.0;
  w.begin_object().kv("encode", speedup).kv("decode", speedup).end_object();
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

int selftest_fail(const char* what) {
  std::fprintf(stderr, "trendcheck --selftest: FAIL: %s\n", what);
  return 1;
}

bool any_failure_mentions(const Outcome& out, const std::string& needle) {
  for (const std::string& line : out.failures) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Uniform 20% encode regression across every kernel of `doc`.
void regress_encode(obs::JsonValue& doc) {
  for (obs::JsonValue& c : doc.object["cases"].array) {
    for (obs::JsonValue& r : c.object["results"].array) {
      r.object["encode_mb_s"].number *= 0.8;
    }
  }
}

/// Prove the gate engine: identical documents pass, and an injected 20%
/// encode-throughput regression (the acceptance scenario) fails, also when
/// one document measured a kernel the other did not.
int run_selftest() {
  const std::string erasure_text = synth_erasure_text(/*wide=*/false);
  obs::JsonValue base = *obs::json_parse(erasure_text);
  obs::JsonValue fresh = *obs::json_parse(erasure_text);

  Outcome same = compare_erasure(fresh, base);
  if (!same.comparable || same.gates == 0 || !same.failures.empty()) {
    return selftest_fail("identical erasure documents must pass");
  }

  // Uniform 20% encode regression across every kernel: the speedup is
  // unchanged (it is a ratio of two regressed numbers) and the absolute
  // gates are inside their catastrophe tolerance — only the
  // encode/one_source ratio gates can catch it, and they must.
  regress_encode(fresh);
  Outcome regressed = compare_erasure(fresh, base);
  if (regressed.failures.empty() ||
      !any_failure_mentions(regressed, "encode_mb_s/one_source")) {
    return selftest_fail(
        "injected 20% encode regression must trip the ratio gate");
  }

  // A wider-class host against a narrower class's baseline, and the
  // reverse: the kernels both measured are gated, the extra one is noted,
  // and the speedup compares the shared kernels only.
  obs::JsonValue wide = *obs::json_parse(synth_erasure_text(/*wide=*/true));
  for (const Outcome& o :
       {compare_erasure(wide, base), compare_erasure(base, wide)}) {
    if (!o.comparable || o.gates != same.gates || !o.failures.empty() ||
        o.notices.empty()) {
      return selftest_fail(
          "documents with different kernel sets must gate the shared ones");
    }
  }
  regress_encode(wide);
  if (!any_failure_mentions(compare_erasure(wide, base),
                            "simd encode_mb_s/one_source")) {
    return selftest_fail(
        "a shared kernel's 20% encode regression must trip its ratio gate "
        "when the fresh document has an extra kernel");
  }

  // A baseline from before one_source_mb_s: its ratio gates are reported
  // as not run, and the speedup and absolute gates still gate.
  obs::JsonValue stale = *obs::json_parse(erasure_text);
  for (obs::JsonValue& c : stale.object["cases"].array) {
    for (obs::JsonValue& r : c.object["results"].array) {
      r.object.erase("one_source_mb_s");
    }
  }
  const Outcome old_base = compare_erasure(base, stale);
  if (!old_base.comparable || old_base.gates == 0 ||
      old_base.gates >= same.gates || !old_base.failures.empty() ||
      old_base.notices.empty() ||
      old_base.notices.back().find("not run") == std::string::npos) {
    return selftest_fail(
        "a baseline without one_source_mb_s must report its ratio gates "
        "as not run and gate the rest");
  }

  std::printf("trendcheck --selftest: ok (pass and regress paths behave; "
              "%d gates exercised)\n",
              same.gates);
  return 0;
}

// --- main -------------------------------------------------------------------

/// Gate the fresh document against the baseline. Returns 0 on pass or
/// skip, 1 on regression or on a skip under --require.
int gate_erasure(const std::string& fresh_path,
                 const std::string& baseline_path, bool require) {
  const auto skip = [&](const std::string& why) {
    std::printf("trendcheck: SKIP erasure: %s\n", why.c_str());
    if (!require) return 0;
    std::fprintf(stderr, "trendcheck: --require: skip is a failure\n");
    return 1;
  };
  std::optional<obs::JsonValue> baseline = obs::json_parse_file(baseline_path);
  if (!baseline.has_value()) {
    return skip("no baseline " + baseline_path +
                " (generate one with --write-baseline)");
  }
  std::string meta_error;
  if (!bench::check_meta(*baseline, &meta_error)) {
    return skip("stale baseline " + baseline_path + ": " + meta_error);
  }
  // An unreadable *fresh* document is a hard error: the bench that was
  // supposed to produce it failed, and a skip would mask that in CI.
  const std::optional<obs::JsonValue> fresh =
      load_checked(fresh_path, "erasure");
  if (!fresh.has_value()) return 1;

  const Outcome out = compare_erasure(*fresh, *baseline);
  if (!out.comparable) return skip(out.skip_reason);
  for (const std::string& notice : out.notices) {
    std::printf("trendcheck: note (erasure): %s\n", notice.c_str());
  }
  for (const std::string& failure : out.failures) {
    std::fprintf(stderr, "trendcheck: erasure: %s\n", failure.c_str());
  }
  std::printf("trendcheck: erasure: %d gates vs %s (baseline build %s): %s\n",
              out.gates, baseline_path.c_str(), doc_sha(*baseline).c_str(),
              out.failures.empty() ? "pass" : "FAIL");
  if (out.failures.empty()) {
    std::printf("trendcheck: PASS (%d gates)\n", out.gates);
    return 0;
  }
  std::fprintf(stderr, "trendcheck: FAIL\n");
  return 1;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string baselines = flags.get_string(
      "baselines", "bench/baselines", "committed baseline directory");
  const std::string erasure_path = flags.get_string(
      "erasure", "BENCH_erasure.json", "fresh erasure bench JSON");
  const bool write_baseline = flags.get_bool(
      "write-baseline", false,
      "install the fresh document as the new baseline and exit");
  const bool require = flags.get_bool(
      "require", false, "treat a skipped comparison as a failure");
  const bool selftest = flags.get_bool(
      "selftest", false, "prove the gate engine on synthetic documents");
  flags.finish();

  if (selftest) return run_selftest();

  const gf256::Kernel host = gf256::best_kernel();
  const auto baseline_of = [&](gf256::Kernel k) {
    return baselines + "/erasure-" + gf256::to_string(k) + ".json";
  };
  const std::string erasure_baseline = baseline_of(host);
  std::printf("trendcheck: host class %s\n", gf256::to_string(host));

  if (write_baseline) {
    const std::optional<obs::JsonValue> doc =
        load_checked(erasure_path, "fresh");
    if (!doc.has_value() || !copy_file(erasure_path, erasure_baseline)) {
      return 1;
    }
    std::printf("trendcheck: wrote %s (build %s)\n", erasure_baseline.c_str(),
                doc_sha(*doc).c_str());
    return 0;
  }
  // The host's own class, else the next narrower one with a baseline (the
  // Kernel values run from scalar up to the widest).
  for (int k = static_cast<int>(host); k >= 0; --k) {
    const std::string path = baseline_of(static_cast<gf256::Kernel>(k));
    if (!std::filesystem::exists(path)) continue;
    if (path != erasure_baseline) {
      std::printf("trendcheck: no baseline for class %s; gating the kernels "
                  "it shares with %s\n",
                  gf256::to_string(host), path.c_str());
    }
    return gate_erasure(erasure_path, path, require);
  }
  return gate_erasure(erasure_path, erasure_baseline, require);
}

}  // namespace
}  // namespace pahoehoe

int main(int argc, char** argv) { return pahoehoe::run(argc, argv); }
