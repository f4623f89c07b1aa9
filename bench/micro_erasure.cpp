// Micro-benchmarks for the erasure codec (cf. the paper's §2 claim, after
// Plank et al. FAST'09, that modern erasure-code implementations are fast
// enough for the put/get path).
//
// Two modes:
//  - google-benchmark (default, or any --benchmark_* flag): the historical
//    BM_* suite under whatever GF(2^8) and SHA-256 kernels the dispatchers
//    selected (override with PAHOEHOE_GF256_KERNEL and
//    PAHOEHOE_SHA256_KERNEL).
//  - JSON mode (any of --out / --selfcheck / --target-ms / --kernels):
//    measures encode / decode-from-parity / one-source dot-product
//    throughput for every supported kernel per (k, n, fragment_size)
//    case, verifies the
//    kernels stay byte-identical to scalar while doing so, and emits
//    BENCH_erasure.json through the shared obs::JsonWriter path.
//    --selfcheck re-parses the emitted file and validates its schema
//    (the erasure_bench_smoke ctest runs this).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"
#include "obs/json.h"
#include "obs/prof.h"

namespace pahoehoe {
namespace {

Bytes make_value(size_t size) {
  Rng rng(99);
  Bytes value(size);
  for (auto& b : value) b = static_cast<uint8_t>(rng.next_u64());
  return value;
}

void BM_Encode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  erasure::ReedSolomon rs(k, n);
  const Bytes value = make_value(size);
  for (auto _ : state) {
    auto frags = rs.encode(value);
    benchmark::DoNotOptimize(frags);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(gf256::to_string(gf256::active_kernel()));
}
BENCHMARK(BM_Encode)
    ->Args({4, 12, 100 * 1024})   // the paper's default policy and object
    ->Args({4, 12, 1024 * 1024})
    ->Args({8, 12, 100 * 1024})
    ->Args({16, 20, 100 * 1024});

void BM_DecodeFromParity(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  erasure::ReedSolomon rs(4, 12);
  const Bytes value = make_value(size);
  const auto frags = rs.encode(value);
  std::vector<erasure::IndexedFragment> input;
  for (int i = 8; i < 12; ++i) input.push_back({i, &frags[static_cast<size_t>(i)]});
  for (auto _ : state) {
    Bytes out = rs.decode(input, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(gf256::to_string(gf256::active_kernel()));
}
BENCHMARK(BM_DecodeFromParity)->Arg(100 * 1024)->Arg(1024 * 1024);

void BM_DecodeSystematic(benchmark::State& state) {
  // Decoding from the k data fragments is a pure reassembly.
  const size_t size = static_cast<size_t>(state.range(0));
  erasure::ReedSolomon rs(4, 12);
  const Bytes value = make_value(size);
  const auto frags = rs.encode(value);
  std::vector<erasure::IndexedFragment> input;
  for (int i = 0; i < 4; ++i) input.push_back({i, &frags[static_cast<size_t>(i)]});
  for (auto _ : state) {
    Bytes out = rs.decode(input, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_DecodeSystematic)->Arg(100 * 1024);

void BM_RegenerateAllSiblings(benchmark::State& state) {
  // The §4.2 sibling-recovery hot path: one k-read regenerates 8 fragments.
  const size_t size = static_cast<size_t>(state.range(0));
  erasure::ReedSolomon rs(4, 12);
  const Bytes value = make_value(size);
  const auto frags = rs.encode(value);
  std::vector<erasure::IndexedFragment> input;
  for (int i = 0; i < 4; ++i) input.push_back({i, &frags[static_cast<size_t>(i)]});
  const std::vector<int> targets{4, 5, 6, 7, 8, 9, 10, 11};
  for (auto _ : state) {
    auto out = rs.regenerate(input, targets, size);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(gf256::to_string(gf256::active_kernel()));
}
BENCHMARK(BM_RegenerateAllSiblings)->Arg(100 * 1024);

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes data = make_value(size);
  for (auto _ : state) {
    auto digest = Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  state.SetLabel(sha256::to_string(sha256::active_kernel()));
}
BENCHMARK(BM_Sha256)->Arg(25600)->Arg(100 * 1024);

// A put's stripe: `lanes` 25 KiB fragments of one value (12 is the (4, 12)
// stripe of a 100 KiB value), hashed as one Sha256::hash_many batch
// (batch:1) or one Sha256::hash at a time (batch:0). Under the avx512
// kernel a 16-lane call costs the same whatever the lane count, so the
// crossover (sha256::kLaneCrossover) is the batch time at 16 lanes over
// the one-at-a-time time at 1; batches below it loop the one-at-a-time
// kernel.
void BM_Sha256Stripe(benchmark::State& state) {
  const size_t lanes = static_cast<size_t>(state.range(0));
  const bool batch = state.range(1) != 0;
  constexpr size_t kFragment = 25600;
  const Bytes value = make_value(lanes * kFragment);
  std::vector<std::span<const uint8_t>> inputs;
  for (size_t i = 0; i < lanes; ++i) {
    inputs.emplace_back(value.data() + i * kFragment, kFragment);
  }
  std::vector<Sha256::Digest> digests(lanes);
  for (auto _ : state) {
    if (batch) {
      Sha256::hash_many(inputs, digests);
    } else {
      for (size_t i = 0; i < lanes; ++i) digests[i] = Sha256::hash(inputs[i]);
    }
    benchmark::DoNotOptimize(digests.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes * kFragment));
  state.SetLabel(sha256::to_string(sha256::active_kernel()));
}
BENCHMARK(BM_Sha256Stripe)
    ->ArgNames({"lanes", "batch"})
    ->ArgsProduct({{1, 4, 8, 12, 16}, {0, 1}});

// --- JSON mode --------------------------------------------------------------

struct Case {
  int k;
  int n;
  size_t fragment_size;
};

// The acceptance case (k=4, n=12, 64 KiB fragments) first, then a short-
// fragment case for the head/tail remainder paths and two wider codes.
constexpr Case kCases[] = {
    {4, 12, 64 * 1024},
    {4, 12, 4 * 1024},
    {8, 12, 64 * 1024},
    {16, 20, 64 * 1024},
};

/// Run `op` repeatedly until ~target_ms of wall clock elapsed; MB/s over
/// `bytes_per_iter` (decimal MB, matching google-benchmark's bytes/sec).
template <typename Op>
double measure_mb_s(int64_t target_ms, size_t bytes_per_iter, Op op) {
  // lint:wallclock-ok(bench harness measures host throughput, not sim state)
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::milliseconds(target_ms);
  // Warm once (also faults in tables and the destination pages).
  op();
  int64_t iters = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    op();
    ++iters;
    now = Clock::now();
  } while (now - start < budget);
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - start)
          .count();
  return static_cast<double>(iters) * static_cast<double>(bytes_per_iter) /
         seconds / 1e6;
}

struct KernelResult {
  gf256::Kernel kernel;
  double encode_mb_s = 0;
  double decode_mb_s = 0;
  double one_source_mb_s = 0;
};

struct CaseResult {
  Case c;
  std::vector<KernelResult> results;
  double speedup_encode = 1.0;  // best kernel vs scalar
  double speedup_decode = 1.0;
};

bool selfcheck_json(const std::string& path, size_t expected_kernels) {
  const auto fail = [&path](const char* what) {
    std::fprintf(stderr, "selfcheck %s: %s\n", path.c_str(), what);
    return false;
  };
  const auto doc = obs::json_parse_file(path);
  if (!doc.has_value()) return fail("unreadable or invalid JSON");
  const obs::JsonValue* bench = doc->find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string != "erasure") {
    return fail("missing bench == \"erasure\"");
  }
  std::string meta_error;
  if (!bench::check_meta(*doc, &meta_error)) return fail(meta_error.c_str());
  const obs::JsonValue* profile = doc->find("profile");
  if (profile == nullptr || !profile->is_array()) {
    return fail("profile array missing");
  }
  const obs::JsonValue* active = doc->find("active_default");
  if (active == nullptr || !active->is_string()) {
    return fail("missing active_default kernel name");
  }
  const obs::JsonValue* kernels = doc->find("kernels");
  if (kernels == nullptr || !kernels->is_array() ||
      kernels->array.size() != expected_kernels) {
    return fail("kernels array missing or wrong length");
  }
  if (kernels->array.empty() || !kernels->array[0].is_string() ||
      kernels->array[0].string != "scalar") {
    return fail("kernels[0] must be the scalar oracle");
  }
  const obs::JsonValue* cases = doc->find("cases");
  if (cases == nullptr || !cases->is_array() || cases->array.empty()) {
    return fail("cases array missing or empty");
  }
  for (const obs::JsonValue& c : cases->array) {
    for (const char* key : {"k", "n", "fragment_size", "value_size"}) {
      const obs::JsonValue* v = c.find(key);
      if (v == nullptr || !v->is_number() || v->number <= 0) {
        return fail("case missing positive numeric k/n/fragment_size");
      }
    }
    const obs::JsonValue* results = c.find("results");
    if (results == nullptr || !results->is_array() ||
        results->array.size() != expected_kernels) {
      return fail("case results missing or wrong length");
    }
    for (const obs::JsonValue& r : results->array) {
      const obs::JsonValue* name = r.find("kernel");
      if (name == nullptr || !name->is_string()) {
        return fail("result missing kernel name");
      }
      for (const char* key :
           {"encode_mb_s", "decode_mb_s", "one_source_mb_s"}) {
        const obs::JsonValue* v = r.find(key);
        if (v == nullptr || !v->is_number() || v->number <= 0) {
          return fail("result missing positive throughput");
        }
      }
    }
    const obs::JsonValue* speedup = c.find("speedup");
    if (speedup == nullptr || speedup->find("encode") == nullptr ||
        speedup->find("decode") == nullptr) {
      return fail("case missing speedup object");
    }
  }
  std::printf("selfcheck %s: ok\n", path.c_str());
  return true;
}

int run_json_mode(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string out = flags.get_string(
      "out", "BENCH_erasure.json", "output JSON path");
  const int64_t target_ms = flags.get_int(
      "target-ms", 300, "wall-clock budget per (case, kernel, op) sample");
  const bool check = flags.get_bool(
      "selfcheck", false, "re-parse the emitted JSON and validate it");
  const std::string kernels_flag = flags.get_string(
      "kernels", "", "comma list limiting measured kernels (default: all "
                     "supported; scalar is always included as the oracle)");
  flags.finish();

  std::vector<gf256::Kernel> kernels = gf256::supported_kernels();
  if (!kernels_flag.empty()) {
    std::vector<gf256::Kernel> picked{gf256::Kernel::kScalar};
    size_t pos = 0;
    while (pos <= kernels_flag.size()) {
      const size_t comma = kernels_flag.find(',', pos);
      const std::string name = kernels_flag.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      pos = comma == std::string::npos ? kernels_flag.size() + 1 : comma + 1;
      const auto k = gf256::parse_kernel(name);
      if (!k.has_value()) {
        std::fprintf(stderr, "unknown kernel \"%s\"\n", name.c_str());
        return 1;
      }
      if (!gf256::kernel_supported(*k)) {
        std::fprintf(stderr, "kernel %s not supported on this host\n",
                     name.c_str());
        return 1;
      }
      if (*k != gf256::Kernel::kScalar) picked.push_back(*k);
    }
    kernels = std::move(picked);
  }

  const gf256::Kernel default_kernel = gf256::active_kernel();
  // Profile the measurement run itself: the per-kernel rs_encode/rs_decode
  // phases land in the emitted profile section. Scope entry costs ~25 ns
  // against ops tens of microseconds long, so throughput is unaffected at
  // the tolerance scale trendcheck gates on.
  obs::prof::set_enabled(true);
  const obs::prof::Snapshot prof_begin = obs::prof::capture_begin();
  std::vector<CaseResult> cases;
  for (const Case& c : kCases) {
    CaseResult cr;
    cr.c = c;
    const size_t value_size = static_cast<size_t>(c.k) * c.fragment_size;
    erasure::ReedSolomon rs(c.k, c.n);
    const Bytes value = make_value(value_size);

    // Scalar fragments are the oracle every other kernel must reproduce.
    gf256::force_kernel(gf256::Kernel::kScalar);
    const auto oracle = rs.encode(value);
    // Decode from the last k fragments — maximally non-systematic.
    std::vector<erasure::IndexedFragment> parity_input;
    for (int i = c.n - c.k; i < c.n; ++i) {
      parity_input.push_back({i, &oracle[static_cast<size_t>(i)]});
    }
    // The raw kernel rate trendcheck divides encode and decode by: the
    // dot product of one source into one output (dst = c * src), one
    // product per byte.
    const Bytes raw_src = make_value(c.fragment_size);
    Bytes raw_dst(c.fragment_size, 0);
    const uint8_t raw_coef[] = {0x57};
    const uint8_t* const raw_srcs[] = {raw_src.data()};
    uint8_t* const raw_dsts[] = {raw_dst.data()};

    for (gf256::Kernel k : kernels) {
      gf256::force_kernel(k);
      if (rs.encode(value) != oracle || rs.decode(parity_input, value_size) != value) {
        std::fprintf(stderr, "kernel %s is NOT bit-identical to scalar\n",
                     gf256::to_string(k));
        gf256::reset_kernel();
        return 1;
      }
      KernelResult r;
      r.kernel = k;
      r.encode_mb_s = measure_mb_s(target_ms, value_size,
                                   [&] { benchmark::DoNotOptimize(rs.encode(value)); });
      r.decode_mb_s = measure_mb_s(target_ms, value_size, [&] {
        benchmark::DoNotOptimize(rs.decode(parity_input, value_size));
      });
      r.one_source_mb_s = measure_mb_s(target_ms, c.fragment_size, [&] {
        gf256::dot_prod(raw_coef, raw_srcs, raw_dsts, c.fragment_size);
        benchmark::DoNotOptimize(raw_dst.data());
      });
      cr.results.push_back(r);
    }
    const KernelResult& scalar = cr.results.front();
    for (const KernelResult& r : cr.results) {
      cr.speedup_encode =
          std::max(cr.speedup_encode, r.encode_mb_s / scalar.encode_mb_s);
      cr.speedup_decode =
          std::max(cr.speedup_decode, r.decode_mb_s / scalar.decode_mb_s);
    }
    cases.push_back(std::move(cr));
  }
  // Back to the dispatcher's own choice (env override or auto).
  gf256::reset_kernel();
  const obs::ProfReport profile = obs::prof::capture_delta(prof_begin);
  obs::prof::set_enabled(false);

  std::printf("%-18s %-8s %12s %12s %12s\n", "case", "kernel", "encode MB/s",
              "decode MB/s", "1-source MB/s");
  for (const CaseResult& cr : cases) {
    char label[64];
    std::snprintf(label, sizeof(label), "k=%d n=%d frag=%zuK", cr.c.k, cr.c.n,
                  cr.c.fragment_size / 1024);
    for (const KernelResult& r : cr.results) {
      std::printf("%-18s %-8s %12.1f %12.1f %12.1f\n", label,
                  gf256::to_string(r.kernel), r.encode_mb_s, r.decode_mb_s,
                  r.one_source_mb_s);
    }
    std::printf("%-18s %-8s %9.2fx %11.2fx\n", label, "speedup",
                cr.speedup_encode, cr.speedup_decode);
  }

  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "erasure");
  bench::json_meta(w, /*jobs=*/1);  // measurement is single-threaded
  w.kv("active_default", gf256::to_string(default_kernel));
  w.kv("target_ms", target_ms);
  w.key("kernels");
  w.begin_array();
  for (gf256::Kernel k : kernels) w.value(gf256::to_string(k));
  w.end_array();
  w.key("cases");
  w.begin_array();
  for (const CaseResult& cr : cases) {
    w.begin_object();
    w.kv("k", cr.c.k);
    w.kv("n", cr.c.n);
    w.kv("fragment_size", static_cast<uint64_t>(cr.c.fragment_size));
    w.kv("value_size",
         static_cast<uint64_t>(cr.c.fragment_size) * static_cast<uint64_t>(cr.c.k));
    w.key("results");
    w.begin_array();
    for (const KernelResult& r : cr.results) {
      w.begin_object();
      w.kv("kernel", gf256::to_string(r.kernel));
      w.kv("encode_mb_s", r.encode_mb_s);
      w.kv("decode_mb_s", r.decode_mb_s);
      w.kv("one_source_mb_s", r.one_source_mb_s);
      w.end_object();
    }
    w.end_array();
    w.key("speedup");
    w.begin_object();
    w.kv("encode", cr.speedup_encode);
    w.kv("decode", cr.speedup_decode);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  bench::json_profile(w, profile);
  w.end_object();
  if (!w.write_file(out)) return 1;
  std::printf("wrote %s\n", out.c_str());

  if (check && !selfcheck_json(out, kernels.size())) return 1;
  return 0;
}

bool wants_json_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    for (const char* prefix :
         {"--out", "--selfcheck", "--target-ms", "--kernels", "--help"}) {
      if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) return true;
    }
  }
  return false;
}

}  // namespace
}  // namespace pahoehoe

int main(int argc, char** argv) {
  if (pahoehoe::wants_json_mode(argc, argv)) {
    return pahoehoe::run_json_mode(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
