// Host cost of the paper's workloads, end to end and layer by layer.
//
// One process, one thread: each seed-run is a core::run_experiment on a
// RunConfig built here, run back to back with the others. The seed list
// comes from --seed (and --heldout), so the library only ever sees the
// generated configs. Normally driven by run.py, which builds both binaries
// and samples set-up time in separate processes:
//
//   perfbench        --workload=put_100k --seed=1 --seconds=20
//                    [--setup-only] [--setup-samples=0.51,0.49] [--tiny]
//   perfbench_traced (same flags)   per-layer ledger instead of end-to-end
//
// Every seed-run must pass the audit with no mismatched get and reach
// quiescence, and every repeat of a seed must reproduce its outcome digest.
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics, each with its unit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "core/harness.h"

#ifdef PERFBENCH_TRACED
#include "ledger.h"
#endif

namespace {

using namespace pahoehoe;
using Clock = std::chrono::steady_clock;

/// Taken during static initialization, before main: the set-up clock
/// starts as close to process start as the program can observe.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr SimTime kMinute = 60 * kMicrosPerSecond;

// --- workloads ---------------------------------------------------------------
// All three use the paper's topology (2 DCs x (2 KLS + 3 FS)), policy (4,12)
// and every §4 optimisation; README.md records why each was chosen.

core::RunConfig paper_all_opts(int puts, size_t value_size) {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = puts;
  config.workload.value_size = value_size;
  return config;
}

/// Fig 5 "All": 100 KiB puts at 1 s spacing, no faults, no reads.
core::RunConfig put_100k(int puts) { return paper_all_opts(puts, 100 * 1024); }

/// 1 KiB puts while one FS per DC is blacked out for the first hour: the
/// convergence backlog grows with every put.
core::RunConfig fs_outage_backlog(int puts) {
  core::RunConfig config = paper_all_opts(puts, 1024);
  config.faults = {core::FaultSpec::fs_blackout(0, 0, 0, 60 * kMinute),
                   core::FaultSpec::fs_blackout(1, 0, 0, 60 * kMinute)};
  return config;
}

/// Fig 9 at 10% iid loss with client retries; open-loop Poisson arrivals at
/// 4 puts/s, every object read back 30 s after its put resolves.
core::RunConfig lossy_read_write(int puts) {
  core::RunConfig config = paper_all_opts(puts, 100 * 1024);
  config.workload.arrivals = core::ArrivalProcess::kOpenPoisson;
  config.workload.arrival_rate_per_s = 4.0;
  config.workload.retry_failed = true;
  config.workload.get_fraction = 1.0;
  config.workload.get_delay = 30 * kMicrosPerSecond;
  config.faults = {core::FaultSpec::uniform_loss(0.10)};
  return config;
}

struct Workload {
  const char* name;
  core::RunConfig (*make)(int puts);
  int puts;   ///< objects per seed-run
  int seeds;  ///< seed-runs per pass
};

constexpr Workload kWorkloads[] = {
    {"put_100k", put_100k, 100, 10},
    {"fs_outage_backlog", fs_outage_backlog, 400, 3},
    {"lossy_read_write", lossy_read_write, 100, 10},
};
// --tiny: the smoke test's size.
constexpr int kTinyPuts = 5;
constexpr int kTinySeeds = 2;

/// Seed list for --seed; --heldout draws from a disjoint stream so a claim
/// can be re-checked on seeds nobody tuned against.
std::vector<uint64_t> seed_list(uint64_t seed, bool heldout, int count) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    uint64_t z = (seed << 8 | static_cast<uint64_t>(i)) +
                 (heldout ? 0xd1b54a32d192ed03ULL : 0);
    z += 0x9e3779b97f4a7c15ULL;  // splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    seeds.push_back(z ^ (z >> 31));
  }
  return seeds;
}

// --- one seed-run ------------------------------------------------------------

/// The sim-plane outcome of one seed-run, kept instead of the RunResult so
/// memory stays that of a single run.
struct Outcome {
  std::string breach;  ///< empty when every correctness gate held
  uint64_t digest = 0;
  int puts_attempted = 0;
  int puts_acked = 0;
  int gets_attempted = 0;
  int gets_ok = 0;
  net::NetworkStats stats;
  uint64_t events = 0;
  std::vector<double> put_latency_s;
  std::vector<double> get_latency_s;
  /// Exact put-ack -> AMR latencies; filled only when the run had span
  /// tracing on (the library's own time-to-AMR sketch rounds to 1% buckets).
  std::vector<double> amr_latency_s;
  obs::MetricRegistry metrics;
};

/// FNV-1a over the outcome's text form. Not the library's SHA-256: the
/// traced binary would count the digest as protocol hashing.
class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  template <typename T>
  void add_number(T v) {
    std::ostringstream out;
    out.precision(17);
    out << v << ';';
    add(out.str());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t outcome_digest(const core::RunResult& r) {
  Digest d;
  d.add(r.stats.to_table());
  for (int v : {r.puts_attempted, r.puts_acked, r.puts_failed,
                r.gets_attempted, r.gets_ok, r.gets_mismatched,
                r.versions_total, r.amr, r.excess_amr, r.durable_not_amr,
                r.non_durable, r.given_up}) {
    d.add_number(v);
  }
  d.add_number(r.stats.wan_sent_bytes());
  d.add_number(r.end_time);
  d.add_number(r.events);
  d.add_number(r.quiescent);
  for (double v : r.put_latency_s) d.add_number(v);
  for (double v : r.get_latency_s) d.add_number(v);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    d.add_number(r.time_to_amr_s.quantile(q));
  }
  // The registry names the GF(2^8) kernel the host picked; that one line
  // may differ across hosts and says nothing about the simulated system.
  std::istringstream lines(r.metrics.to_text());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("erasure_kernel_runs_total") == std::string::npos) {
      d.add(line);
    }
  }
  return d.value();
}

Outcome run_seed(const core::RunConfig& config) {
  core::RunResult r = core::run_experiment(config);
  Outcome o;
  if (!r.audit.passed()) {
    o.breach = "audit: " + r.audit.to_string();
  } else if (r.gets_mismatched != 0) {
    o.breach = std::to_string(r.gets_mismatched) + " gets mismatched";
  } else if (!r.quiescent) {
    o.breach = "not quiescent";
  }
  o.digest = outcome_digest(r);
  o.puts_attempted = r.puts_attempted;
  o.puts_acked = r.puts_acked;
  o.gets_attempted = r.gets_attempted;
  o.gets_ok = r.gets_ok;
  o.stats = r.stats;
  o.events = r.events;
  o.put_latency_s = std::move(r.put_latency_s);
  o.get_latency_s = std::move(r.get_latency_s);
  for (const obs::VersionCriticalPath& path : r.critical_paths) {
    o.amr_latency_s.push_back(
        static_cast<double>(std::max<SimTime>(0, path.confirm_time -
                                                     path.ack_time)) /
        kMicrosPerSecond);
  }
  o.metrics = std::move(r.metrics);
  return o;
}

// --- statistics --------------------------------------------------------------

double minimum(std::vector<double> v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

#ifndef PERFBENCH_TRACED
/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> parse_doubles(const std::string& csv) {
  std::vector<double> out;
  std::istringstream in(csv);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}
#endif

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// --- measurement -------------------------------------------------------------

/// Seed-runs of one workload: the first pass keeps each seed's outcome;
/// later passes must reproduce its digest.
class Runner {
 public:
  explicit Runner(std::vector<core::RunConfig> configs)
      : configs_(std::move(configs)), host_s_(configs_.size()) {}

  size_t size() const { return configs_.size(); }

  /// One seed-run of seed `i`; seeds must first run in list order. A run
  /// with span tracing on records exact AMR times but is not timed: the
  /// tracer is a pure observer of the simulation, not part of the system's
  /// host cost.
  void run(size_t i, bool spans = false) {
    core::RunConfig config = configs_[i];
    config.telemetry.spans = spans;
    const Clock::time_point start = Clock::now();
    Outcome o = run_seed(config);
    if (!spans) host_s_[i].push_back(seconds_since(start));
    ++attempted_;
    bool ok = o.breach.empty();
    if (!ok) {
      std::printf("perfbench: seed %llu failed: %s\n",
                  static_cast<unsigned long long>(config.seed),
                  o.breach.c_str());
    }
    if (first_.size() <= i) {
      first_.push_back(std::move(o));
    } else if (o.digest != first_[i].digest) {
      std::printf("perfbench: seed %llu did not reproduce its outcome "
                  "digest (%016llx then %016llx)\n",
                  static_cast<unsigned long long>(config.seed),
                  static_cast<unsigned long long>(first_[i].digest),
                  static_cast<unsigned long long>(o.digest));
      ok = false;
    } else if (spans) {
      first_[i] = std::move(o);  // same outcome, plus the exact AMR times
    }
    if (!ok) ++failed_;
  }

  /// One run of every seed; returns its host seconds.
  double pass(bool spans = false) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < size(); ++i) run(i, spans);
    return seconds_since(start);
  }

  const std::vector<Outcome>& outcomes() const { return first_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  int put_attempts() const {
    int n = 0;
    for (const Outcome& o : first_) n += o.puts_attempted;
    return n;
  }

  /// Value bytes the clients asked to store, retries included.
  double user_bytes() const {
    double n = 0;
    for (size_t i = 0; i < first_.size(); ++i) {
      n += static_cast<double>(first_[i].puts_attempted) *
           static_cast<double>(configs_[i].workload.value_size);
    }
    return n;
  }

  /// Put attempts per host second, each seed timed by its fastest run. A
  /// shared host's slow spells (seconds to minutes long, up to 1.7x) only
  /// ever add time, so the fastest run is the closest to the program's own
  /// cost; `statistic` = median shows what the spells do.
  double puts_per_s(double (*statistic)(std::vector<double>) = minimum) const {
    double host = 0;
    for (const std::vector<double>& times : host_s_) host += statistic(times);
    return ratio(put_attempts(), host);
  }

  /// Combined digest of the first pass, in seed-list order.
  uint64_t digest() const {
    Digest d;
    for (const Outcome& o : first_) d.add_number(o.digest);
    return d.value();
  }

 private:
  std::vector<core::RunConfig> configs_;
  std::vector<std::vector<double>> host_s_;  ///< per seed, timed runs
  std::vector<Outcome> first_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

#ifndef PERFBENCH_TRACED
std::vector<Metric> end_to_end(const Runner& runner, double setup_s,
                               double rss_mb) {
  uint64_t msgs = 0, bytes = 0, wan = 0;
  int gets = 0, ok_ops = 0, ops = 0;
  std::vector<double> put_lat, amr_lat, get_lat;
  for (const Outcome& o : runner.outcomes()) {
    msgs += o.stats.total_sent_count();
    bytes += o.stats.total_sent_bytes();
    wan += o.stats.wan_sent_bytes();
    gets += o.gets_attempted;
    ok_ops += o.puts_acked + o.gets_ok;
    ops += o.puts_attempted + o.gets_attempted;
    put_lat.insert(put_lat.end(), o.put_latency_s.begin(),
                   o.put_latency_s.end());
    amr_lat.insert(amr_lat.end(), o.amr_latency_s.begin(),
                   o.amr_latency_s.end());
    get_lat.insert(get_lat.end(), o.get_latency_s.begin(),
                   o.get_latency_s.end());
  }
  const double puts = runner.put_attempts();
  std::printf("perfbench: samples: %zu put latencies, %zu put-ack->AMR "
              "latencies, %d gets\n",
              put_lat.size(), amr_lat.size(), gets);
  // Only some workloads read, and every metric must exist on every
  // workload, so get latency is reported here rather than as a metric.
  if (!get_lat.empty()) {
    std::printf("perfbench: get latency over %zu completed gets: p50 %.4f ms "
                "p99 %.4f ms\n",
                get_lat.size(), 1000 * quantile(get_lat, 0.50),
                1000 * quantile(get_lat, 0.99));
  }
  return {
      {"puts_per_s", runner.puts_per_s(), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
      {"msgs_per_put", ratio(msgs, puts), "count"},
      {"kib_per_put", ratio(bytes / 1024.0, puts), "KiB"},
      {"wan_kib_per_put", ratio(wan / 1024.0, puts), "KiB"},
      {"put_latency_p50_ms", 1000 * quantile(put_lat, 0.50), "ms"},
      {"put_latency_p99_ms", 1000 * quantile(put_lat, 0.99), "ms"},
      {"amr_latency_p50_s", quantile(amr_lat, 0.50), "s"},
      {"amr_latency_p99_s", quantile(amr_lat, 0.99), "s"},
      {"ok_op_share", ratio(ok_ops, ops), "share"},
  };
}
#else
namespace ledger = perfbench::ledger;

/// Per-layer metrics of one traced pass over the seed list. Counts come from
/// the first traced pass (they must repeat exactly in every other one);
/// times are medians over the traced passes.
std::vector<Metric> per_layer(const Runner& runner,
                              const std::vector<ledger::Ledger>& ledgers,
                              double plain_s, double traced_s,
                              bool* correct) {
  const ledger::Ledger& first = ledgers.front();
  const auto work = [](const ledger::Ledger& l) {
    std::vector<uint64_t> out;
    for (const ledger::LayerStats& s : l.layers) {
      out.push_back(s.calls);
      out.push_back(s.bytes);
    }
    return out;
  };
  for (const ledger::Ledger& l : ledgers) {
    if (work(l) != work(first)) {
      std::printf("perfbench: traced passes disagree on a work counter\n");
      *correct = false;
    }
  }
  const auto count = [&first](ledger::Layer layer) {
    return static_cast<double>(first.layers[layer].calls);
  };
  const auto bytes = [&first](ledger::Layer layer) {
    return static_cast<double>(first.layers[layer].bytes);
  };
  // Median over traced passes of a per-pass figure.
  const auto per_pass = [&ledgers](auto f) {
    std::vector<double> v;
    for (const ledger::Ledger& l : ledgers) v.push_back(f(l));
    return median(v);
  };
  const auto self_ms = [&per_pass](std::initializer_list<ledger::Layer> ls) {
    return per_pass([ls](const ledger::Ledger& l) {
      double ns = 0;
      for (ledger::Layer layer : ls) ns += l.layers[layer].self_ns;
      return ns / 1e6;
    });
  };

  uint64_t sent = 0, delivered = 0, events = 0;
  obs::MetricRegistry registry;
  for (const Outcome& o : runner.outcomes()) {
    sent += o.stats.total_sent_count();
    delivered += o.stats.total_delivered_count();
    events += o.events;
    registry.merge(o.metrics);
  }
  const auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter_sum(name));
  };
  const double sha_bytes = bytes(ledger::kSha256);
  const auto sha_by = [&first](ledger::ShaCaller caller) {
    return static_cast<double>(first.sha_bytes_by_caller[caller]);
  };

  const double run_ms = per_pass([](const ledger::Ledger& l) {
    return l.layers[ledger::kRunExperiment].total_ns / 1e6;
  });
  std::printf("perfbench: traced pass %.1f ms; self time by layer:\n", run_ms);
  static const char* const kNames[ledger::kLayerCount] = {
      "sha256",      "rs_encode", "rs_decode",    "rs_regenerate",
      "wire_encode", "wire_decode", "net_send",   "net_deliver",
      "sim_schedule", "sim_cancel", "fs_round",   "fs_recovery",
      "sim_run",     "run_experiment"};
  for (int i = 0; i < ledger::kLayerCount; ++i) {
    const double ms = self_ms({static_cast<ledger::Layer>(i)});
    std::printf("perfbench:   %-15s %10.0f calls %10.1f ms %5.1f%%\n",
                kNames[i], count(static_cast<ledger::Layer>(i)), ms,
                100 * ratio(ms, run_ms));
  }

  return {
      {"sha256.calls", count(ledger::kSha256), "count"},
      {"sha256.bytes", sha_bytes, "B"},
      {"sha256.ms", self_ms({ledger::kSha256}), "ms"},
      {"sha256.bytes_per_user_byte", ratio(sha_bytes, runner.user_bytes()),
       "ratio"},
      {"sha256.bytes.proxy_encode", sha_by(ledger::kShaProxyEncode), "B"},
      {"sha256.bytes.fs_verify", sha_by(ledger::kShaFsVerify), "B"},
      {"sha256.bytes.storage_intact", sha_by(ledger::kShaStorageIntact), "B"},
      {"sha256.bytes.other", sha_by(ledger::kShaOther), "B"},
      {"erasure.encode_calls", count(ledger::kRsEncode), "count"},
      {"erasure.encode_ms", self_ms({ledger::kRsEncode}), "ms"},
      {"erasure.decode_calls", count(ledger::kRsDecode), "count"},
      {"erasure.regenerate_calls", count(ledger::kRsRegenerate), "count"},
      {"erasure.ms",
       self_ms({ledger::kRsEncode, ledger::kRsDecode, ledger::kRsRegenerate}),
       "ms"},
      {"erasure.bytes",
       bytes(ledger::kRsEncode) + bytes(ledger::kRsDecode) +
           bytes(ledger::kRsRegenerate),
       "B"},
      {"wire.msgs", count(ledger::kWireEncode), "count"},
      {"wire.bytes", bytes(ledger::kWireEncode), "B"},
      {"wire.codec_ms", self_ms({ledger::kWireEncode, ledger::kWireDecode}),
       "ms"},
      {"net.send_calls", count(ledger::kNetSend), "count"},
      {"net.send_ms", self_ms({ledger::kNetSend}), "ms"},
      {"net.deliver_calls", count(ledger::kNetDeliver), "count"},
      {"net.deliver_self_ms", self_ms({ledger::kNetDeliver}), "ms"},
      {"net.delivery_ratio", ratio(delivered, sent), "ratio"},
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.schedule_calls", count(ledger::kSimSchedule), "count"},
      {"sim.schedule_ms", self_ms({ledger::kSimSchedule}), "ms"},
      {"sim.cancels", count(ledger::kSimCancel), "count"},
      {"fs.rounds", counter("fs_rounds_total"), "count"},
      {"fs.round_ms", self_ms({ledger::kFsRound}), "ms"},
      {"fs.converge_steps", counter("fs_converge_steps_total"), "count"},
      {"fs.converged", counter("fs_converged_total"), "count"},
      {"fs.converged_per_step",
       ratio(counter("fs_converged_total"), counter("fs_converge_steps_total")),
       "ratio"},
      {"fs.amr_skips", counter("fs_amr_skips_total"), "count"},
      {"fs.recoveries", counter("fs_recoveries_total"), "count"},
      {"fs.ms", self_ms({ledger::kFsRound, ledger::kFsRecovery}), "ms"},
      {"kls.requests", counter("kls_requests_total"), "count"},
      {"proxy.puts", counter("proxy_puts_total"), "count"},
      {"proxy.gets", counter("proxy_gets_total"), "count"},
      {"proxy.amr_indications", counter("proxy_amr_indications_total"),
       "count"},
      {"harness.run_ms", run_ms, "ms"},
      {"harness.audit_ms", per_pass([](const ledger::Ledger& l) {
         const ledger::LayerStats& run = l.layers[ledger::kRunExperiment];
         const ledger::LayerStats& sim = l.layers[ledger::kSimRun];
         return (static_cast<double>(run.total_ns) -
                 static_cast<double>(sim.total_ns)) / 1e6;
       }),
       "ms"},
      {"unattributed_share", per_pass([](const ledger::Ledger& l) {
         return ratio(static_cast<double>(l.layers[ledger::kSimRun].self_ns),
                      static_cast<double>(
                          l.layers[ledger::kRunExperiment].total_ns));
       }),
       "share"},
      {"trace_overhead", ratio(traced_s, plain_s) - 1, "share"},
  };
}
#endif

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "", "workload name");
  const uint64_t seed =
      static_cast<uint64_t>(flags.get_int("seed", 1, "seed of the seed list"));
  const bool heldout =
      flags.get_bool("heldout", false, "use the held-out seed list");
  const double seconds =
      flags.get_double("seconds", 10, "measure at least this long");
  const bool setup_only =
      flags.get_bool("setup-only", false, "exit after set-up");
  const std::string setup_samples = flags.get_string(
      "setup-samples", "", "set-up seconds of earlier processes (csv)");
  const bool tiny = flags.get_bool("tiny", false, "smoke-test size");
  flags.finish();

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const int puts = tiny ? kTinyPuts : workload->puts;
  const std::vector<uint64_t> seeds =
      seed_list(seed, heldout, tiny ? kTinySeeds : workload->seeds);
  std::vector<core::RunConfig> configs;
  for (uint64_t s : seeds) {
    configs.push_back(workload->make(puts));
    configs.back().seed = s;
  }

  // Set-up: one warm-up seed-run, so the allocator and caches are warm
  // before the clock starts; its digest must match the timed run's.
  const Outcome warm = run_seed(configs.front());
  const double setup_s = seconds_since(g_process_start);
  if (setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return warm.breach.empty() ? 0 : 1;
  }
  std::printf("perfbench: workload %s, %zu seeds x %d puts, %s seed list "
              "from --seed %llu\n",
              workload->name, seeds.size(), puts, heldout ? "held-out" : "dev",
              static_cast<unsigned long long>(seed));

  Runner runner(configs);
  bool correct = warm.breach.empty();
  std::vector<Metric> metrics;
#ifndef PERFBENCH_TRACED
  // Seeds run round-robin until the time is up and each has run three
  // times.
  const Clock::time_point start = Clock::now();
  size_t runs = 0;
  for (; runs < 3 * runner.size() || seconds_since(start) < seconds; ++runs) {
    runner.run(runs % runner.size());
  }
  const double measured_s = seconds_since(start);
  // Peak RSS before the span tracer's memory joins it; the sim-plane pass
  // that follows must reproduce every digest.
  const double rss_mb = peak_rss_mb();
  runner.pass(/*spans=*/true);
  std::vector<double> setups = parse_doubles(setup_samples);
  setups.push_back(setup_s);
  std::printf("perfbench: %zu timed seed-runs in %.3f s; set-up median of "
              "%zu processes\n",
              runs, measured_s, setups.size());
  std::printf("perfbench: puts/s %.2f with each seed's fastest run, %.2f "
              "with its median run\n",
              runner.puts_per_s(), runner.puts_per_s(median));
  metrics = end_to_end(runner, median(setups), rss_mb);
#else
  // Alternate untraced and traced passes; at least two traced passes, so
  // the work counters can be checked to repeat exactly.
  const Clock::time_point start = Clock::now();
  std::vector<double> plain_s, traced_s;
  std::vector<perfbench::ledger::Ledger> ledgers;
  while (traced_s.size() < 2 || seconds_since(start) < seconds) {
    plain_s.push_back(runner.pass());
    perfbench::ledger::set_enabled(true);
    traced_s.push_back(runner.pass());
    perfbench::ledger::set_enabled(false);
    ledgers.push_back(perfbench::ledger::take());
  }
  metrics = per_layer(runner, ledgers, median(plain_s), median(traced_s),
                      &correct);
#endif
  if (runner.failed() != 0) correct = false;
  if (warm.digest != runner.outcomes().front().digest) {
    std::printf("perfbench: warm-up run did not reproduce its digest\n");
    correct = false;
  }
  std::printf("perfbench: outcome_digest %016llx\n",
              static_cast<unsigned long long>(runner.digest()));
  std::fflush(stdout);
  print_result(correct, runner.attempted(), runner.failed(), metrics);
  return correct ? 0 : 1;
}
