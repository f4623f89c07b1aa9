#include "chaos/schedule.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "wire/serde.h"

namespace pahoehoe::chaos {

namespace {

using core::FaultSpec;

void check(bool ok, const std::string& message) {
  if (!ok) {
    throw std::invalid_argument("ScheduleOptions: " + message);
  }
}

SimTime window_start(Rng& rng, const ScheduleOptions& options) {
  const SimTime latest =
      std::max<SimTime>(0, options.fault_horizon - options.min_window);
  return rng.uniform_int(0, latest);
}

SimTime window_len(Rng& rng, const ScheduleOptions& options) {
  return rng.uniform_int(options.min_window, options.max_window);
}

}  // namespace

void validate(const ScheduleOptions& options) {
  check(options.intensity >= 0.0,
        "intensity must be >= 0, got " + std::to_string(options.intensity));
  check(options.max_loss_rate >= 0.0 && options.max_loss_rate <= 1.0,
        "max_loss_rate must be in [0, 1], got " +
            std::to_string(options.max_loss_rate));
  check(options.max_duplication_rate >= 0.0 &&
            options.max_duplication_rate <= 1.0,
        "max_duplication_rate must be in [0, 1], got " +
            std::to_string(options.max_duplication_rate));
  check(options.min_window >= 0,
        "min_window must be >= 0, got " +
            std::to_string(options.min_window));
  check(options.min_window <= options.max_window,
        "min_window (" + std::to_string(options.min_window) +
            ") must be <= max_window (" +
            std::to_string(options.max_window) + ")");
  check(options.fault_horizon > 0,
        "fault_horizon must be > 0, got " +
            std::to_string(options.fault_horizon));
}

std::vector<FaultSpec> generate_schedule(uint64_t seed,
                                         const core::ClusterTopology& topology,
                                         const ScheduleOptions& options) {
  validate(options);
  // Derive an independent stream from the run seed so the schedule does not
  // correlate with in-run randomness (latency, jitter) for the same seed.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);

  // Weighted kind pool from the enabled families. Corruption appears twice:
  // it is the fault the storage integrity machinery exists for, so sweeps
  // should hit it often.
  std::vector<FaultSpec::Kind> pool;
  if (options.blackouts) {
    pool.push_back(FaultSpec::Kind::kFsBlackout);
    pool.push_back(FaultSpec::Kind::kKlsBlackout);
  }
  if (options.partitions) pool.push_back(FaultSpec::Kind::kDcPartition);
  if (options.loss) pool.push_back(FaultSpec::Kind::kUniformLoss);
  if (options.crashes) {
    pool.push_back(FaultSpec::Kind::kFsCrash);
    pool.push_back(FaultSpec::Kind::kKlsCrash);
  }
  if (options.corruption) {
    pool.push_back(FaultSpec::Kind::kFragCorrupt);
    pool.push_back(FaultSpec::Kind::kFragCorrupt);
  }
  if (options.proxy_crashes && topology.num_proxies > 0) {
    pool.push_back(FaultSpec::Kind::kProxyCrash);
  }
  if (options.duplication) {
    pool.push_back(FaultSpec::Kind::kDuplicationBurst);
  }
  if (options.disk_destroys) {
    pool.push_back(FaultSpec::Kind::kDiskDestroy);
  }

  std::vector<FaultSpec> schedule;
  if (pool.empty()) return schedule;

  const int num_faults = std::max(
      1, static_cast<int>(std::lround(options.intensity * 6.0)));
  bool loss_used = false;  // iid loss is whole-run; one per schedule
  for (int i = 0; i < num_faults; ++i) {
    const FaultSpec::Kind kind = pool[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(pool.size()) - 1))];
    const int dc = static_cast<int>(rng.uniform_int(0, topology.num_dcs - 1));
    switch (kind) {
      case FaultSpec::Kind::kFsBlackout: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::fs_blackout(
            dc, index, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kKlsBlackout: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.kls_per_dc - 1));
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::kls_blackout(
            dc, index, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kDcPartition: {
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::dc_partition(
            dc, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kUniformLoss: {
        if (loss_used) break;  // skip; composing loss rates multiplies drops
        loss_used = true;
        const double rate =
            0.01 + rng.uniform01() * (options.max_loss_rate - 0.01);
        schedule.push_back(FaultSpec::uniform_loss(rate));
        break;
      }
      case FaultSpec::Kind::kFsCrash: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::fs_crash(
            dc, index, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kKlsCrash: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.kls_per_dc - 1));
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::kls_crash(
            dc, index, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kFragCorrupt: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
        // Not before 30 s: give the workload a chance to store something.
        const SimTime at =
            rng.uniform_int(30 * kMicrosPerSecond, options.fault_horizon);
        schedule.push_back(FaultSpec::frag_corrupt(dc, index, at));
        break;
      }
      case FaultSpec::Kind::kProxyCrash: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.num_proxies - 1));
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::proxy_crash(
            index, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kDuplicationBurst: {
        const double rate =
            0.05 + rng.uniform01() * (options.max_duplication_rate - 0.05);
        const SimTime start = window_start(rng, options);
        schedule.push_back(FaultSpec::duplication_burst(
            rate, start, start + window_len(rng, options)));
        break;
      }
      case FaultSpec::Kind::kDiskDestroy: {
        const int index =
            static_cast<int>(rng.uniform_int(0, topology.fs_per_dc - 1));
        const int disk =
            static_cast<int>(rng.uniform_int(0, topology.disks_per_fs - 1));
        // Not before 30 s: give the workload a chance to store something.
        const SimTime at =
            rng.uniform_int(30 * kMicrosPerSecond, options.fault_horizon);
        schedule.push_back(FaultSpec::disk_destroy(dc, index, disk, at));
        break;
      }
    }
  }
  return schedule;
}

Bytes encode_schedule(const std::vector<FaultSpec>& schedule) {
  wire::Writer w;
  w.u32(static_cast<uint32_t>(schedule.size()));
  for (const FaultSpec& spec : schedule) {
    w.u8(static_cast<uint8_t>(spec.kind));
    w.i64(spec.dc);
    w.i64(spec.index_in_dc);
    w.i64(spec.disk);
    w.i64(spec.start);
    w.i64(spec.end);
    w.u64(std::bit_cast<uint64_t>(spec.rate));
  }
  return std::move(w).take();
}

std::vector<FaultSpec> decode_schedule(const Bytes& data) {
  wire::Reader r(data);
  const uint32_t count = r.u32();
  std::vector<FaultSpec> schedule;
  schedule.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    FaultSpec spec;
    const uint8_t kind = r.u8();
    if (kind >= FaultSpec::kKindCount) {
      throw wire::WireError("bad FaultSpec kind");
    }
    spec.kind = static_cast<FaultSpec::Kind>(kind);
    spec.dc = static_cast<int>(r.i64());
    spec.index_in_dc = static_cast<int>(r.i64());
    spec.disk = static_cast<int>(r.i64());
    spec.start = r.i64();
    spec.end = r.i64();
    spec.rate = std::bit_cast<double>(r.u64());
    schedule.push_back(spec);
  }
  r.expect_exhausted();
  return schedule;
}

std::string format_repro(const std::vector<FaultSpec>& schedule) {
  std::string out = "config.faults = {\n";
  for (const FaultSpec& spec : schedule) {
    out += "    ";
    out += core::to_repro_string(spec);
    out += ",\n";
  }
  out += "};\n";
  return out;
}

core::RunConfig chaos_default_config() {
  core::RunConfig config;
  config.topology = core::ClusterTopology{};  // 2 DCs x (2 KLS + 3 FS)

  // Small objects keep a 50-seed sweep fast; the invariants do not care
  // about fragment size.
  config.workload.num_puts = 25;
  config.workload.value_size = 16 * 1024;
  config.workload.policy = Policy{};
  config.workload.retry_failed = true;
  config.workload.max_attempts = 20;
  config.workload.retry_delay = 5 * kMicrosPerSecond;
  // Longer than the proxy's own put/get timeouts, so it only fires when the
  // proxy crashed and lost the operation.
  config.workload.client_timeout = 15 * kMicrosPerSecond;
  config.workload.get_fraction = 0.5;
  config.workload.get_delay = 30 * kMicrosPerSecond;

  config.convergence = core::ConvergenceOptions::all_opts();
  // Scrub-and-repair: silent corruption is only ever noticed by the
  // periodic hash scrub once a version has left the work-lists.
  config.convergence.scrub_interval = 5LL * 60 * kMicrosPerSecond;
  // Retry often enough that convergence finishes well inside the horizon.
  config.convergence.backoff_max = 10LL * 60 * kMicrosPerSecond;
  // Non-durable versions (failed puts) can never converge; give up on them
  // inside the horizon so quiescence is reachable. Durable-class versions
  // are never dropped — scrub can repair them no matter how old — which is
  // what makes late-corruption schedules (mutated past the fault horizon)
  // auditable instead of trading a repair for a give-up violation.
  config.convergence.giveup_age = 2LL * 3600 * kMicrosPerSecond;

  config.max_sim_time = 12LL * 3600 * kMicrosPerSecond;
  config.event_budget = 20'000'000;
  config.message_budget = 2'000'000;
  return config;
}

}  // namespace pahoehoe::chaos
