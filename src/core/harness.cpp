#include "core/harness.h"

#include <cstdio>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/parallel.h"
#include "erasure/gf256.h"

namespace pahoehoe::core {

FaultSpec FaultSpec::fs_blackout(int dc, int index, SimTime start,
                                 SimTime end) {
  FaultSpec spec;
  spec.kind = Kind::kFsBlackout;
  spec.dc = dc;
  spec.index_in_dc = index;
  spec.start = start;
  spec.end = end;
  return spec;
}

FaultSpec FaultSpec::kls_blackout(int dc, int index, SimTime start,
                                  SimTime end) {
  FaultSpec spec;
  spec.kind = Kind::kKlsBlackout;
  spec.dc = dc;
  spec.index_in_dc = index;
  spec.start = start;
  spec.end = end;
  return spec;
}

FaultSpec FaultSpec::dc_partition(int dc, SimTime start, SimTime end) {
  FaultSpec spec;
  spec.kind = Kind::kDcPartition;
  spec.dc = dc;
  spec.start = start;
  spec.end = end;
  return spec;
}

FaultSpec FaultSpec::uniform_loss(double rate) {
  FaultSpec spec;
  spec.kind = Kind::kUniformLoss;
  spec.rate = rate;
  return spec;
}

FaultSpec FaultSpec::fs_crash(int dc, int index, SimTime start, SimTime end) {
  FaultSpec spec = fs_blackout(dc, index, start, end);
  spec.kind = Kind::kFsCrash;
  return spec;
}

FaultSpec FaultSpec::kls_crash(int dc, int index, SimTime start,
                               SimTime end) {
  FaultSpec spec = kls_blackout(dc, index, start, end);
  spec.kind = Kind::kKlsCrash;
  return spec;
}

FaultSpec FaultSpec::frag_corrupt(int dc, int index, SimTime at) {
  FaultSpec spec;
  spec.kind = Kind::kFragCorrupt;
  spec.dc = dc;
  spec.index_in_dc = index;
  spec.start = at;
  spec.end = at;
  return spec;
}

FaultSpec FaultSpec::proxy_crash(int index, SimTime start, SimTime end) {
  FaultSpec spec;
  spec.kind = Kind::kProxyCrash;
  spec.index_in_dc = index;
  spec.start = start;
  spec.end = end;
  return spec;
}

FaultSpec FaultSpec::duplication_burst(double rate, SimTime start,
                                       SimTime end) {
  FaultSpec spec;
  spec.kind = Kind::kDuplicationBurst;
  spec.rate = rate;
  spec.start = start;
  spec.end = end;
  return spec;
}

FaultSpec FaultSpec::disk_destroy(int dc, int index, int disk, SimTime at) {
  FaultSpec spec;
  spec.kind = Kind::kDiskDestroy;
  spec.dc = dc;
  spec.index_in_dc = index;
  spec.disk = disk;
  spec.start = at;
  spec.end = at;
  return spec;
}

std::string to_repro_string(const FaultSpec& spec) {
  char buf[160];
  const auto ll = [](SimTime t) { return static_cast<long long>(t); };
  switch (spec.kind) {
    case FaultSpec::Kind::kFsBlackout:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::fs_blackout(%d, %d, %lld, %lld)",
                    spec.dc, spec.index_in_dc, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kKlsBlackout:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::kls_blackout(%d, %d, %lld, %lld)",
                    spec.dc, spec.index_in_dc, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kDcPartition:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::dc_partition(%d, %lld, %lld)", spec.dc,
                    ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kUniformLoss:
      std::snprintf(buf, sizeof(buf), "core::FaultSpec::uniform_loss(%.6f)",
                    spec.rate);
      break;
    case FaultSpec::Kind::kFsCrash:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::fs_crash(%d, %d, %lld, %lld)", spec.dc,
                    spec.index_in_dc, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kKlsCrash:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::kls_crash(%d, %d, %lld, %lld)", spec.dc,
                    spec.index_in_dc, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kFragCorrupt:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::frag_corrupt(%d, %d, %lld)", spec.dc,
                    spec.index_in_dc, ll(spec.start));
      break;
    case FaultSpec::Kind::kProxyCrash:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::proxy_crash(%d, %lld, %lld)",
                    spec.index_in_dc, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kDuplicationBurst:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::duplication_burst(%.6f, %lld, %lld)",
                    spec.rate, ll(spec.start), ll(spec.end));
      break;
    case FaultSpec::Kind::kDiskDestroy:
      std::snprintf(buf, sizeof(buf),
                    "core::FaultSpec::disk_destroy(%d, %d, %d, %lld)",
                    spec.dc, spec.index_in_dc, spec.disk, ll(spec.start));
      break;
  }
  return buf;
}

const char* to_string(InvariantViolation::Kind kind) {
  switch (kind) {
    case InvariantViolation::Kind::kAckedNonDurable:
      return "acked-non-durable";
    case InvariantViolation::Kind::kAckedNotAmr:
      return "acked-not-AMR";
    case InvariantViolation::Kind::kDurableNotAmr:
      return "durable-not-AMR";
    case InvariantViolation::Kind::kGetValueMismatch:
      return "get-value-mismatch";
    case InvariantViolation::Kind::kNotQuiescent:
      return "not-quiescent";
    case InvariantViolation::Kind::kEventBudget:
      return "event-budget";
    case InvariantViolation::Kind::kMessageBudget:
      return "message-budget";
  }
  return "?";
}

std::string AuditReport::to_string() const {
  if (violations.empty()) return "all invariants held";
  std::string out;
  for (const InvariantViolation& v : violations) {
    out += pahoehoe::core::to_string(v.kind);
    if (v.ov.ts.valid()) {
      out += ' ';
      out += pahoehoe::to_string(v.ov);
    }
    if (!v.detail.empty()) {
      out += ": ";
      out += v.detail;
    }
    out += '\n';
  }
  return out;
}

namespace {

void install_crash(Server& server, sim::Simulator& sim, SimTime start,
                   SimTime end) {
  sim.schedule_at(start, [&server] { server.crash(); });
  sim.schedule_at(end, [&server] { server.recover(); });
}

void install_fault(const FaultSpec& spec, Cluster& cluster,
                   net::Network& net, sim::Simulator& sim) {
  switch (spec.kind) {
    case FaultSpec::Kind::kFsBlackout: {
      const NodeId id =
          cluster.view()->fs_by_dc[static_cast<size_t>(spec.dc)]
                                  [static_cast<size_t>(spec.index_in_dc)];
      net.add_fault(
          std::make_shared<net::NodeBlackout>(id, spec.start, spec.end));
      break;
    }
    case FaultSpec::Kind::kKlsBlackout: {
      const NodeId id =
          cluster.view()->kls_by_dc[static_cast<size_t>(spec.dc)]
                                   [static_cast<size_t>(spec.index_in_dc)];
      net.add_fault(
          std::make_shared<net::NodeBlackout>(id, spec.start, spec.end));
      break;
    }
    case FaultSpec::Kind::kDcPartition: {
      const std::vector<NodeId> nodes = cluster.view()->nodes_in_dc(
          DataCenterId{static_cast<uint8_t>(spec.dc)});
      net.add_fault(std::make_shared<net::Partition>(
          std::unordered_set<NodeId>(nodes.begin(), nodes.end()), spec.start,
          spec.end));
      break;
    }
    case FaultSpec::Kind::kUniformLoss:
      net.add_fault(std::make_shared<net::UniformLoss>(spec.rate));
      break;
    case FaultSpec::Kind::kFsCrash:
      install_crash(
          cluster.fs(spec.dc * cluster.topology().fs_per_dc + spec.index_in_dc),
          sim, spec.start, spec.end);
      break;
    case FaultSpec::Kind::kKlsCrash:
      install_crash(cluster.kls(spec.dc, spec.index_in_dc), sim, spec.start,
                    spec.end);
      break;
    case FaultSpec::Kind::kFragCorrupt: {
      FragmentServer& fs = cluster.fs(spec.dc, spec.index_in_dc);
      sim.schedule_at(spec.start, [&fs, &sim] {
        fs.corrupt_random_fragment(sim.rng());
      });
      break;
    }
    case FaultSpec::Kind::kProxyCrash:
      install_crash(cluster.proxy(spec.index_in_dc), sim, spec.start,
                    spec.end);
      break;
    case FaultSpec::Kind::kDuplicationBurst:
      sim.schedule_at(spec.start, [&net, rate = spec.rate] {
        net.set_duplication_rate(rate);
      });
      sim.schedule_at(spec.end, [&net] { net.reset_duplication_rate(); });
      break;
    case FaultSpec::Kind::kDiskDestroy: {
      FragmentServer& fs = cluster.fs(spec.dc, spec.index_in_dc);
      sim.schedule_at(spec.start, [&fs, disk = spec.disk] {
        fs.destroy_disk(static_cast<uint8_t>(disk));
      });
      break;
    }
  }
}

}  // namespace

static RunResult run_experiment_impl(const RunConfig& config) {
  obs::ProfScope prof_run("run_experiment");
  sim::Simulator sim(config.seed);
  net::Network net(sim);
  if (config.telemetry.trace_capacity > 0) {
    net.tracer().enable(config.telemetry.trace_capacity);
  }
  if (config.telemetry.spans) net.telemetry().spans.enable(&sim);
  Cluster cluster(sim, net, config.topology, config.convergence,
                  config.proxy);
  for (const FaultSpec& fault : config.faults) {
    install_fault(fault, cluster, net, sim);
  }

  WorkloadDriver driver(sim, cluster.proxy(0), config.workload,
                        /*value_seed=*/config.seed * 7919 + 17);
  driver.start();

  std::optional<obs::Sampler> sampler;
  if (config.telemetry.sample_interval > 0) {
    sampler.emplace(
        sim, config.telemetry.sample_interval,
        std::vector<std::string>{"amr_backlog", "pending_versions",
                                 "msgs_sent", "bytes_sent"},
        [&net, &cluster](SimTime) -> std::vector<double> {
          return {static_cast<double>(net.telemetry().amr.backlog()),
                  static_cast<double>(cluster.total_pending_versions()),
                  static_cast<double>(net.stats().total_sent_count()),
                  static_cast<double>(net.stats().total_sent_bytes())};
        });
  }

  {
    obs::ProfScope prof_sim("sim_run");
    sim.run(config.max_sim_time);
  }

  RunResult result;
  result.stats = net.stats();
  result.puts_attempted = driver.attempts();
  result.puts_acked = driver.successes();
  result.puts_failed = driver.failures();
  result.end_time = sim.last_event_time();
  result.events = sim.executed();
  result.quiescent = cluster.converged_quiescent();

  for (const OpLatency& op : driver.put_latencies()) {
    if (op.ok) result.put_latency_s.push_back(op.seconds());
  }
  for (const OpLatency& op : driver.get_latencies()) {
    if (op.ok) result.get_latency_s.push_back(op.seconds());
  }

  std::set<ObjectVersionId> seen;
  for (const PutRecord& record : driver.records()) {
    // Client-timeout records carry no version id (the proxy never answered).
    if (!record.ov.ts.valid()) continue;
    if (!seen.insert(record.ov).second) continue;
    ++result.versions_total;
    const VersionStatus status = cluster.classify(record.ov);
    switch (status) {
      case VersionStatus::kAmr:
        ++result.amr;
        if (!record.acked) ++result.excess_amr;
        break;
      case VersionStatus::kDurableNotAmr:
        ++result.durable_not_amr;
        break;
      case VersionStatus::kNonDurable:
        ++result.non_durable;
        break;
    }
    // --- invariant auditor: per-version safety checks ---------------------
    if (record.acked && status == VersionStatus::kNonDurable) {
      result.audit.violations.push_back(
          {InvariantViolation::Kind::kAckedNonDurable, record.ov,
           "client-acked put has fewer than k intact fragments"});
    } else if (record.acked && status == VersionStatus::kDurableNotAmr) {
      result.audit.violations.push_back(
          {InvariantViolation::Kind::kAckedNotAmr, record.ov,
           "client-acked put never reached AMR"});
    } else if (status == VersionStatus::kDurableNotAmr) {
      result.audit.violations.push_back(
          {InvariantViolation::Kind::kDurableNotAmr, record.ov,
           "durable version stuck short of AMR at quiescence"});
    }
  }

  for (const GetRecord& record : driver.get_records()) {
    ++result.gets_attempted;
    if (!record.completed) continue;
    ++result.gets_ok;
    if (!record.matched) {
      ++result.gets_mismatched;
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "get of object %d returned bytes that differ from the put",
                    record.object_index);
      result.audit.violations.push_back(
          {InvariantViolation::Kind::kGetValueMismatch,
           ObjectVersionId{driver.key_for(record.object_index), record.ts},
           detail});
    }
  }

  // --- invariant auditor: run-global liveness checks ------------------------
  if (!result.quiescent) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%zu work-list entries still pending at the horizon",
                  cluster.total_pending_versions());
    result.audit.violations.push_back(
        {InvariantViolation::Kind::kNotQuiescent, ObjectVersionId{}, detail});
  }
  if (config.event_budget > 0 && result.events > config.event_budget) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%llu events executed, budget %llu",
                  static_cast<unsigned long long>(result.events),
                  static_cast<unsigned long long>(config.event_budget));
    result.audit.violations.push_back(
        {InvariantViolation::Kind::kEventBudget, ObjectVersionId{}, detail});
  }
  if (config.message_budget > 0 &&
      result.stats.total_sent_count() > config.message_budget) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%llu messages sent, budget %llu",
                  static_cast<unsigned long long>(
                      result.stats.total_sent_count()),
                  static_cast<unsigned long long>(config.message_budget));
    result.audit.violations.push_back(
        {InvariantViolation::Kind::kMessageBudget, ObjectVersionId{},
         detail});
  }

  for (int i = 0; i < cluster.num_fs(); ++i) {
    result.given_up += static_cast<int>(cluster.fs(i).versions_given_up());
  }

  // --- telemetry: snapshot and (on failure) capture forensics --------------
  obs::Telemetry& tel = net.telemetry();
  tel.metrics.gauge("amr_backlog").set(static_cast<double>(tel.amr.backlog()));
  tel.metrics.gauge("amr_backlog_peak")
      .set(static_cast<double>(tel.amr.backlog_peak()));
  tel.metrics.counter("amr_acked_total").inc(tel.amr.acked());
  tel.metrics.counter("amr_confirmed_total").inc(tel.amr.confirmed());
  // Which GF(2^8) kernel encoded this run's fragments. The label is the one
  // metric allowed to differ across kernels — every other byte of the run
  // is kernel-independent (DESIGN.md §10), which kernel_determinism_test
  // asserts by digesting runs modulo this line.
  tel.metrics
      .counter("erasure_kernel_runs_total",
               {{"kernel", gf256::to_string(gf256::active_kernel())}})
      .inc();
  result.metrics = tel.metrics;
  result.time_to_amr_s = tel.amr.latency_s();
  result.amr_confirmed = tel.amr.confirmed();
  result.amr_backlog_final = tel.amr.backlog();
  result.amr_backlog_peak = tel.amr.backlog_peak();
  if (sampler.has_value()) result.timeline = sampler->series();
  if (!result.audit.passed() && net.tracer().enabled()) {
    result.trace_tail = net.tracer().dump(kTraceTailLines);
    result.trace_overflowed = net.tracer().overflowed();
  }
  for (const obs::VersionCriticalPath& path : tel.spans.critical_paths()) {
    result.critical_path.add(path);
  }
  result.critical_paths = tel.spans.critical_paths();
  if (!result.audit.passed() && tel.spans.enabled()) {
    // Span forensics: the causal tree of the first violation that names a
    // traced version explains *why* it missed AMR, not just that it did.
    for (const InvariantViolation& v : result.audit.violations) {
      if (v.ov.ts.valid() && tel.spans.has_version(v.ov)) {
        result.span_forensics = tel.spans.render_tree(v.ov);
        break;
      }
    }
  }
  if (config.telemetry.spans) {
    // Built from the recorded critical paths after the simulation
    // quiesced, so it cannot change the run.
    result.attribution = obs::attribute({{config.seed, result.critical_paths}});
  }
  result.spans = std::move(tel.spans);
  return result;
}

RunResult run_experiment(const RunConfig& config) {
  // Wall-clock profile of this run = the calling thread's phase delta
  // across the impl. Each seed executes entirely on one worker thread
  // (parallel_for), so thread-local accounting captures the whole run.
  // Side channel only: result.profile is excluded from every determinism
  // digest (DESIGN.md §11).
  const obs::prof::Snapshot prof_begin = obs::prof::capture_begin();
  RunResult result = run_experiment_impl(config);
  result.profile = obs::prof::capture_delta(prof_begin);
  return result;
}

AggregateResult run_many(RunConfig config, int num_seeds, uint64_t base_seed,
                         int jobs) {
  // Every seed is a self-contained simulation (its own Simulator, Network,
  // Cluster), so seeds run on worker threads; results land in per-seed
  // slots and are folded below in seed order, making the aggregate
  // byte-identical for any jobs value.
  std::vector<RunResult> results(static_cast<size_t>(num_seeds));
  parallel_for(num_seeds, jobs, [&](int s) {
    RunConfig seed_config = config;
    seed_config.seed = base_seed + static_cast<uint64_t>(s);
    results[static_cast<size_t>(s)] = run_experiment(seed_config);
  });

  AggregateResult agg;
  agg.seeds = num_seeds;
  for (const RunResult& r : results) {
    agg.msg_count.add(static_cast<double>(r.stats.total_sent_count()));
    agg.msg_bytes.add(static_cast<double>(r.stats.total_sent_bytes()));
    agg.wan_bytes.add(static_cast<double>(r.stats.wan_sent_bytes()));
    for (int t = 0; t < wire::kMessageTypeCount; ++t) {
      const auto& ts = r.stats.of(static_cast<wire::MessageType>(t));
      agg.count_by_type[static_cast<size_t>(t)].add(
          static_cast<double>(ts.sent_count));
      agg.bytes_by_type[static_cast<size_t>(t)].add(
          static_cast<double>(ts.sent_bytes));
    }
    agg.puts_attempted.add(r.puts_attempted);
    agg.puts_acked.add(r.puts_acked);
    agg.amr.add(r.amr);
    agg.excess_amr.add(r.excess_amr);
    agg.durable_not_amr.add(r.durable_not_amr);
    agg.non_durable.add(r.non_durable);
    agg.end_time_s.add(static_cast<double>(r.end_time) /
                       static_cast<double>(kMicrosPerSecond));
    SampleStats seed_put_latency;
    for (double latency : r.put_latency_s) {
      agg.put_latency_s.add(latency);
      seed_put_latency.add(latency);
    }
    if (seed_put_latency.count() > 0) {
      agg.put_latency_mean_s.add(seed_put_latency.mean());
    }
    for (double latency : r.get_latency_s) agg.get_latency_s.add(latency);
    agg.metrics.merge(r.metrics);
    agg.time_to_amr_s.merge(r.time_to_amr_s);
    agg.timeline.merge_aligned(r.timeline);
    agg.amr_confirmed.add(static_cast<double>(r.amr_confirmed));
    agg.amr_backlog_final.add(static_cast<double>(r.amr_backlog_final));
    agg.critical_path.merge(r.critical_path);
    agg.profile.merge(r.profile);
  }
  if (config.telemetry.spans) {
    // Pooled: one sketch over every seed's paths fixes the threshold.
    std::vector<obs::SeedPaths> runs;
    runs.reserve(results.size());
    for (size_t s = 0; s < results.size(); ++s) {
      runs.push_back({base_seed + s, results[s].critical_paths});
    }
    agg.attribution = obs::attribute(runs);
  }
  return agg;
}

RunConfig paper_default_config() {
  RunConfig config;
  config.topology = ClusterTopology{};       // 2 DCs × (2 KLS + 3 FS)
  config.workload.num_puts = 100;            // §5.1
  config.workload.value_size = 100 * 1024;   // 100 × 2^10 B
  config.workload.policy = Policy{};         // (k=4, n=12)
  return config;
}

}  // namespace pahoehoe::core
