// Scenario runner: a command-line front end to the experiment harness.
// Compose a topology, policy, workload, and fault schedule from flags, run
// the simulation to quiescence, and get a full report — useful for
// exploring the design space beyond the paper's figures.
//
// Examples:
//   ./build/examples/scenario_cli --puts=50 --fs-down=2 --opts=all
//   ./build/examples/scenario_cli --drop=0.10 --retry --opts=putamr
//   ./build/examples/scenario_cli --dcs=3 --fs-per-dc=4 --k=6 --n=18
//       --partition-dc=2 --fault-minutes=15  (one line)
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/harness.h"
#include "core/workload.h"
#include "net/network.h"
#include "sim/simulator.h"

using namespace pahoehoe;

namespace {

core::ConvergenceOptions parse_opts(const std::string& name) {
  if (name == "naive") return core::ConvergenceOptions::naive();
  if (name == "fsamr-s") return core::ConvergenceOptions::fs_amr_sync();
  if (name == "fsamr") return core::ConvergenceOptions::fs_amr_unsync();
  if (name == "putamr") return core::ConvergenceOptions::put_amr();
  if (name == "sibling") return core::ConvergenceOptions::sibling_only();
  if (name == "all") return core::ConvergenceOptions::all_opts();
  std::fprintf(stderr,
               "unknown --opts '%s' (naive|fsamr-s|fsamr|putamr|sibling|all)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  core::RunConfig config = core::paper_default_config();

  // Topology.
  config.topology.num_dcs =
      static_cast<int>(flags.get_int("dcs", 2, "data centers"));
  config.topology.kls_per_dc =
      static_cast<int>(flags.get_int("kls-per-dc", 2, "KLSs per DC"));
  config.topology.fs_per_dc =
      static_cast<int>(flags.get_int("fs-per-dc", 3, "FSs per DC"));

  // Policy.
  Policy policy;
  policy.k = static_cast<uint8_t>(flags.get_int("k", 4, "data fragments"));
  policy.n = static_cast<uint8_t>(flags.get_int("n", 12, "total fragments"));
  policy.max_frags_per_fs = static_cast<uint8_t>(
      flags.get_int("frags-per-fs", 2, "max fragments per FS"));
  policy.max_frags_per_dc = static_cast<uint8_t>(
      flags.get_int("frags-per-dc", 6, "max fragments per DC"));
  policy.min_frags_for_success = static_cast<uint8_t>(flags.get_int(
      "min-success", 8, "fragment acks before the client sees success"));
  config.workload.policy = policy;

  // Workload.
  config.workload.num_puts =
      static_cast<int>(flags.get_int("puts", 100, "objects to store"));
  config.workload.value_size = static_cast<size_t>(
      flags.get_int("object-kib", 100, "object size (KiB)") * 1024);
  config.workload.retry_failed =
      flags.get_bool("retry", false, "clients retry failed puts");

  // Convergence options.
  config.convergence = parse_opts(flags.get_string(
      "opts", "all", "naive|fsamr-s|fsamr|putamr|sibling|all"));

  // Faults.
  const SimTime fault_len =
      flags.get_int("fault-minutes", 10, "blackout length (minutes)") * 60 *
      kMicrosPerSecond;
  const int fs_down =
      static_cast<int>(flags.get_int("fs-down", 0, "FSs blacked out"));
  for (int f = 0; f < fs_down; ++f) {
    config.faults.push_back(core::FaultSpec::fs_blackout(
        f % config.topology.num_dcs, f / config.topology.num_dcs, 0,
        fault_len));
  }
  const int kls_down =
      static_cast<int>(flags.get_int("kls-down", 0, "KLSs blacked out"));
  for (int f = 0; f < kls_down; ++f) {
    config.faults.push_back(core::FaultSpec::kls_blackout(
        f % config.topology.num_dcs, f / config.topology.num_dcs, 0,
        fault_len));
  }
  const int partition_dc = static_cast<int>(flags.get_int(
      "partition-dc", -1, "isolate this data center for the fault window"));
  if (partition_dc >= 0) {
    config.faults.push_back(
        core::FaultSpec::dc_partition(partition_dc, 0, fault_len));
  }
  const double drop =
      flags.get_double("drop", 0.0, "iid message drop rate (whole run)");
  if (drop > 0) {
    config.faults.push_back(core::FaultSpec::uniform_loss(drop));
  }

  const int seeds =
      static_cast<int>(flags.get_int("seeds", 1, "seeds (mean when > 1)"));
  config.seed = static_cast<uint64_t>(flags.get_int("seed", 1, "base seed"));
  const int trace_lines = static_cast<int>(flags.get_int(
      "trace", 0, "print the last N message-trace lines (single-seed runs)"));
  flags.finish();

  if (!policy.valid()) {
    std::fprintf(stderr, "invalid policy (k=%d n=%d)\n", policy.k, policy.n);
    return 2;
  }

  std::printf("pahoehoe scenario: %d DCs x (%d KLS + %d FS), policy (k=%d, "
              "n=%d), %d puts of %zu KiB, opts=%s\n\n",
              config.topology.num_dcs, config.topology.kls_per_dc,
              config.topology.fs_per_dc, policy.k, policy.n,
              config.workload.num_puts, config.workload.value_size / 1024,
              core::describe(config.convergence).c_str());

  if (seeds <= 1) {
    if (trace_lines > 0) {
      // Re-run inline with tracing (run_experiment owns its own network).
      sim::Simulator sim(config.seed);
      net::Network net(sim);
      net.tracer().enable();
      core::Cluster cluster(sim, net, config.topology, config.convergence,
                            config.proxy);
      core::WorkloadDriver driver(sim, cluster.proxy(0), config.workload,
                                  config.seed * 7919 + 17);
      driver.start();
      sim.run(config.max_sim_time);
      std::printf("last %d trace records (of %zu, %llu overflowed):\n%s\n",
                  trace_lines, net.tracer().records().size(),
                  static_cast<unsigned long long>(net.tracer().overflowed()),
                  net.tracer().dump(static_cast<size_t>(trace_lines)).c_str());
    }
    const core::RunResult r = core::run_experiment(config);
    std::printf("puts:        %d attempted, %d acked, %d failed\n",
                r.puts_attempted, r.puts_acked, r.puts_failed);
    std::printf("versions:    %d total — %d AMR (%d excess), %d non-durable,"
                " %d durable-not-AMR\n",
                r.versions_total, r.amr, r.excess_amr, r.non_durable,
                r.durable_not_amr);
    std::printf("convergence: quiescent=%s, gave up on %d, done at t=%.1f s\n",
                r.quiescent ? "yes" : "NO", r.given_up, r.end_time / 1e6);
    std::printf("network:     %llu messages, %.2f MiB total, %.2f MiB WAN\n\n",
                static_cast<unsigned long long>(r.stats.total_sent_count()),
                r.stats.total_sent_bytes() / 1048576.0,
                r.stats.wan_sent_bytes() / 1048576.0);
    std::printf("%s", r.stats.to_table().c_str());
    return r.durable_not_amr == 0 ? 0 : 1;
  }

  const core::AggregateResult agg = core::run_many(config, seeds, config.seed);
  std::printf("means over %d seeds:\n", seeds);
  std::printf("  puts attempted   %.1f\n", agg.puts_attempted.mean());
  std::printf("  puts acked       %.1f\n", agg.puts_acked.mean());
  std::printf("  AMR versions     %.1f (excess %.1f)\n", agg.amr.mean(),
              agg.excess_amr.mean());
  std::printf("  non-durable      %.2f\n", agg.non_durable.mean());
  std::printf("  durable-not-AMR  %.2f (must be 0)\n",
              agg.durable_not_amr.mean());
  std::printf("  messages         %.1f x10^3 (+/- %.1f)\n",
              agg.msg_count.mean() / 1e3,
              agg.msg_count.ci95_halfwidth() / 1e3);
  std::printf("  bytes            %.2f MiB (WAN %.2f MiB)\n",
              agg.msg_bytes.mean() / 1048576.0,
              agg.wan_bytes.mean() / 1048576.0);
  return agg.durable_not_amr.mean() == 0 ? 0 : 1;
}
