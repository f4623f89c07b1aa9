// Figures 6 and 7 — "FS failures and message count" and "FS failures and
// message bytes": messages and bytes (per type) to bring 100 puts of 100 KiB
// to AMR while 0–4 Fragment Servers are blacked out for 10 minutes spanning
// the put phase, for optimization settings PutAMR, FSAMR, Sibling, and All.
// Both figures report the same sweep, so it runs once and feeds both tables.
//
// Expected shape (paper §5.3):
//  * Fig 6: failures dominate counts; FSAMR and Sibling each cut messages
//    and their effects accumulate; the total drops as more FSs are
//    unavailable because fewer live FSs generate convergence traffic.
//  * Fig 7: bytes are dominated by fragment transfer; sibling fragment
//    recovery amortizes the mandatory k-fragment read over all missing
//    fragments, so with (k=4, n=12) recovery costs only about one third
//    more network capacity than the no-failure case.
#include <cstdio>

#include "common/flags.h"
#include "sweeps.h"

int main(int argc, char** argv) {
  using namespace pahoehoe;
  Flags flags(argc, argv);
  const int seeds =
      static_cast<int>(flags.get_int("seeds", 20, "seeds per configuration"));
  const int puts = static_cast<int>(flags.get_int("puts", 100, "puts"));
  const int object_kib =
      static_cast<int>(flags.get_int("object-kib", 100, "object size (KiB)"));
  const int max_failures = static_cast<int>(
      flags.get_int("max-failures", 4, "maximum simultaneous FS failures"));
  const int jobs = static_cast<int>(
      flags.get_int("jobs", 1, "worker threads for seed dispatch"));
  const std::string out =
      flags.get_string("out", "BENCH_fig6_7.json", "JSON output path");
  flags.finish();

  core::RunConfig config = core::paper_default_config();
  config.workload.num_puts = puts;
  config.workload.value_size = static_cast<size_t>(object_kib) * 1024;

  std::printf(
      "Figure 6 — FS failures and message count: %d puts of %d KiB, 10 min "
      "blackouts, %d seeds\n\n",
      puts, object_kib, seeds);
  const auto columns =
      bench::run_fs_failure_sweep(config, seeds, max_failures, jobs);
  bench::print_grouped(columns, bench::Metric::kCount, 4);
  std::printf("Totals (10^3 messages):\n");
  for (const auto& col : columns) {
    std::printf("  %-12s %8.2f  (+/- %.2f)\n", col.label.c_str(),
                col.agg.msg_count.mean() / 1e3,
                col.agg.msg_count.ci95_halfwidth() / 1e3);
  }

  std::printf(
      "\nFigure 7 — FS failures and message bytes: %d puts of %d KiB, 10 min "
      "blackouts, %d seeds\n\n",
      puts, object_kib, seeds);
  bench::print_grouped(columns, bench::Metric::kBytes, 4);
  std::printf("Totals (MiB):\n");
  for (const auto& col : columns) {
    std::printf("  %-12s %8.2f  (+/- %.2f)\n", col.label.c_str(),
                col.agg.msg_bytes.mean() / (1024.0 * 1024.0),
                col.agg.msg_bytes.ci95_halfwidth() / (1024.0 * 1024.0));
  }

  bench::write_columns_json(out, "fig6_7_fs_failures", seeds, jobs, columns);
  return 0;
}
