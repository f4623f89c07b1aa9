// Figure 5 — "Failure-free execution": message count per type to bring 100
// puts of 100 KiB to AMR, under Naive, FSAMR-S (synchronized rounds),
// FSAMR-U (unsynchronized), PutAMR, and an analytically computed Idealized
// implementation.
//
// Expected shape (paper §5.2): Naive ≈ 6× Idealized; FSAMR-S ≈ +13% over
// Naive; FSAMR-U ≈ −57%; PutAMR ≈ −68%, a little above Idealized because
// the proxy pushes locations per data center (two location rounds).
#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "common/sha256.h"
#include "wire/messages.h"

namespace pahoehoe {
namespace {

using bench::Column;
using bench::Metric;

/// The paper's Idealized accounting (§5.2), priced with our wire sizes:
/// one locations request+reply per data center, the chosen locations to
/// each of the four KLSs (+replies), two store-fragment requests to each of
/// the six FSs with one reply each, and one AMR indication per FS.
core::AggregateResult idealized(const core::RunConfig& config) {
  const Policy policy = config.workload.policy;
  const int num_puts = config.workload.num_puts;
  const int dcs = config.topology.num_dcs;
  const int klss = config.topology.total_kls();
  const int fss = config.topology.total_fs();

  const ObjectVersionId ov{Key{config.workload.key_prefix + "00"},
                           Timestamp{0, 1}};
  Metadata complete(policy, config.workload.value_size);
  for (size_t i = 0; i < complete.locs.size(); ++i) {
    complete.locs[i] = Location{NodeId{100 + static_cast<uint32_t>(i) / 2},
                                static_cast<uint8_t>(i % 2)};
  }
  const size_t frag_size =
      (config.workload.value_size + policy.k - 1) / policy.k;

  // Sized as the network charges a message: its field walk plus the header.
  auto size_of = [](const auto& msg) {
    return static_cast<double>(wire::payload_size(msg) +
                               wire::Envelope::kHeaderBytes);
  };
  const double decide_req = size_of(
      wire::DecideLocsReq{ov, policy, config.workload.value_size, false});
  const double decide_rep =
      size_of(wire::DecideLocsRep{ov, complete, DataCenterId{0}});
  const double meta_req = size_of(wire::StoreMetadataReq{ov, complete});
  const double meta_rep =
      size_of(wire::StoreMetadataRep{ov, wire::Status::kSuccess});
  wire::StoreFragmentReq frag_req;
  frag_req.ov = ov;
  frag_req.meta = complete;
  frag_req.fragment = Fragment(Bytes(frag_size, 0));
  const double frag_req_size = size_of(frag_req);
  const double frag_rep =
      size_of(wire::StoreFragmentRep{ov, 0, wire::Status::kSuccess});
  const double amr = size_of(wire::AmrIndication{ov});

  struct Item {
    wire::MessageType type;
    int count;
    double bytes_each;
  };
  const std::vector<Item> items = {
      {wire::MessageType::kDecideLocsReq, dcs, decide_req},
      {wire::MessageType::kDecideLocsRep, dcs, decide_rep},
      {wire::MessageType::kStoreMetadataReq, klss, meta_req},
      {wire::MessageType::kStoreMetadataRep, klss, meta_rep},
      {wire::MessageType::kStoreFragmentReq, policy.n, frag_req_size},
      {wire::MessageType::kStoreFragmentRep, fss, frag_rep},
      {wire::MessageType::kAmrIndication, fss, amr},
  };

  core::AggregateResult agg;
  agg.seeds = 1;
  double total_count = 0;
  double total_bytes = 0;
  for (const Item& item : items) {
    const double count = static_cast<double>(item.count * num_puts);
    agg.count_by_type[static_cast<size_t>(item.type)].add(count);
    agg.bytes_by_type[static_cast<size_t>(item.type)].add(count *
                                                          item.bytes_each);
    total_count += count;
    total_bytes += count * item.bytes_each;
  }
  agg.msg_count.add(total_count);
  agg.msg_bytes.add(total_bytes);
  return agg;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds =
      static_cast<int>(flags.get_int("seeds", 20, "seeds per configuration"));
  const int puts = static_cast<int>(flags.get_int("puts", 100, "puts"));
  const int object_kib =
      static_cast<int>(flags.get_int("object-kib", 100, "object size (KiB)"));
  const bool ablate =
      flags.get_bool("ablate", false, "also report each optimization's "
                                      "marginal effect with the others on");
  const int jobs = static_cast<int>(
      flags.get_int("jobs", 1, "worker threads for seed dispatch"));
  const std::string out =
      flags.get_string("out", "BENCH_fig5.json", "JSON output path");
  flags.finish();

  core::RunConfig config = core::paper_default_config();
  config.workload.num_puts = puts;
  config.workload.value_size = static_cast<size_t>(object_kib) * 1024;

  struct Preset {
    const char* label;
    core::ConvergenceOptions conv;
  };
  const std::vector<Preset> presets = {
      {"Naive", core::ConvergenceOptions::naive()},
      {"FSAMR-S", core::ConvergenceOptions::fs_amr_sync()},
      {"FSAMR-U", core::ConvergenceOptions::fs_amr_unsync()},
      {"PutAMR", core::ConvergenceOptions::put_amr()},
  };

  std::printf(
      "Figure 5 — failure-free execution: %d puts of %d KiB, %d seeds\n\n",
      puts, object_kib, seeds);

  std::vector<Column> columns;
  for (const auto& preset : presets) {
    config.convergence = preset.conv;
    columns.push_back(
        Column{preset.label, core::run_many(config, seeds, 1000, jobs)});
  }
  columns.push_back(Column{"Idealized", idealized(config)});

  bench::print_breakdown(columns, Metric::kCount);
  std::printf("\n");
  bench::print_ratios(columns, Metric::kCount, 0);
  std::printf("\nMessage bytes (for reference; the paper's Figure 5 shows "
              "counts):\n");
  bench::print_breakdown(columns, Metric::kBytes);

  if (ablate) {
    std::printf("\nAblation — disabling one optimization at a time from "
                "All (failure-free):\n");
    std::vector<Column> ab;
    config.convergence = core::ConvergenceOptions::all_opts();
    ab.push_back(Column{"All", core::run_many(config, seeds, 2000, jobs)});
    auto drop = [&](const char* label, auto mutate) {
      core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
      mutate(conv);
      config.convergence = conv;
      ab.push_back(Column{label, core::run_many(config, seeds, 2000, jobs)});
    };
    drop("-FSAMR",
         [](core::ConvergenceOptions& c) { c.fs_amr_indication = false; });
    drop("-PutAMR",
         [](core::ConvergenceOptions& c) { c.put_amr_indication = false; });
    drop("-Sibling",
         [](core::ConvergenceOptions& c) { c.sibling_recovery = false; });
    drop("-Unsync",
         [](core::ConvergenceOptions& c) { c.unsync_rounds = false; });
    bench::print_breakdown(ab, Metric::kCount);
    std::printf("\n");
    bench::print_ratios(ab, Metric::kCount, 0);
  }

  bench::write_columns_json(out, "fig5_failure_free", seeds, jobs, columns);
  return 0;
}

}  // namespace
}  // namespace pahoehoe

int main(int argc, char** argv) { return pahoehoe::run(argc, argv); }
