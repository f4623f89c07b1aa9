// Per-layer host-time ledger, recorded from outside the library.
//
// ledger.cpp defines a `__wrap_` for each hooked entry point (see
// PERFBENCH_HOOKS in CMakeLists.txt): SHA-256, Reed-Solomon, the wire codec,
// Network::send, Simulator scheduling, and the constructor/destructor of
// obs::ProfScope, which exposes the library's existing phases (net_deliver,
// fs_round, fs_recovery, sim_run, run_experiment) without adding any. Each
// wrapped call is a span on one stack, so a layer's self time is its spans'
// duration minus the spans nested inside them.
//
// Single-threaded by design: the benchmark runs its seed-runs back to back
// on the calling thread, and the ledger must only be switched while no
// seed-run is in flight.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench::ledger {

enum Layer : int {
  kSha256,
  kRsEncode,
  kRsDecode,
  kRsRegenerate,
  kWireEncode,
  kWireDecode,
  kNetSend,
  kNetDeliver,
  kSimSchedule,
  kSimCancel,
  kFsRound,
  kFsRecovery,
  kSimRun,
  kRunExperiment,
  kLayerCount,
};

/// Which code asked for a SHA-256, resolved from the call's return address.
enum ShaCaller : int {
  kShaProxyEncode,    ///< proxy digests fresh fragments at put time
  kShaFsVerify,       ///< FS checks a received or regenerated fragment
  kShaStorageIntact,  ///< StoredFragment::intact() recomputes the digest
  kShaOther,
  kShaCallerCount,
};

struct LayerStats {
  uint64_t calls = 0;
  uint64_t bytes = 0;  ///< layer-specific payload size, see ledger.cpp
  uint64_t self_ns = 0;
  uint64_t total_ns = 0;
};

struct Ledger {
  std::array<LayerStats, kLayerCount> layers{};
  std::array<uint64_t, kShaCallerCount> sha_bytes_by_caller{};
};

/// Start or stop recording. Only call between seed-runs.
void set_enabled(bool on);

/// Everything recorded since the last take(), then reset.
Ledger take();

}  // namespace perfbench::ledger
