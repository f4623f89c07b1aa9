// Link-time hooks behind ledger.h. Every `wrap_*` below is bound to
// `__wrap_<symbol>` and forwards to `__real_<symbol>`, which the linker
// resolves to the library's own definition (ld --wrap). Only calls that
// cross a translation unit are redirected, which is what the ledger wants:
// the entry points into a layer, not its internal helpers.
//
// The declarations restate each hooked function's signature as a free
// function taking the object pointer first; under the Itanium C++ ABI that
// is how a member function is called (the hidden return slot, if any,
// precedes `this` in both cases).
#include "ledger.h"

#include <dlfcn.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/sha256.h"
#include "common/types.h"
#include "erasure/reed_solomon.h"
#include "net/network.h"
#include "obs/prof.h"
#include "sim/simulator.h"
#include "wire/messages.h"

namespace perfbench::ledger {

namespace {

/// Spans the library opens that the ledger does not name (the RS kernel
/// phases inside the wrapped codec calls, the prof scope inside
/// Network::send, ...). Their time stays with the enclosing span.
constexpr int kTransparent = -1;

struct Frame {
  int layer;
  const void* owner;  ///< ProfScope that opened the frame, else nullptr
  uint64_t start_ns;
  uint64_t child_ns;
};

bool g_enabled = false;
Ledger g_ledger;
std::vector<Frame> g_stack;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void push(int layer, const void* owner) {
  g_stack.push_back(Frame{layer, owner, now_ns(), 0});
}

void pop(uint64_t bytes) {
  const Frame frame = g_stack.back();
  g_stack.pop_back();
  const uint64_t total = now_ns() - frame.start_ns;
  if (frame.layer == kTransparent) {
    // Hand the nested spans to the parent, whose self time keeps the rest.
    if (!g_stack.empty()) g_stack.back().child_ns += frame.child_ns;
    return;
  }
  LayerStats& stats = g_ledger.layers[frame.layer];
  ++stats.calls;
  stats.bytes += bytes;
  stats.total_ns += total;
  stats.self_ns += total - frame.child_ns;
  if (!g_stack.empty()) g_stack.back().child_ns += total;
}

/// One span around a wrapped call; inert while the ledger is off.
class Span {
 public:
  explicit Span(Layer layer) : on_(g_enabled) {
    if (on_) push(layer, nullptr);
  }
  ~Span() {
    if (on_) pop(bytes_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  bool on_;
  uint64_t bytes_ = 0;
};

int prof_layer(const char* name) {
  if (name == nullptr) return kTransparent;
  static constexpr std::pair<const char*, Layer> kPhases[] = {
      {"net_deliver", kNetDeliver}, {"fs_round", kFsRound},
      {"fs_recovery", kFsRecovery}, {"sim_run", kSimRun},
      {"run_experiment", kRunExperiment},
  };
  for (const auto& [phase, layer] : kPhases) {
    if (std::strcmp(name, phase) == 0) return layer;
  }
  return kTransparent;
}

/// Caller class of a SHA-256 call site, cached per return address (a run
/// has only a handful of distinct call sites).
ShaCaller sha_caller(const void* return_address) {
  static std::vector<std::pair<const void*, ShaCaller>> cache;
  for (const auto& [address, caller] : cache) {
    if (address == return_address) return caller;
  }
  ShaCaller caller = kShaOther;
  Dl_info info{};
  if (dladdr(return_address, &info) != 0 && info.dli_sname != nullptr) {
    const char* name = info.dli_sname;
    if (std::strstr(name, "5Proxy") != nullptr) {
      caller = kShaProxyEncode;
    } else if (std::strstr(name, "14FragmentServer") != nullptr) {
      caller = kShaFsVerify;
    } else if (std::strstr(name, "7storage") != nullptr) {
      caller = kShaStorageIntact;
    }
  }
  cache.emplace_back(return_address, caller);
  return caller;
}

}  // namespace

void set_enabled(bool on) { g_enabled = on; }

Ledger take() {
  Ledger out = g_ledger;
  g_ledger = Ledger{};
  return out;
}

}  // namespace perfbench::ledger

// --- hooks ------------------------------------------------------------------
// External linkage is required: the linker binds the `__wrap_` names.

using namespace perfbench::ledger;
using pahoehoe::Bytes;
namespace erasure = pahoehoe::erasure;
namespace wire = pahoehoe::wire;

#define PERFBENCH_HOOK(ret, fn, symbol, ...)              \
  ret real_##fn(__VA_ARGS__) __asm__("__real_" symbol);   \
  ret wrap_##fn(__VA_ARGS__) __asm__("__wrap_" symbol);   \
  ret wrap_##fn(__VA_ARGS__)

PERFBENCH_HOOK(pahoehoe::Sha256::Digest, sha256_hash,
               "_ZN8pahoehoe6Sha2564hashESt4spanIKhLm18446744073709551615EE",
               std::span<const uint8_t> data) {
  Span span(kSha256);
  if (g_enabled) {
    span.set_bytes(data.size());
    g_ledger.sha_bytes_by_caller[sha_caller(__builtin_return_address(0))] +=
        data.size();
  }
  return real_sha256_hash(data);
}

PERFBENCH_HOOK(std::vector<Bytes>, rs_encode,
               "_ZNK8pahoehoe7erasure11ReedSolomon6encodeERKSt6vectorIhSaIhEE",
               const erasure::ReedSolomon* self, const Bytes& value) {
  Span span(kRsEncode);
  span.set_bytes(value.size());
  return real_rs_encode(self, value);
}

PERFBENCH_HOOK(Bytes, rs_decode,
               "_ZNK8pahoehoe7erasure11ReedSolomon6decodeERKSt6vectorINS0_"
               "15IndexedFragmentESaIS3_EEm",
               const erasure::ReedSolomon* self,
               const std::vector<erasure::IndexedFragment>& fragments,
               size_t value_size) {
  Span span(kRsDecode);
  span.set_bytes(value_size);
  return real_rs_decode(self, fragments, value_size);
}

PERFBENCH_HOOK(std::vector<Bytes>, rs_regenerate,
               "_ZNK8pahoehoe7erasure11ReedSolomon16regenerate_sizedERKSt6"
               "vectorINS0_15IndexedFragmentESaIS3_EERKS2_IiSaIiEEm",
               const erasure::ReedSolomon* self,
               const std::vector<erasure::IndexedFragment>& available,
               const std::vector<int>& targets, size_t frag_size) {
  Span span(kRsRegenerate);
  span.set_bytes(targets.size() * frag_size);
  return real_rs_regenerate(self, available, targets, frag_size);
}

PERFBENCH_HOOK(pahoehoe::sim::TimerId, sim_schedule_at,
               "_ZN8pahoehoe3sim9Simulator11schedule_atElSt8functionIFvvEE",
               pahoehoe::sim::Simulator* self, pahoehoe::SimTime t,
               std::function<void()> fn) {
  Span span(kSimSchedule);
  return real_sim_schedule_at(self, t, std::move(fn));
}

PERFBENCH_HOOK(pahoehoe::sim::TimerId, sim_schedule_after,
               "_ZN8pahoehoe3sim9Simulator14schedule_afterElSt8functionIFvvEE",
               pahoehoe::sim::Simulator* self, pahoehoe::SimTime delay,
               std::function<void()> fn) {
  Span span(kSimSchedule);
  return real_sim_schedule_after(self, delay, std::move(fn));
}

PERFBENCH_HOOK(void, sim_cancel, "_ZN8pahoehoe3sim9Simulator6cancelEm",
               pahoehoe::sim::Simulator* self, pahoehoe::sim::TimerId id) {
  Span span(kSimCancel);
  real_sim_cancel(self, id);
}

PERFBENCH_HOOK(void, net_send,
               "_ZN8pahoehoe3net7Network4sendENS_6NodeIdES2_NS_4wire11"
               "MessageTypeESt6vectorIhSaIhEE",
               pahoehoe::net::Network* self, pahoehoe::NodeId from,
               pahoehoe::NodeId to, wire::MessageType type, Bytes payload) {
  Span span(kNetSend);
  span.set_bytes(payload.size());
  real_net_send(self, from, to, type, std::move(payload));
}

PERFBENCH_HOOK(void, prof_scope_ctor, "_ZN8pahoehoe3obs9ProfScopeC1EPKc",
               pahoehoe::obs::ProfScope* self, const char* name) {
  real_prof_scope_ctor(self, name);
  if (g_enabled) push(prof_layer(name), self);
}

PERFBENCH_HOOK(void, prof_scope_dtor, "_ZN8pahoehoe3obs9ProfScopeD1Ev",
               pahoehoe::obs::ProfScope* self) {
  // Scopes close in LIFO order, so a frame this scope opened is on top.
  if (!g_stack.empty() && g_stack.back().owner == self) pop(0);
  real_prof_scope_dtor(self);
}

#define PERFBENCH_MESSAGE_HOOKS(len, Name)                                  \
  PERFBENCH_HOOK(Bytes, encode_##Name,                                      \
                 "_ZNK8pahoehoe4wire" #len #Name "6encodeEv",               \
                 const wire::Name* self) {                                  \
    Span span(kWireEncode);                                                 \
    Bytes out = real_encode_##Name(self);                                   \
    span.set_bytes(out.size());                                             \
    return out;                                                             \
  }                                                                         \
  PERFBENCH_HOOK(wire::Name, decode_##Name,                                 \
                 "_ZN8pahoehoe4wire" #len #Name                             \
                 "6decodeERKSt6vectorIhSaIhEE",                             \
                 const Bytes& payload) {                                    \
    Span span(kWireDecode);                                                 \
    span.set_bytes(payload.size());                                         \
    return real_decode_##Name(payload);                                     \
  }

PERFBENCH_MESSAGE_HOOKS(13, DecideLocsReq)
PERFBENCH_MESSAGE_HOOKS(13, DecideLocsRep)
PERFBENCH_MESSAGE_HOOKS(16, StoreMetadataReq)
PERFBENCH_MESSAGE_HOOKS(16, StoreMetadataRep)
PERFBENCH_MESSAGE_HOOKS(16, StoreFragmentReq)
PERFBENCH_MESSAGE_HOOKS(16, StoreFragmentRep)
PERFBENCH_MESSAGE_HOOKS(13, AmrIndication)
PERFBENCH_MESSAGE_HOOKS(13, RetrieveTsReq)
PERFBENCH_MESSAGE_HOOKS(13, RetrieveTsRep)
PERFBENCH_MESSAGE_HOOKS(15, RetrieveFragReq)
PERFBENCH_MESSAGE_HOOKS(15, RetrieveFragRep)
PERFBENCH_MESSAGE_HOOKS(14, KlsConvergeReq)
PERFBENCH_MESSAGE_HOOKS(14, KlsConvergeRep)
PERFBENCH_MESSAGE_HOOKS(13, FsConvergeReq)
PERFBENCH_MESSAGE_HOOKS(13, FsConvergeRep)
PERFBENCH_MESSAGE_HOOKS(15, SiblingStoreReq)
PERFBENCH_MESSAGE_HOOKS(15, SiblingStoreRep)
PERFBENCH_MESSAGE_HOOKS(13, KlsLocsNotify)
