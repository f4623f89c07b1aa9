// Micro-benchmarks for message serialization, the network's send/deliver
// path (messages as values), workload value generation and the simulator
// event loop — the substrate the figure benches stand on.
#include <benchmark/benchmark.h>

#include "core/cluster.h"
#include "core/workload.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "wire/messages.h"

namespace pahoehoe {
namespace {

wire::StoreFragmentReq sample_store(size_t frag_size) {
  wire::StoreFragmentReq req;
  req.ov = ObjectVersionId{Key{"obj-42"}, Timestamp{123456, 7}};
  req.meta = Metadata{Policy{}, frag_size * 4};
  for (size_t i = 0; i < req.meta.locs.size(); ++i) {
    req.meta.locs[i] =
        Location{NodeId{10 + static_cast<uint32_t>(i / 2)},
                 static_cast<uint8_t>(i % 2)};
  }
  req.frag_index = 3;
  req.fragment = Fragment::sealed(Bytes(frag_size, 0xa5));
  req.digest = req.fragment.digest();
  return req;
}

void BM_EncodeStoreFragment(benchmark::State& state) {
  const auto req = sample_store(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes payload = req.encode();
    benchmark::DoNotOptimize(payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeStoreFragment)->Arg(25600)->Arg(256 * 1024);

void BM_DecodeStoreFragment(benchmark::State& state) {
  const Bytes payload =
      sample_store(static_cast<size_t>(state.range(0))).encode();
  for (auto _ : state) {
    auto req = wire::StoreFragmentReq::decode(payload);
    benchmark::DoNotOptimize(req);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DecodeStoreFragment)->Arg(25600);

void BM_EncodeConverge(benchmark::State& state) {
  wire::FsConvergeReq req;
  req.ov = ObjectVersionId{Key{"obj-42"}, Timestamp{123456, 7}};
  req.meta = sample_store(16).meta;
  for (auto _ : state) {
    Bytes payload = req.encode();
    benchmark::DoNotOptimize(payload);
  }
}
BENCHMARK(BM_EncodeConverge);

wire::FsConvergeReq sample_converge() {
  wire::FsConvergeReq req;
  req.ov = ObjectVersionId{Key{"obj-42"}, Timestamp{123456, 7}};
  req.meta = sample_store(16).meta;
  return req;
}

void BM_DecodeConverge(benchmark::State& state) {
  const Bytes payload = sample_converge().encode();
  for (auto _ : state) {
    auto req = wire::FsConvergeReq::decode(payload);
    benchmark::DoNotOptimize(req);
  }
}
BENCHMARK(BM_DecodeConverge);

/// Takes every FsConvergeReq delivered to it out of its envelope, as a
/// Fragment Server does.
class TakingHandler : public net::MessageHandler {
 public:
  void handle(wire::Envelope&& env) override {
    auto req = std::get<wire::FsConvergeReq>(std::move(env.msg));
    benchmark::DoNotOptimize(req);
  }
};

// One converge request per item: a copy of the value, Network::send (the
// field-walk size, ledger, fault rules, latency draw, scheduling) and
// delivery of the value to a handler that takes it.
void BM_NetworkSendDeliver(benchmark::State& state) {
  const wire::FsConvergeReq req = sample_converge();
  sim::Simulator sim(1);
  net::Network net(sim);
  TakingHandler from, to;
  net.register_node(NodeId{1}, &from);
  net.register_node(NodeId{2}, &to);
  constexpr int kBatch = 1000;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) net.send(NodeId{1}, NodeId{2}, req);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_WorkloadValue(benchmark::State& state) {
  sim::Simulator sim(1);
  net::Network net(sim);
  core::Cluster cluster(sim, net, core::ClusterTopology{},
                        core::ConvergenceOptions{}, core::ProxyOptions{});
  core::WorkloadConfig config;
  config.value_size = static_cast<size_t>(state.range(0));
  const core::WorkloadDriver driver(sim, cluster.proxy(0), config, 1);
  int object = 0;
  for (auto _ : state) {
    Bytes value = driver.value_for(object++);
    benchmark::DoNotOptimize(value.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WorkloadValue)->Arg(100 * 1024);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(1);
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(sim.rng().uniform_int(0, 1'000'000), [] {});
    }
    state.ResumeTiming();
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorTimerCancel(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(1);
    std::vector<sim::TimerId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(sim.schedule_at(i, [] {}));
    }
    state.ResumeTiming();
    for (sim::TimerId id : ids) sim.cancel(id);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorTimerCancel);

}  // namespace
}  // namespace pahoehoe

BENCHMARK_MAIN();
