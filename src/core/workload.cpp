#include "core/workload.h"

#include <cmath>
#include <memory>

#include "common/rng.h"

namespace pahoehoe::core {

WorkloadDriver::WorkloadDriver(sim::Simulator& sim, Proxy& proxy,
                               WorkloadConfig config, uint64_t value_seed)
    : sim_(sim), proxy_(proxy), config_(config), value_seed_(value_seed) {
  PAHOEHOE_CHECK(config_.num_puts >= 0 && config_.policy.valid());
  if (config_.arrivals != ArrivalProcess::kClosedLoop) {
    PAHOEHOE_CHECK(config_.arrival_rate_per_s > 0.0);
  }
}

Key WorkloadDriver::key_for(int object_index) const {
  return Key{config_.key_prefix + std::to_string(object_index)};
}

Bytes WorkloadDriver::value_for(int object_index) const {
  // Deterministic content, regenerable for verification without retaining
  // every value in memory. Retries re-put the identical value.
  Rng gen(value_seed_ ^ (0x9e3779b97f4a7c15ULL * (object_index + 1)));
  Bytes value(config_.value_size);
  gen.fill(value);
  return value;
}

void WorkloadDriver::start() {
  // Arrival times are drawn from a dedicated generator (not the
  // simulator's) so switching arrival models does not perturb any other
  // randomness of the run with the same seed.
  Rng arrival_rng(value_seed_ ^ 0xa11a1a1a5eedULL);
  const double rate = config_.arrival_rate_per_s;
  arrivals_.assign(static_cast<size_t>(config_.num_puts), 0);
  SimTime poisson_clock = 0;
  for (int i = 0; i < config_.num_puts; ++i) {
    SimTime when = 0;
    switch (config_.arrivals) {
      case ArrivalProcess::kClosedLoop:
        when = i * config_.spacing;
        break;
      case ArrivalProcess::kOpenFixed:
        when = static_cast<SimTime>(std::llround(
            static_cast<double>(i) * kMicrosPerSecond / rate));
        break;
      case ArrivalProcess::kOpenPoisson: {
        const double gap_s =
            -std::log(1.0 - arrival_rng.uniform01()) / rate;
        poisson_clock += std::max<SimTime>(
            1, static_cast<SimTime>(std::llround(gap_s * kMicrosPerSecond)));
        when = poisson_clock;
        break;
      }
    }
    arrivals_[static_cast<size_t>(i)] = when;
    sim_.schedule_at(when, [this, i] { issue(i, 1); });
  }
}

void WorkloadDriver::issue(int object_index, int attempt) {
  ++attempts_;
  // The proxy answers exactly once unless it crashes mid-operation, in
  // which case nobody answers; the shared flag lets whichever of reply and
  // client timeout fires first claim the attempt.
  auto answered = std::make_shared<bool>(false);
  if (config_.client_timeout > 0) {
    sim_.schedule_after(
        config_.client_timeout, [this, object_index, attempt, answered] {
          if (*answered) return;
          *answered = true;
          records_.push_back(
              PutRecord{ObjectVersionId{}, object_index, attempt, false});
          resolve(object_index, attempt, /*acked=*/false);
        });
  }
  proxy_.put(
      key_for(object_index), value_for(object_index), config_.policy,
      [this, object_index, attempt, answered](const PutResult& result) {
        if (*answered) return;  // the client already gave up on this attempt
        *answered = true;
        records_.push_back(
            PutRecord{result.ov, object_index, attempt, result.success});
        resolve(object_index, attempt, result.success);
      });
}

void WorkloadDriver::resolve(int object_index, int attempt, bool acked) {
  if (acked) {
    ++successes_;
    finish_put(object_index, /*acked=*/true);
    maybe_get(object_index);
    return;
  }
  ++failures_;
  if (config_.retry_failed && attempt < config_.max_attempts) {
    sim_.schedule_after(config_.retry_delay, [this, object_index, attempt] {
      issue(object_index, attempt + 1);
    });
    return;
  }
  finish_put(object_index, /*acked=*/false);
  maybe_get(object_index);  // read-your-writes check even for failed puts
}

void WorkloadDriver::finish_put(int object_index, bool acked) {
  // Latency runs from the object's first-attempt arrival, not the last
  // retry's issue time: with retry_failed set, the client-visible latency
  // of a put is everything since its original arrival.
  put_latencies_.push_back(OpLatency{
      object_index, acked, arrivals_[static_cast<size_t>(object_index)],
      sim_.now()});
}

void WorkloadDriver::maybe_get(int object_index) {
  // At most one get per object (the proxy allows one in-flight get per key),
  // issued only after the object's puts fully resolved.
  if (!sim_.rng().chance(config_.get_fraction)) return;
  sim_.schedule_after(config_.get_delay, [this, object_index] {
    const SimTime issued = sim_.now();
    proxy_.get(key_for(object_index),
               [this, object_index, issued](const GetResult& result) {
                 GetRecord record;
                 record.object_index = object_index;
                 record.completed = result.success;
                 if (result.success) {
                   record.matched = result.value == value_for(object_index);
                   record.ts = result.ts;
                 }
                 get_records_.push_back(record);
                 get_latencies_.push_back(OpLatency{
                     object_index, result.success, issued, sim_.now()});
               });
  });
}

}  // namespace pahoehoe::core
