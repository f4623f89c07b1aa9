// Client workload driver (paper §5.1): issues puts through a proxy,
// optionally retrying failures (the lossy-network experiment counts the
// attempts needed to collect the target number of success replies).
//
// Two arrival models:
//  * closed-loop (the paper's): first attempts at fixed `spacing`;
//  * open-loop: first attempts arrive at `arrival_rate_per_s` regardless
//    of completions (fixed-rate or Poisson), the model under which per-op
//    latency percentiles are honest — a slow system cannot slow down its
//    own offered load. Per-object think time between a put resolving and
//    its read-back is `get_delay`.
// Either way the driver records per-op latency: a put is measured from its
// *first-attempt* arrival to its final resolution (ack, retries exhausted,
// or local timeout), so retried puts are charged their full client-visible
// latency rather than just the last attempt's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/proxy.h"
#include "sim/simulator.h"

namespace pahoehoe::core {

/// How first attempts are scheduled over time.
enum class ArrivalProcess {
  kClosedLoop,   ///< i * spacing (the paper's workload)
  kOpenFixed,    ///< fixed rate: i / arrival_rate_per_s
  kOpenPoisson,  ///< Poisson: iid exponential inter-arrival gaps
};

struct WorkloadConfig {
  int num_puts = 100;               ///< distinct objects
  size_t value_size = 100 * 1024;   ///< 100 KiB, the paper's object size
  Policy policy;
  SimTime spacing = 1 * kMicrosPerSecond;  ///< gap between first attempts
  ArrivalProcess arrivals = ArrivalProcess::kClosedLoop;
  /// Offered load for the open-loop models (first attempts per second).
  double arrival_rate_per_s = 10.0;
  /// Retry a failed put for the same key (new object version) until it
  /// succeeds or max_attempts is reached.
  bool retry_failed = false;
  SimTime retry_delay = 2 * kMicrosPerSecond;
  int max_attempts = 50;
  std::string key_prefix = "obj-";
  /// Client-side give-up timer per put attempt. A crashed proxy loses its
  /// in-flight operations without answering (§3.5: clients see their own
  /// timeouts), so without this a chaos run's proxy crash would strand the
  /// workload. 0 disables (trust the proxy's reply, the historic behavior).
  SimTime client_timeout = 0;
  /// After an object's puts resolve (acked or given up), read it back with
  /// this probability and check the returned bytes against what was put.
  double get_fraction = 0.0;
  SimTime get_delay = 30 * kMicrosPerSecond;  ///< resolve → get think time
};

/// One put attempt as observed by the client.
struct PutRecord {
  ObjectVersionId ov;  ///< invalid timestamp if the client timed out locally
  int object_index = 0;
  int attempt = 0;
  bool acked = false;  ///< proxy reported success to the client
};

/// One read-back as observed by the client. Only completed gets carry a
/// verdict; an aborted or timed-out get is legal under faults.
struct GetRecord {
  int object_index = 0;
  bool completed = false;  ///< proxy returned a value
  bool matched = false;    ///< value bytes == the deterministic put value
  Timestamp ts;            ///< version returned (valid only if completed)
};

/// Client-observed latency of one finished operation. For puts, `start` is
/// the object's first-attempt arrival time (not the last retry's), and
/// `end` its final resolution; for gets, issue → reply.
struct OpLatency {
  int object_index = 0;
  bool ok = false;  ///< put: finally acked; get: completed with a value
  SimTime start = 0;
  SimTime end = 0;

  double seconds() const {
    return static_cast<double>(end - start) /
           static_cast<double>(kMicrosPerSecond);
  }
};

class WorkloadDriver {
 public:
  WorkloadDriver(sim::Simulator& sim, Proxy& proxy, WorkloadConfig config,
                 uint64_t value_seed);

  /// Schedule the whole workload (non-blocking; runs inside the simulator).
  void start();

  int attempts() const { return attempts_; }
  int successes() const { return successes_; }
  int failures() const { return failures_; }
  const std::vector<PutRecord>& records() const { return records_; }
  const std::vector<GetRecord>& get_records() const { return get_records_; }
  /// One entry per object whose put fully resolved, in resolution order.
  const std::vector<OpLatency>& put_latencies() const {
    return put_latencies_;
  }
  /// One entry per completed-or-failed read-back, in completion order.
  const std::vector<OpLatency>& get_latencies() const {
    return get_latencies_;
  }
  /// When object `i`'s first attempt was (or will be) issued.
  SimTime arrival_time(int object_index) const {
    return arrivals_.at(static_cast<size_t>(object_index));
  }

  Key key_for(int object_index) const;
  /// The (deterministic, regenerable) value stored for an object.
  Bytes value_for(int object_index) const;

 private:
  void issue(int object_index, int attempt);
  void resolve(int object_index, int attempt, bool acked);
  void finish_put(int object_index, bool acked);
  void maybe_get(int object_index);

  sim::Simulator& sim_;
  Proxy& proxy_;
  WorkloadConfig config_;
  uint64_t value_seed_;
  int attempts_ = 0;
  int successes_ = 0;
  int failures_ = 0;
  std::vector<SimTime> arrivals_;  ///< per-object first-attempt issue time
  std::vector<PutRecord> records_;
  std::vector<GetRecord> get_records_;
  std::vector<OpLatency> put_latencies_;
  std::vector<OpLatency> get_latencies_;
};

}  // namespace pahoehoe::core
