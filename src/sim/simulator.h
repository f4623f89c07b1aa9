// Deterministic single-threaded discrete-event simulator.
//
// Events fire in (time, insertion-sequence) order, so two events scheduled
// for the same instant run in the order they were scheduled and every run
// with the same seed replays identically. The protocol code never reads a
// real clock; all time comes from Simulator::now().
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace pahoehoe::sim {

/// Handle for cancelling a scheduled event. 0 is never a valid id.
using TimerId = uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

  explicit Simulator(uint64_t seed) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  /// Schedule `fn` to run at absolute simulated time `t` (≥ now).
  TimerId schedule_at(SimTime t, Callback fn);
  /// Schedule `fn` to run `delay` microseconds from now (≥ 0).
  TimerId schedule_after(SimTime delay, Callback fn);
  /// Cancel a scheduled event; harmless if it already fired or was cancelled.
  void cancel(TimerId id);

  /// Execute the next pending event; returns false if none remain.
  bool step();
  /// Run until the event queue drains or simulated time would pass `until`.
  /// Returns the number of events executed.
  size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Events scheduled and still live (not executed, not cancelled).
  size_t pending() const { return live_.size(); }
  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }
  /// Time of the most recently executed event (0 if none ran yet). Unlike
  /// now(), this is not advanced by a finite run() horizon, so it measures
  /// when the system actually went quiet.
  SimTime last_event_time() const { return last_event_time_; }

 private:
  struct Event {
    SimTime time;
    TimerId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  SimTime now_ = 0;
  SimTime last_event_time_ = 0;
  TimerId next_id_ = 1;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Scheduled, not fired, not cancelled: a queued event fires only if its
  // id is still here.
  std::unordered_set<TimerId> live_;
  Rng rng_;
};

}  // namespace pahoehoe::sim
