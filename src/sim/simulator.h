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
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace pahoehoe::sim {

/// Handle for cancelling a scheduled event: (generation << 32) | slot.
/// 0 is never a valid id.
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
  /// Cancel a scheduled event; harmless if it already fired, was cancelled,
  /// or was never issued.
  void cancel(TimerId id);

  /// Execute the next pending event; returns false if none remain.
  bool step();
  /// Run until the event queue drains or simulated time would pass `until`.
  /// Returns the number of events executed.
  size_t run(SimTime until = std::numeric_limits<SimTime>::max());

  /// Events scheduled and still live (not executed, not cancelled).
  size_t pending() const { return pending_; }
  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }
  /// Time of the most recently executed event (0 if none ran yet). Unlike
  /// now(), this is not advanced by a finite run() horizon, so it measures
  /// when the system actually went quiet.
  SimTime last_event_time() const { return last_event_time_; }

 private:
  /// A queued event: 24 plain bytes, so a heap sift moves no callback.
  struct Event {
    SimTime time;
    uint64_t seq;  // insertion order: the tie-break at equal times
    TimerId id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// True iff `id` names a queued event that has not been cancelled.
  bool live(TimerId id) const;
  /// Free `id`'s slot and destroy its callback if `id` is live; false if
  /// it is stale (its event fired or was cancelled) or was never issued.
  bool release(TimerId id);

  SimTime now_ = 0;
  SimTime last_event_time_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t pending_ = 0;
  // A binary min-heap under Later, kept with std::push_heap/pop_heap.
  // Cancelled events stay in it until they reach the top.
  std::vector<Event> heap_;
  // Per-slot generation: odd while the slot holds a queued event, even
  // while it is free. Taking a slot and releasing it (the event fires or is
  // cancelled) each bump it, so only the id issued for the queued event
  // matches: an old id carries an older generation, and 0 or any other
  // even-generation id never matches. Free slots are reused last-in,
  // first-out.
  std::vector<uint32_t> generations_;
  // Per-slot callback of the queued event; empty while the slot is free.
  std::vector<Callback> callbacks_;
  std::vector<uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace pahoehoe::sim
