#include "sim/simulator.h"

#include <algorithm>

#include "common/check.h"

namespace pahoehoe::sim {

namespace {

constexpr int kSlotBits = 32;
constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

}  // namespace

TimerId Simulator::schedule_at(SimTime t, Callback fn) {
  PAHOEHOE_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  PAHOEHOE_CHECK(fn != nullptr);
  uint32_t slot;
  if (free_slots_.empty()) {
    PAHOEHOE_CHECK(generations_.size() < kSlotMask);
    slot = static_cast<uint32_t>(generations_.size());
    generations_.push_back(0);
    callbacks_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint32_t generation = ++generations_[slot];  // now odd: taken
  const TimerId id = (uint64_t{generation} << kSlotBits) | slot;
  callbacks_[slot] = std::move(fn);
  heap_.push_back(Event{t, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pending_;
  return id;
}

TimerId Simulator::schedule_after(SimTime delay, Callback fn) {
  PAHOEHOE_CHECK_MSG(delay >= 0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(TimerId id) { release(id); }

bool Simulator::live(TimerId id) const {
  const uint64_t slot = id & kSlotMask;
  const uint64_t generation = id >> kSlotBits;
  return slot < generations_.size() && generations_[slot] == generation &&
         generation % 2 == 1;
}

bool Simulator::release(TimerId id) {
  if (!live(id)) return false;
  const auto slot = static_cast<uint32_t>(id & kSlotMask);
  ++generations_[slot];  // now even: free, and `id` is stale
  callbacks_[slot] = nullptr;
  free_slots_.push_back(slot);
  --pending_;
  return true;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event event = heap_.back();
    heap_.pop_back();
    if (!live(event.id)) continue;  // cancelled
    // Out of the slot before the slot is freed: the callback may schedule
    // an event that reuses it.
    Callback fn = std::move(callbacks_[event.id & kSlotMask]);
    release(event.id);
    now_ = event.time;
    last_event_time_ = event.time;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

size_t Simulator::run(SimTime until) {
  size_t count = 0;
  while (true) {
    // Reap cancelled events first so the time-limit check below sees the
    // next event that would actually execute.
    while (!heap_.empty() && !live(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().time > until) break;
    step();
    ++count;
  }
  // A finite horizon advances the clock to it even when no events fall in
  // the window, so "run for 40 s" behaves intuitively.
  if (until != std::numeric_limits<SimTime>::max() && until > now_) {
    now_ = until;
  }
  return count;
}

}  // namespace pahoehoe::sim
