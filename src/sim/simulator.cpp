#include "sim/simulator.h"

#include "common/check.h"

namespace pahoehoe::sim {

TimerId Simulator::schedule_at(SimTime t, Callback fn) {
  PAHOEHOE_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  PAHOEHOE_CHECK(fn != nullptr);
  const TimerId id = next_id_++;
  queue_.push(Event{t, id, std::move(fn)});
  live_.insert(id);
  return id;
}

TimerId Simulator::schedule_after(SimTime delay, Callback fn) {
  PAHOEHOE_CHECK_MSG(delay >= 0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(TimerId id) { live_.erase(id); }

bool Simulator::step() {
  while (!queue_.empty()) {
    // priority_queue::top is const; copy-out then pop. Callbacks are small.
    Event event = queue_.top();
    queue_.pop();
    if (live_.erase(event.id) == 0) continue;  // cancelled
    now_ = event.time;
    last_event_time_ = event.time;
    ++executed_;
    event.fn();
    return true;
  }
  return false;
}

size_t Simulator::run(SimTime until) {
  size_t count = 0;
  while (!queue_.empty()) {
    // Reap cancelled events first so the time-limit check below sees the
    // next event that would actually execute.
    while (!queue_.empty() && live_.count(queue_.top().id) == 0) {
      queue_.pop();
    }
    if (queue_.empty() || queue_.top().time > until) break;
    if (!step()) break;
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
