#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace pahoehoe::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulatorTest, SameTimeFifoByScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim(1);
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(1);
  bool fired = false;
  TimerId id = sim.schedule_at(100, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsHarmless) {
  Simulator sim(1);
  int count = 0;
  TimerId id = sim.schedule_at(10, [&] { ++count; });
  sim.run();
  sim.cancel(id);  // already fired
  sim.cancel(0);   // never valid
  sim.cancel(9999);
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, CancelFromInsideEarlierEvent) {
  Simulator sim(1);
  bool fired = false;
  TimerId later = sim.schedule_at(200, [&] { fired = true; });
  sim.schedule_at(100, [&] { sim.cancel(later); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtLimit) {
  Simulator sim(1);
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunUntilIgnoresCancelledHead) {
  Simulator sim(1);
  // A cancelled event inside the window must not cause execution of an
  // event beyond the window.
  TimerId id = sim.schedule_at(10, [] {});
  bool fired_late = false;
  sim.schedule_at(100, [&] { fired_late = true; });
  sim.cancel(id);
  sim.run(50);
  EXPECT_FALSE(fired_late);
  sim.run();
  EXPECT_TRUE(fired_late);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim(1);
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, ExecutedCounter) {
  Simulator sim(1);
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(SimulatorTest, SchedulingInPastAborts) {
  Simulator sim(1);
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(50, [] {}), "past");
}

TEST(SimulatorTest, DeterministicRngStream) {
  Simulator a(77), b(77);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  }
  Simulator c(78);
  bool differs = false;
  Simulator d(77);
  for (int i = 0; i < 50; ++i) {
    if (c.rng().next_u64() != d.rng().next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(SimulatorTest, LargeEventVolume) {
  Simulator sim(1);
  int fired = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.schedule_at(sim.rng().uniform_int(0, 1'000'000),
                    [&fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 100000);
}

TEST(SimulatorTest, StaleIdCannotCancelTheEventThatReusedItsSlot) {
  Simulator sim(1);
  bool first = false;
  bool second = false;
  const TimerId old_id = sim.schedule_at(10, [&] { first = true; });
  sim.cancel(old_id);
  // The freed slot is reused at once (last in, first out), under a new id.
  const TimerId new_id = sim.schedule_at(20, [&] { second = true; });
  EXPECT_NE(new_id, old_id);
  sim.cancel(old_id);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);

  // The same holds for an id whose event fired.
  bool third = false;
  const TimerId fired_id = sim.schedule_at(30, [] {});
  sim.run();
  sim.schedule_at(40, [&] { third = true; });
  sim.cancel(fired_id);
  sim.run();
  EXPECT_TRUE(third);
}

TEST(SimulatorTest, SameTimeFifoAcrossReusedSlots) {
  Simulator sim(1);
  std::vector<int> order;
  // Free slots in an order that differs from the next events' schedule
  // order: slot reuse must not decide the tie-break.
  std::vector<TimerId> doomed;
  for (int i = 0; i < 6; ++i) doomed.push_back(sim.schedule_at(5, [] {}));
  sim.cancel(doomed[4]);
  sim.cancel(doomed[1]);
  sim.cancel(doomed[5]);
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.cancel(doomed[0]);
  for (int i = 6; i < 9; ++i) {
    sim.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SimulatorTest, PendingIsExactThroughScheduleCancelAndFire) {
  Simulator sim(1);
  EXPECT_EQ(sim.pending(), 0u);
  const TimerId a = sim.schedule_at(10, [] {});
  const TimerId b = sim.schedule_at(20, [] {});
  const TimerId c = sim.schedule_at(30, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.cancel(b);
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(b);  // twice is harmless
  sim.cancel(0);
  sim.cancel(~TimerId{0});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.step());  // fires a
  EXPECT_EQ(sim.pending(), 1u);
  sim.cancel(a);  // already fired
  EXPECT_EQ(sim.pending(), 1u);
  // An event at 25 that schedules one and cancels c from inside.
  sim.schedule_at(25, [&] {
    sim.schedule_after(1, [] {});
    sim.cancel(c);
  });
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.step());  // +1 scheduled, -1 c cancelled, -1 itself
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.pending(), 0u);
}

// Differential test against a reference model: a std::map keyed by
// (time, schedule order) holding the live events. Every operation's effect
// on the firing order and on pending() must match the model.
TEST(SimulatorTest, MatchesReferenceModelUnderRandomOperations) {
  Simulator sim(1);
  Rng rng(20260417);
  std::map<std::pair<SimTime, uint64_t>, int> model;  // -> event label
  std::map<int, std::pair<SimTime, uint64_t>> key_of;  // label -> model key
  std::vector<std::pair<TimerId, int>> issued;         // every id, ever
  std::vector<int> fired;
  uint64_t seq = 0;
  int next_label = 0;
  for (int op = 0; op < 10000; ++op) {
    const int64_t choice = rng.uniform_int(0, 99);
    if (choice < 45) {
      // Schedule, often at a time already in use to exercise the tie-break.
      const SimTime t = sim.now() + rng.uniform_int(0, 3) * 10;
      const int label = next_label++;
      const TimerId id =
          sim.schedule_at(t, [&fired, label] { fired.push_back(label); });
      model[{t, seq}] = label;
      key_of[label] = {t, seq};
      ++seq;
      issued.emplace_back(id, label);
    } else if (choice < 75) {
      // Cancel: a live, fired, cancelled or made-up id.
      if (!issued.empty() && rng.uniform_int(0, 9) != 0) {
        const auto& [id, label] = issued[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(issued.size()) - 1))];
        sim.cancel(id);
        if (auto it = key_of.find(label); it != key_of.end()) {
          model.erase(it->second);
          key_of.erase(it);
        }
      } else {
        sim.cancel(rng.next_u64());
      }
    } else {
      const bool stepped = sim.step();
      ASSERT_EQ(stepped, !model.empty()) << "op " << op;
      if (stepped) {
        const auto head = model.begin();
        ASSERT_FALSE(fired.empty());
        ASSERT_EQ(fired.back(), head->second) << "op " << op;
        ASSERT_EQ(sim.now(), head->first.first) << "op " << op;
        key_of.erase(head->second);
        model.erase(head);
      }
    }
    ASSERT_EQ(sim.pending(), model.size()) << "op " << op;
  }
  // Drain: the remaining events fire in the model's order.
  const size_t before = fired.size();
  sim.run();
  std::vector<int> rest;
  for (const auto& [key, label] : model) rest.push_back(label);
  EXPECT_EQ(std::vector<int>(fired.begin() + static_cast<long>(before),
                             fired.end()),
            rest);
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace pahoehoe::sim
