// Unit tests for the discrete-event simulator core: event ordering,
// determinism, RunUntil semantics, and coroutine task plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace switchfs::sim {
namespace {

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, EqualTimestampsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(50, [&] { fired_at = sim.Now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { fired++; });
  sim.ScheduleAt(20, [&] { fired++; });
  sim.ScheduleAt(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, EventsExecutedCountsEveryExecutedEvent) {
  Simulator sim;
  EXPECT_EQ(sim.events_executed(), 0u);
  sim.ScheduleAt(10, [&] {
    sim.ScheduleAfter(5, [] {});  // nested events count too
  });
  sim.ScheduleAt(20, [] {});
  sim.ScheduleAt(30, [] {});
  sim.RunUntil(20);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_FALSE(sim.Step());  // empty queue: nothing executed
  EXPECT_EQ(sim.events_executed(), 4u);
  sim.ScheduleAfter(1, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.ScheduleAt(1, [&] {
    times.push_back(sim.Now());
    sim.ScheduleAfter(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 6}));
}

// --- coroutine task tests ---

Task<int> ReturnAfter(Simulator* sim, SimTime d, int v) {
  co_await Delay(sim, d);
  co_return v;
}

Task<void> Accumulate(Simulator* sim, std::vector<int>* out) {
  out->push_back(co_await ReturnAfter(sim, 10, 1));
  out->push_back(co_await ReturnAfter(sim, 10, 2));
  out->push_back(co_await ReturnAfter(sim, 10, 3));
}

TEST(Task, SequentialAwaitsAccumulateDelay) {
  Simulator sim;
  std::vector<int> out;
  Spawn(Accumulate(&sim, &out));
  sim.Run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspension) {
  Simulator sim;
  bool started = false;
  bool finished = false;
  Spawn([](Simulator* s, bool* st, bool* fin) -> Task<void> {
    *st = true;
    co_await Delay(s, 5);
    *fin = true;
  }(&sim, &started, &finished));
  EXPECT_TRUE(started);
  EXPECT_FALSE(finished);
  sim.Run();
  EXPECT_TRUE(finished);
}

TEST(Task, ValueTaskCompletingSynchronously) {
  Simulator sim;
  int got = 0;
  Spawn([](int* out) -> Task<void> {
    auto immediate = []() -> Task<int> { co_return 42; };
    *out = co_await immediate();
  }(&got));
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::string trace_a;
  std::string trace_b;
  auto worker = [](Simulator* s, std::string* trace, char tag,
                   SimTime step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await Delay(s, step);
      trace->push_back(tag);
    }
  };
  Spawn(worker(&sim, &trace_a, 'a', 10));
  Spawn(worker(&sim, &trace_b, 'b', 15));
  sim.Run();
  EXPECT_EQ(trace_a, "aaa");
  EXPECT_EQ(trace_b, "bbb");
  EXPECT_EQ(sim.Now(), 45);
}

}  // namespace
}  // namespace switchfs::sim
