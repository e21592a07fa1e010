// Unit tests for the discrete-event scheduler and the simulation context:
// ordering, FIFO tie-breaking, cancellation semantics, run_until, periodic
// timers, and determinism.
#include "epicast/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "epicast/sim/simulator.hpp"

namespace epicast {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::seconds(3.0), [&] { order.push_back(3); });
  s.schedule_at(SimTime::seconds(1.0), [&] { order.push_back(1); });
  s.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::seconds(3.0));
}

TEST(Scheduler, EqualTimesAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesDuringExecution) {
  Scheduler s;
  s.schedule_at(SimTime::seconds(2.5), [&] {
    EXPECT_EQ(s.now(), SimTime::seconds(2.5));
  });
  EXPECT_EQ(s.now(), SimTime::zero());
  s.run();
  EXPECT_EQ(s.now(), SimTime::seconds(2.5));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  std::vector<double> at;
  s.schedule_after(Duration::seconds(1.0), [&] {
    at.push_back(s.now().to_seconds());
    s.schedule_after(Duration::seconds(0.5),
                     [&] { at.push_back(s.now().to_seconds()); });
  });
  s.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 1.0);
  EXPECT_DOUBLE_EQ(at[1], 1.5);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(SimTime::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());  // idempotent
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  EventHandle h = s.schedule_at(SimTime::seconds(1.0), [] {});
  s.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Scheduler, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::seconds(1.0), [&] { order.push_back(1); });
  s.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(2); });
  s.schedule_at(SimTime::seconds(3.0), [&] { order.push_back(3); });
  s.run_until(SimTime::seconds(2.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // deadline inclusive
  EXPECT_EQ(s.now(), SimTime::seconds(2.0));
  s.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::seconds(10.0));  // advances even when idle
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_at(SimTime::seconds(1.0), [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, DiscardPendingReleasesWithoutRunning) {
  Scheduler s;
  auto held = std::make_shared<int>(0);
  int ran = 0;
  s.schedule_at(SimTime::seconds(1.0), [&ran] { ++ran; });
  EventHandle later = s.schedule_at(SimTime::seconds(5.0),
                                    [&ran, held] { ran += *held + 1; });
  EventHandle cancelled =
      s.schedule_at(SimTime::seconds(6.0), [&ran, held] { ++ran; });
  cancelled.cancel();
  s.run_until(SimTime::seconds(2.0));
  ASSERT_EQ(ran, 1);
  ASSERT_EQ(held.use_count(), 2);
  s.discard_pending();
  EXPECT_EQ(held.use_count(), 1);  // the captures are gone
  EXPECT_FALSE(later.pending());
  EXPECT_FALSE(later.cancel());
  EXPECT_EQ(s.queued(), 0u);
  EXPECT_EQ(s.executed(), 1u);
  EXPECT_EQ(s.now(), SimTime::seconds(2.0));
  s.run();
  EXPECT_EQ(ran, 1);
  // The scheduler stays usable.
  s.schedule_at(SimTime::seconds(3.0), [&ran] { ran += 10; });
  s.run();
  EXPECT_EQ(ran, 11);
}

TEST(Scheduler, ExecutedCountsOnlyLiveEvents) {
  Scheduler s;
  s.schedule_at(SimTime::seconds(1.0), [] {});
  EventHandle h = s.schedule_at(SimTime::seconds(2.0), [] {});
  h.cancel();
  s.run();
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, EventsScheduledFromCallbacksRun) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(Duration::millis(1), recurse);
  };
  s.schedule_at(SimTime::zero() + Duration::millis(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(Scheduler, CancelAfterFireStaysInertWhenSlotIsReused) {
  // The fired event's slab slot is recycled by later schedules; the old
  // handle's generation is stale, so it must neither report pending nor
  // cancel the new occupant.
  Scheduler s;
  EventHandle old_handle = s.schedule_at(SimTime::seconds(1.0), [] {});
  s.run();
  EXPECT_FALSE(old_handle.pending());

  bool ran = false;
  EventHandle fresh = s.schedule_at(SimTime::seconds(2.0), [&] { ran = true; });
  EXPECT_FALSE(old_handle.cancel());
  EXPECT_FALSE(old_handle.pending());
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, CancelledSlotReuseKeepsHandlesIndependent) {
  // Cancel frees the slot immediately; a chain of schedule/cancel pairs
  // exercises generation bumps on the same few slots.
  Scheduler s;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 100; ++round) {
    EventHandle h = s.schedule_at(SimTime::seconds(1.0), [] { FAIL(); });
    EXPECT_TRUE(h.cancel());
    stale.push_back(h);
  }
  for (EventHandle& h : stale) {
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());  // double-cancel across generations
  }
  bool ran = false;
  s.schedule_at(SimTime::seconds(1.0), [&] { ran = true; });
  for (EventHandle& h : stale) EXPECT_FALSE(h.cancel());
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, CopiedHandlesShareCancellationState) {
  Scheduler s;
  bool ran = false;
  EventHandle a = s.schedule_at(SimTime::seconds(1.0), [&] { ran = true; });
  EventHandle b = a;
  EXPECT_TRUE(b.cancel());
  EXPECT_FALSE(a.cancel());
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, FifoSurvivesHeavyCancelChurnAtEqualTimestamps) {
  // Interleave schedules and cancellations at one timestamp: survivors must
  // still fire in scheduling order, exactly once.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 300; ++i) {
    handles.push_back(s.schedule_at(SimTime::seconds(1.0),
                                    [&order, i] { order.push_back(i); }));
    if (i % 3 == 1) handles[i - 1].cancel();  // cancel the previous one
  }
  s.run();
  std::vector<int> expected;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 != 0) expected.push_back(i);  // multiples of 3 were cancelled
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(s.executed(), expected.size());
}

TEST(Scheduler, PendingIsFalseInsideOwnCallback) {
  Scheduler s;
  EventHandle h;
  bool checked = false;
  h = s.schedule_at(SimTime::seconds(1.0), [&] {
    checked = true;
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
  });
  s.run();
  EXPECT_TRUE(checked);
}

TEST(Scheduler, CallbackLargerThanInlineBufferStillRuns) {
  // Closures above SmallCallback::kInlineBytes take the heap fallback; the
  // semantics must be unchanged.
  Scheduler s;
  std::array<std::uint64_t, 16> big{};  // 128 bytes captured by value
  big[15] = 42;
  std::uint64_t sum = 0;
  s.schedule_at(SimTime::seconds(1.0), [big, &sum] { sum = big[15]; });
  s.run();
  EXPECT_EQ(sum, 42u);
}

TEST(Simulator, PeriodicTimerTicksAtInterval) {
  Simulator sim(1);
  std::vector<double> ticks;
  PeriodicTimer t = sim.every(Duration::millis(10), Duration::millis(30),
                              [&] { ticks.push_back(sim.now().to_seconds()); });
  sim.run_until(SimTime::seconds(0.1));
  ASSERT_EQ(ticks.size(), 4u);  // 10, 40, 70, 100 ms
  EXPECT_DOUBLE_EQ(ticks[0], 0.010);
  EXPECT_DOUBLE_EQ(ticks[1], 0.040);
  EXPECT_DOUBLE_EQ(ticks[3], 0.100);
}

TEST(Simulator, PeriodicTimerStops) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicTimer t =
      sim.every(Duration::millis(10), Duration::millis(10), [&] { ++ticks; });
  sim.run_until(SimTime::seconds(0.035));
  t.stop();
  EXPECT_FALSE(t.running());
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, PeriodicTimerStopsOnDestruction) {
  Simulator sim(1);
  int ticks = 0;
  {
    PeriodicTimer t = sim.every(Duration::millis(10), Duration::millis(10),
                                [&] { ++ticks; });
  }
  sim.run_until(SimTime::seconds(1.0));
  EXPECT_EQ(ticks, 0);
}

TEST(Simulator, PeriodicTimerSetIntervalTakesEffect) {
  Simulator sim(1);
  std::vector<double> ticks;
  PeriodicTimer t = sim.every(Duration::millis(10), Duration::millis(10),
                              [&] { ticks.push_back(sim.now().to_seconds()); });
  sim.run_until(SimTime::seconds(0.01));
  t.set_interval(Duration::millis(50));
  sim.run_until(SimTime::seconds(0.2));
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks[0], 0.010);
  EXPECT_DOUBLE_EQ(ticks[1], 0.060);
  EXPECT_DOUBLE_EQ(ticks[2], 0.110);
}

TEST(Simulator, ForkRngIsDeterministic) {
  Simulator a(99), b(99);
  Rng ra = a.fork_rng();
  Rng rb = b.fork_rng();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ra.next(), rb.next());
}

TEST(Simulator, MovedTimerKeepsTicking) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicTimer outer;
  {
    PeriodicTimer inner = sim.every(Duration::millis(10), Duration::millis(10),
                                    [&] { ++ticks; });
    outer = std::move(inner);
  }
  sim.run_until(SimTime::seconds(0.05));
  EXPECT_EQ(ticks, 5);
}

}  // namespace
}  // namespace epicast
