#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace rcsim {
namespace {

using namespace rcsim::literals;

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), Time::zero());
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(3_sec, [&] { order.push_back(3); });
  s.scheduleAt(1_sec, [&] { order.push_back(1); });
  s.scheduleAt(2_sec, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_sec);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.scheduleAt(1_sec, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesDuringCallbacks) {
  Scheduler s;
  Time seen;
  s.scheduleAt(5_sec, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 5_sec);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  Time seen;
  s.scheduleAt(2_sec, [&] { s.scheduleAfter(3_sec, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 5_sec);
}

TEST(Scheduler, ZeroDelayFiresSameTimestampAfterCurrent) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(1_sec, [&] {
    order.push_back(1);
    s.scheduleAfter(Time::zero(), [&] { order.push_back(3); });
  });
  s.scheduleAt(1_sec, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 1_sec);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.scheduleAt(1_sec, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeOnStaleIds) {
  Scheduler s;
  int fired = 0;
  const EventId id = s.scheduleAt(1_sec, [&] { ++fired; });
  s.run();
  s.cancel(id);     // already fired: no-op
  s.cancel(id);     // twice: still fine
  s.cancel(EventId{});  // invalid id: no-op
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilHorizonStopsAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.scheduleAt(1_sec, [&] { ++fired; });
  s.scheduleAt(10_sec, [&] { ++fired; });
  s.run(5_sec);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_sec);
  s.run(20_sec);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20_sec);
}

TEST(Scheduler, EventExactlyAtHorizonFires) {
  Scheduler s;
  bool fired = false;
  s.scheduleAt(5_sec, [&] { fired = true; });
  s.run(5_sec);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StopHaltsProcessing) {
  Scheduler s;
  int fired = 0;
  s.scheduleAt(1_sec, [&] {
    ++fired;
    s.stop();
  });
  s.scheduleAt(2_sec, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  Time seen = Time::infinity();
  s.scheduleAt(4_sec, [&] {
    s.scheduleAt(1_sec, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 4_sec);
}

TEST(Scheduler, ExecutedEventsCounts) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.scheduleAt(Time::seconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executedEvents(), 5u);
}

TEST(Scheduler, CancelChurnKeepsBookkeepingBounded) {
  // Regression: the pre-pool scheduler accumulated one tombstone per
  // cancel() forever. A million schedule/fire/cancel cycles must leave no
  // pending state and a pool bounded by peak concurrency (two events here),
  // not by total churn.
  Scheduler s;
  constexpr int kCycles = 1'000'000;
  std::uint64_t fired = 0;
  for (int i = 0; i < kCycles; ++i) {
    const EventId keep = s.scheduleAfter(Time::microseconds(1), [&fired] { ++fired; });
    const EventId victim = s.scheduleAfter(Time::microseconds(2), [] { FAIL(); });
    s.cancel(victim);
    s.cancel(victim);  // double-cancel: must stay a no-op
    s.run();
    s.cancel(keep);  // stale handle of a fired event: must stay a no-op
    EXPECT_EQ(s.pendingEvents(), 0u);
  }
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(s.executedEvents(), static_cast<std::uint64_t>(kCycles));
  // Peak concurrency was 2 events; the pool allocates whole chunks, so the
  // capacity must be a single chunk — far below the 2M handles churned.
  EXPECT_LE(s.poolCapacity(), 1024u);
}

TEST(Scheduler, CancelDuringCallbackAndSelfCancel) {
  Scheduler s;
  int fired = 0;
  EventId later{};
  const EventId self = s.scheduleAt(1_sec, [&] {
    ++fired;
    s.cancel(self);   // self-cancel while executing: no-op, no corruption
    s.cancel(later);  // cancel a pending sibling from inside a callback
  });
  later = s.scheduleAt(2_sec, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 20000; ++i) {
    s.scheduleAt(Time::microseconds((i * 7919) % 10007), [&] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.executedEvents(), 20000u);
}

// One tick workload, scheduled either as kTicks up-front scheduleAt calls
// or as a reserved series that keeps one tick pending and arms the next
// from inside each tick. Around the ticks sit events that collide with
// tick instants: one scheduled before the ticks, one right after them, and
// two scheduled from inside a callback during the run.
struct TickRun {
  std::vector<int> order;  ///< tick index, or a negative id for the others
  std::size_t pendingAfterInstall = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  Scheduler::KindStats traffic;
  Scheduler::KindStats generic;
};

TickRun runTicks(bool reserved, Time installAt) {
  constexpr int kTicks = 64;
  const Time start = 5_ms;
  const Time period = 10_ms;
  Scheduler s;
  TickRun r;
  s.run(installAt);  // ticks before installAt clamp to it, like scheduleAt
  s.scheduleAt(start + period * 3, [&] { r.order.push_back(-1); });
  Time next = start;
  int i = 0;
  std::uint64_t firstSeq = 0;
  std::function<void()> arm = [&] {
    s.scheduleReserved(next, firstSeq + static_cast<std::uint64_t>(i), EventKind::Traffic, [&] {
      r.order.push_back(i);
      if (++i == kTicks) return;
      next += period;
      arm();
    });
  };
  if (reserved) {
    Time t = start;
    firstSeq = s.reserveSeries(EventKind::Traffic, kTicks, [&t, period] {
      const Time at = t;
      t += period;
      return at;
    });
    arm();
  } else {
    int k = 0;
    for (Time t = start; k < kTicks; t += period, ++k) {
      s.scheduleAt(t, EventKind::Traffic, [&r, k] { r.order.push_back(k); });
    }
  }
  s.scheduleAt(start + period * 5, [&] { r.order.push_back(-2); });
  s.scheduleAt(start + period, [&] {
    r.order.push_back(-3);
    s.scheduleAt(start + period * 7, [&] { r.order.push_back(-4); });
    s.scheduleAfter(Time::zero(), [&] { r.order.push_back(-5); });
  });
  r.pendingAfterInstall = s.pendingEvents();
  s.run();
  r.scheduled = s.scheduledEvents();
  r.executed = s.executedEvents();
  r.traffic = s.kindStats(EventKind::Traffic);
  r.generic = s.kindStats(EventKind::Generic);
  return r;
}

TEST(Scheduler, ReservedSeriesFiresInUpFrontOrder) {
  for (const Time installAt : {Time::zero(), 27_ms}) {
    const TickRun upFront = runTicks(false, installAt);
    const TickRun series = runTicks(true, installAt);
    EXPECT_EQ(series.order, upFront.order) << installAt;
    ASSERT_EQ(upFront.order.size(), 69u);
    // Ties break by sequence number: -1 was scheduled before the ticks,
    // -2 after them, -4 and -5 during the run.
    auto pos = [&](int id) {
      return std::find(upFront.order.begin(), upFront.order.end(), id) - upFront.order.begin();
    };
    EXPECT_LT(pos(-1), pos(3));
    EXPECT_GT(pos(-2), pos(5));
    EXPECT_GT(pos(-4), pos(7));
    EXPECT_GT(pos(-5), pos(1));
    // The series holds one pending tick instead of all of them.
    EXPECT_EQ(upFront.pendingAfterInstall - series.pendingAfterInstall, 63u);
  }
}

TEST(Scheduler, ReservedSeriesCountsLikeUpFrontSchedules) {
  for (const Time installAt : {Time::zero(), 27_ms}) {
    const TickRun upFront = runTicks(false, installAt);
    const TickRun series = runTicks(true, installAt);
    EXPECT_EQ(series.scheduled, upFront.scheduled);
    EXPECT_EQ(series.executed, upFront.executed);
    EXPECT_EQ(series.traffic.scheduled, upFront.traffic.scheduled);
    EXPECT_EQ(series.traffic.scheduled, 64u);
    EXPECT_EQ(series.traffic.executed, upFront.traffic.executed);
    EXPECT_EQ(series.traffic.delayHisto, upFront.traffic.delayHisto);
    EXPECT_EQ(series.generic.scheduled, upFront.generic.scheduled);
    EXPECT_EQ(series.generic.delayHisto, upFront.generic.delayHisto);
  }
  // Clamped instants land in bucket 0 (zero delay) at reservation time.
  EXPECT_EQ(runTicks(true, 27_ms).traffic.delayHisto[0], 3u);
}

TEST(Scheduler, ReservedSeriesCanBeCancelled) {
  Scheduler s;
  const std::uint64_t seq = s.reserveSeries(EventKind::Traffic, 2, [] { return 1_sec; });
  int fired = 0;
  const EventId first = s.scheduleReserved(1_sec, seq, EventKind::Traffic, [&] { ++fired; });
  s.scheduleReserved(1_sec, seq + 1, EventKind::Traffic, [&] { fired += 10; });
  s.cancel(first);
  s.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.scheduledEvents(), 2u);
  EXPECT_EQ(s.cancelledEvents(), 1u);
}

}  // namespace
}  // namespace rcsim
