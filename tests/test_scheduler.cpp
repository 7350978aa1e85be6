#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/chunked_pool.hpp"
#include "sim/random.hpp"

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

// The reference the lanes are held to: one queue sorted by (time, sequence
// number), with the scheduler's interface and clamping, run and stop rules.
class OracleScheduler {
 public:
  using Handle = std::uint64_t;  ///< the sequence number

  [[nodiscard]] Time now() const { return now_; }

  Handle scheduleAt(Time at, EventKind /*kind*/, std::function<void()> f) {
    return put(at, nextSeq_++, std::move(f));
  }
  Handle scheduleAfter(Time delay, EventKind kind, std::function<void()> f) {
    if (delay < Time::zero()) delay = Time::zero();
    return scheduleAt(now_ + delay, kind, std::move(f));
  }
  template <typename NextAt>
  std::uint64_t reserveSeries(EventKind /*kind*/, std::uint64_t n, NextAt&& nextAt) {
    for (std::uint64_t i = 0; i < n; ++i) static_cast<void>(nextAt());
    const std::uint64_t first = nextSeq_;
    nextSeq_ += n;
    return first;
  }
  Handle scheduleReserved(Time at, std::uint64_t seq, EventKind /*kind*/,
                          std::function<void()> f) {
    return put(at, seq, std::move(f));
  }

  void cancel(Handle seq) {
    const auto it = timeOf_.find(seq);
    if (it == timeOf_.end()) return;
    queue_.erase({it->second, seq});
    timeOf_.erase(it);
    ++cancelled_;
  }

  void run(Time horizon = Time::infinity()) {
    stopped_ = false;
    while (!queue_.empty() && !stopped_) {
      const auto it = queue_.begin();
      if (it->first.first > horizon.ns()) break;
      now_ = Time::nanoseconds(it->first.first);
      std::function<void()> f = std::move(it->second);
      timeOf_.erase(it->first.second);
      queue_.erase(it);
      ++executed_;
      f();
    }
    if (!stopped_ && horizon != Time::infinity() && now_ < horizon) now_ = horizon;
  }
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }
  [[nodiscard]] std::uint64_t scheduledEvents() const { return nextSeq_ - 1; }
  [[nodiscard]] std::uint64_t cancelledEvents() const { return cancelled_; }

 private:
  Handle put(Time at, std::uint64_t seq, std::function<void()> f) {
    if (at < now_) at = now_;
    queue_.emplace(std::pair{at.ns(), seq}, std::move(f));
    timeOf_.emplace(seq, at.ns());
    return seq;
  }

  std::map<std::pair<std::int64_t, std::uint64_t>, std::function<void()>> queue_;
  std::unordered_map<std::uint64_t, std::int64_t> timeOf_;
  Time now_ = Time::zero();
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  bool stopped_ = false;
};

// A seeded random event mix. Link events take one of seven delays, more
// than there are lanes, so lanes rebind and some link events wait in the
// heap; the other kinds land at random instants on the same microsecond
// grid, so lane and heap records tie. Every fired event may schedule
// children, cancel a random earlier event (pending, fired or cancelled) or
// itself; a reserved series runs throughout; the run is cut by a horizon
// and by stop(). What an event does depends only on the seed and its id,
// so two schedulers that fire in the same order make the same calls.
template <typename S>
struct Mix {
  static constexpr int kMaxEvents = 20000;
  static constexpr int kSeriesLength = 40;
  static constexpr int kStopAfter = 6000;  ///< fired events before stop()
  static constexpr std::int64_t kLinkDelaysUs[] = {0, 3, 51, 120, 800, 1000, 1500};

  using Handle = decltype(std::declval<S&>().scheduleAt(Time::zero(), EventKind::Generic,
                                                        [] {}));

  S s;
  std::uint64_t seed;
  EventKind linkKind;  ///< the tag of the link events
  std::vector<Handle> handles;  ///< by event id
  std::vector<int> fired;       ///< event ids in firing order
  std::vector<Time> stops;      ///< now() after each run() call
  std::uint64_t seriesFirst = 0;
  int seriesNext = 0;

  Mix(std::uint64_t seed, EventKind linkKind) : seed{seed}, linkKind{linkKind} {}

  static Time seriesAt(int i) { return Time::microseconds(500 + 700 * i); }

  void scheduleRandom(Rng& rng) {
    if (static_cast<int>(handles.size()) >= kMaxEvents) return;
    const int id = static_cast<int>(handles.size());
    handles.emplace_back();
    const auto body = [this, id] { onFire(id); };
    if (rng.uniformInt(0, 9) < 6) {
      const auto delay = kLinkDelaysUs[rng.uniformInt(0, std::size(kLinkDelaysUs) - 1)];
      handles[id] = s.scheduleAfter(Time::microseconds(delay), linkKind, body);
    } else {
      static constexpr EventKind kOthers[] = {EventKind::Protocol, EventKind::Transport,
                                              EventKind::Traffic};
      // Some instants lie in the past and clamp to now().
      const Time at = s.now() + Time::microseconds(rng.uniformInt(-20, 2000));
      handles[id] = s.scheduleAt(at, kOthers[rng.uniformInt(0, 2)], body);
    }
  }

  void armSeries() {
    const int id = static_cast<int>(handles.size());
    handles.emplace_back();
    const int i = seriesNext;
    handles[id] = s.scheduleReserved(seriesAt(i), seriesFirst + static_cast<std::uint64_t>(i),
                                     EventKind::Traffic, [this, id] {
                                       fired.push_back(id);
                                       if (++seriesNext < kSeriesLength) armSeries();
                                     });
  }

  void onFire(int id) {
    fired.push_back(id);
    Rng rng{seed * 1000003 + static_cast<std::uint64_t>(id)};
    for (auto n = rng.uniformInt(0, 2); n > 0; --n) scheduleRandom(rng);
    const auto roll = rng.uniformInt(0, 99);
    if (roll < 15) {
      s.cancel(handles[static_cast<std::size_t>(rng.uniformInt(0, id))]);
    } else if (roll < 20) {
      s.cancel(handles[static_cast<std::size_t>(id)]);  // self-cancel: a no-op
    }
    if (fired.size() == kStopAfter) s.stop();
  }

  void run() {
    Rng rng{seed};
    for (int i = 0; i < 400; ++i) scheduleRandom(rng);
    seriesFirst = s.reserveSeries(EventKind::Traffic, kSeriesLength,
                                  [i = 0]() mutable { return seriesAt(i++); });
    armSeries();
    for (int i = 0; i < 10; ++i) s.cancel(handles[static_cast<std::size_t>(i * 37)]);
    s.run(Time::milliseconds(5));
    stops.push_back(s.now());
    for (int i = 0; i < 100; ++i) scheduleRandom(rng);
    s.run();  // stopped after kStopAfter events
    stops.push_back(s.now());
    s.run();
    stops.push_back(s.now());
  }
};

TEST(Scheduler, LanesFireInHeapOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Mix<Scheduler> laned{seed, EventKind::LinkDelivery};
    Mix<OracleScheduler> oracle{seed, EventKind::LinkDelivery};
    laned.run();
    oracle.run();
    ASSERT_EQ(laned.fired, oracle.fired) << "seed " << seed;
    EXPECT_EQ(laned.stops, oracle.stops);
    ASSERT_EQ(laned.stops.size(), 3u);
    EXPECT_EQ(laned.stops[0], Time::milliseconds(5));  // the horizon
    EXPECT_LT(laned.stops[1], laned.stops[2]);          // stop() left events pending
    EXPECT_EQ(laned.s.executedEvents(), oracle.s.executedEvents());
    EXPECT_EQ(laned.s.scheduledEvents(), oracle.s.scheduledEvents());
    EXPECT_EQ(laned.s.cancelledEvents(), oracle.s.cancelledEvents());
    EXPECT_EQ(laned.s.pendingEvents(), 0u);
    EXPECT_GT(laned.s.cancelledEvents(), 100u);
    EXPECT_EQ(laned.handles.size(), static_cast<std::size_t>(Mix<Scheduler>::kMaxEvents));
    // Both paths ran: lanes were rebound after the first binding, and some
    // link events found every lane holding another delay.
    const std::uint64_t linkEvents = laned.s.kindStats(EventKind::LinkDelivery).scheduled;
    EXPECT_GT(laned.s.laneRebinds(), Scheduler::kLanes);
    EXPECT_GT(laned.s.laneEvents(), linkEvents / 2);
    EXPECT_LT(laned.s.laneEvents(), linkEvents);
  }
}

TEST(Scheduler, LaneCountsMatchHeap) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Mix<Scheduler> laned{seed, EventKind::LinkDelivery};
    Mix<Scheduler> heap{seed, EventKind::Generic};  // no lane takes a Generic event
    laned.run();
    heap.run();
    ASSERT_EQ(laned.fired, heap.fired);
    EXPECT_EQ(heap.s.laneEvents(), 0u);
    EXPECT_EQ(laned.s.executedEvents(), heap.s.executedEvents());
    EXPECT_EQ(laned.s.scheduledEvents(), heap.s.scheduledEvents());
    EXPECT_EQ(laned.s.cancelledEvents(), heap.s.cancelledEvents());
    EXPECT_EQ(laned.s.poolCapacity(), heap.s.poolCapacity());
    const auto same = [](const Scheduler::KindStats& a, const Scheduler::KindStats& b) {
      return a.scheduled == b.scheduled && a.executed == b.executed &&
             a.delayHisto == b.delayHisto;
    };
    EXPECT_TRUE(same(laned.s.kindStats(EventKind::LinkDelivery),
                     heap.s.kindStats(EventKind::Generic)));
    EXPECT_EQ(laned.s.kindStats(EventKind::Generic).scheduled, 0u);
    EXPECT_EQ(heap.s.kindStats(EventKind::LinkDelivery).scheduled, 0u);
    for (const EventKind kind : {EventKind::Protocol, EventKind::Transport, EventKind::Traffic}) {
      EXPECT_TRUE(same(laned.s.kindStats(kind), heap.s.kindStats(kind))) << toString(kind);
    }
  }
}

TEST(ChunkedPool, KeepsAddressesAcrossGrowthAndReusesTheLastReleasedIndex) {
  ChunkedPool<int> pool;
  const std::uint32_t first = pool.acquire();
  pool[first] = 7;
  int* const addr = &pool[first];
  // Grow well past one chunk: the first slot must not move.
  std::vector<std::uint32_t> more;
  for (std::uint32_t i = 0; i < 3 * ChunkedPool<int>::kChunkSlots; ++i) {
    more.push_back(pool.acquire());
  }
  EXPECT_EQ(&pool[first], addr);
  EXPECT_EQ(pool[first], 7);
  EXPECT_EQ(pool.live(), more.size() + 1);
  EXPECT_EQ(pool.capacity(), 4u * ChunkedPool<int>::kChunkSlots);

  pool.release(more[5]);
  pool.release(more[9]);
  EXPECT_EQ(pool.live(), more.size() - 1);
  EXPECT_EQ(pool.acquire(), more[9]);
  EXPECT_EQ(pool.acquire(), more[5]);
  // A warm pool carves nothing new.
  EXPECT_EQ(pool.carved(), more.size() + 1);
  EXPECT_EQ(pool.capacity(), 4u * ChunkedPool<int>::kChunkSlots);
}

}  // namespace
}  // namespace rcsim
