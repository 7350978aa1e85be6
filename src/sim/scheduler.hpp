#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/chunked_pool.hpp"
#include "sim/time.hpp"

namespace rcsim {

/// Coarse classification of scheduled events, for per-kind scheduler
/// profiling (the PDES groundwork: lookahead and partitioning decisions
/// need to know what the event mix *is*). Call sites tag their schedule*
/// calls; untagged calls default to Generic. The kind never affects
/// ordering or execution; it only picks where a record waits: a fresh
/// LinkDelivery event may wait in one of the scheduler's fixed-delay FIFO
/// lanes instead of its heap (see Scheduler).
enum class EventKind : std::uint8_t {
  Generic = 0,   ///< untagged
  LinkDelivery,  ///< packet serialization / propagation on a link
  Protocol,      ///< routing-protocol timers and deferred work
  Transport,     ///< reliable-session / TCP retransmission timers
  Traffic,       ///< workload sources (CBR ticks, flow start)
  Fault,         ///< fault injection, path-targeted failures, repair
  Detector,      ///< failure detection (hello timers, oracle detect delay)
};
inline constexpr int kEventKindCount = 7;

[[nodiscard]] constexpr const char* toString(EventKind kind) {
  switch (kind) {
    case EventKind::Generic: return "generic";
    case EventKind::LinkDelivery: return "link";
    case EventKind::Protocol: return "protocol";
    case EventKind::Transport: return "transport";
    case EventKind::Traffic: return "traffic";
    case EventKind::Fault: return "fault";
    case EventKind::Detector: return "detector";
  }
  return "?";
}

/// Type-erased callable with inline storage, sized for the simulator's event
/// lambdas. Callables up to kInlineBytes are constructed directly inside the
/// scheduler's pooled event slot — no per-event heap allocation on the hot
/// path; larger ones fall back to a single heap cell.
///
/// kInlineBytes covers Link's two delivery closures (the link, direction or
/// endpoints, epoch and a 4-byte PacketHandle: packets wait in the
/// network's slab, not in closures), the per-packet callables; link.cpp
/// asserts that both stay inline. With the one manager pointer that makes
/// 48 bytes, so a scheduler slot (key, kind, callback) is exactly one cache
/// line. The storage is pointer-aligned to keep that size; a callable that
/// needs more alignment goes to the heap.
///
/// Slots never relocate (the pool is chunked, see Scheduler), so the
/// callable is pinned: constructed once via emplace(), invoked in place,
/// destroyed via reset() or by run(). No move machinery is needed or
/// provided.
class EventCallback {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  /// Whether emplace() stores a callable of type F inline (no heap cell).
  template <typename F>
  static constexpr bool storesInline = sizeof(F) <= kInlineBytes &&
                                       alignof(F) <= alignof(void*) &&
                                       std::is_nothrow_move_constructible_v<F>;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Construct a callable in place. Must be empty (fresh or reset).
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (storesInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      manage_ = [](void* s, Op op) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(s));
        if (op == Op::Run) (*fn)();
        fn->~Fn();
      };
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      manage_ = [](void* s, Op op) {
        Fn* fn = *std::launder(reinterpret_cast<Fn**>(s));
        if (op == Op::Run) (*fn)();
        delete fn;
      };
    }
  }

  [[nodiscard]] explicit operator bool() const { return manage_ != nullptr; }

  /// Invoke the callable once, then destroy it: one indirect call per
  /// event. If the callable throws, it stays owned and reset() (or the
  /// destructor) destroys it.
  void run() {
    manage_(storage_, Op::Run);
    manage_ = nullptr;
  }

  void reset() {
    if (manage_ != nullptr) {
      manage_(storage_, Op::Destroy);
      manage_ = nullptr;
    }
  }

 private:
  enum class Op : std::uint8_t { Run, Destroy };

  void (*manage_)(void*, Op) = nullptr;
  alignas(void*) unsigned char storage_[kInlineBytes];
};
static_assert(sizeof(EventCallback) == 48, "an event callback is its manager plus kInlineBytes");

/// Opaque handle returned by Scheduler::schedule*, usable for cancellation.
/// Encodes (sequence number, pool slot); zero is the invalid handle.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
};

/// Single-threaded discrete-event scheduler.
///
/// Events scheduled for the same timestamp fire in FIFO order (stable by
/// sequence number), which keeps protocol runs deterministic. A reserved
/// series (reserveSeries) takes its numbers when it is reserved, so its
/// events order as if they had all been scheduled at that moment.
///
/// Storage is a chunked slab of pooled slots (callback + liveness key)
/// indexed by plain 16-byte (time, key) records, where key packs the
/// globally increasing sequence number with the slot index. Chunks give
/// slots stable addresses, so callbacks are constructed, invoked, and
/// destroyed in place — never moved. Cancellation clears the slot's key and
/// recycles it immediately — O(1), no tombstone set, no growth on stale
/// cancels; the orphaned record is skipped when popped because its key no
/// longer matches the slot's.
///
/// The records wait in a 4-ary min-heap or in one of kLanes FIFO lanes.
/// A lane is a ring bound to one delay. A link event's delay is one
/// packet's transmission time or the propagation delay, so a handful of
/// delays covers nearly every packet hop. A LinkDelivery event that takes
/// a fresh sequence number (scheduleAt/scheduleAfter) goes to the lane
/// bound to its delay, else to an empty lane, which is rebound to that
/// delay, else to the heap; everything else goes to the heap. now() never
/// goes back and fresh sequence numbers only grow, so each lane receives
/// its records in increasing (time, key) order, and run() pops the least of
/// the heap top and the lane fronts: exactly the order of one heap.
class Scheduler {
 public:
  using Callback = EventCallback;

  /// Fixed-delay FIFO lanes beside the heap.
  static constexpr std::size_t kLanes = 4;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `f` at absolute time `at` (times before now() clamp to now).
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId scheduleAt(Time at, F&& f) {
    return scheduleAt(at, EventKind::Generic, std::forward<F>(f));
  }

  /// Tagged variant: identical semantics, plus per-kind accounting (count
  /// and a power-of-two histogram of the scheduling delay in sim time).
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId scheduleAt(Time at, EventKind kind, F&& f) {
    if (at < now_) at = now_;
    countScheduled(kind, at);
    const HeapItem item = store(at, nextSeq_++, kind, std::forward<F>(f));
    if (kind != EventKind::LinkDelivery || !enqueueLane(item, (at - now_).ns())) {
      queue_.push(item);
    }
    return EventId{item.key};
  }

  /// Reserve the next `n` sequence numbers at now() for a series of `kind`
  /// events that the caller schedules later, one at a time, with
  /// scheduleReserved(); returns the first number. `nextAt` is called n
  /// times and yields the series' instants in order. Each instant is
  /// counted here exactly as scheduleAt(at, kind, ...) would count it
  /// (scheduledEvents(), kindStats().scheduled, the delay histogram), and
  /// each event keeps its reserved, older sequence number, so a series
  /// fires and counts exactly like n up-front scheduleAt calls while
  /// holding one pool slot at a time instead of n.
  template <typename NextAt>
    requires(std::is_invocable_r_v<Time, NextAt&>)
  std::uint64_t reserveSeries(EventKind kind, std::uint64_t n, NextAt&& nextAt) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const Time at = nextAt();
      countScheduled(kind, at < now_ ? now_ : at);
    }
    const std::uint64_t first = nextSeq_;
    nextSeq_ += n;
    return first;
  }

  /// Schedule `f` at `at` (clamped to now) under `seq`, a number handed out
  /// by reserveSeries() for the same `at` and `kind`. It was counted at
  /// reservation; each reserved number must be scheduled at most once.
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId scheduleReserved(Time at, std::uint64_t seq, EventKind kind, F&& f) {
    assert(seq != 0 && seq < nextSeq_ && "sequence number was never reserved");
    if (at < now_) at = now_;
    // An older number may precede a lane's tail: the heap orders it.
    const HeapItem item = store(at, seq, kind, std::forward<F>(f));
    queue_.push(item);
    return EventId{item.key};
  }

  /// Schedule `f` after `delay` from now (negative delays clamp to now).
  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId scheduleAfter(Time delay, F&& f) {
    return scheduleAfter(delay, EventKind::Generic, std::forward<F>(f));
  }

  template <typename F>
    requires(std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  EventId scheduleAfter(Time delay, EventKind kind, F&& f) {
    if (delay < Time::zero()) delay = Time::zero();
    return scheduleAt(now_ + delay, kind, std::forward<F>(f));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or invalid id is an O(1) no-op with no bookkeeping growth, so callers
  /// can keep stale handles safely.
  void cancel(EventId id);

  /// Run until the queue drains, stop() is called, or the horizon is reached.
  /// Events exactly at the horizon still fire.
  void run(Time horizon = Time::infinity());

  /// Request run() to return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of live (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pendingEvents() const { return live_; }

  /// Slots allocated in the event pool — bounded by the peak number of
  /// simultaneously pending events (rounded up to a chunk), never by total
  /// churn.
  [[nodiscard]] std::size_t poolCapacity() const { return slots_.capacity(); }

  /// Total events executed so far (for perf accounting).
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }

  /// Total events ever scheduled, reserved series included (sequence
  /// numbers start at 1).
  [[nodiscard]] std::uint64_t scheduledEvents() const { return nextSeq_ - 1; }

  /// Total events cancelled while still pending.
  [[nodiscard]] std::uint64_t cancelledEvents() const { return cancelled_; }

  /// Events that waited in a lane instead of the heap, and how many times
  /// a lane was bound to a new delay (profiling only).
  [[nodiscard]] std::uint64_t laneEvents() const { return laneEvents_; }
  [[nodiscard]] std::uint64_t laneRebinds() const { return laneRebinds_; }

  /// Scheduling-delay buckets: bucket 0 is a zero delay, bucket i >= 1
  /// covers [2^(i-1), 2^i) nanoseconds of sim time between schedule and
  /// fire time. Deterministic — sim time only, no wall clock.
  static constexpr int kDelayBuckets = 64;

  /// Per-kind accounting. `scheduled` and the delay histogram are recorded
  /// at schedule time, `executed` when the event fires (cancelled events
  /// are scheduled-but-never-executed).
  struct KindStats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::array<std::uint64_t, kDelayBuckets> delayHisto{};
  };
  [[nodiscard]] const KindStats& kindStats(EventKind kind) const {
    return kindStats_[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] static int delayBucket(Time delay) {
    const auto ns = static_cast<std::uint64_t>(delay.ns());
    if (ns == 0) return 0;
    const int b = std::bit_width(ns);
    return b < kDelayBuckets ? b : kDelayBuckets - 1;
  }

 private:
  /// Slot index occupies the low bits of a key; the rest is the sequence
  /// number. 16M concurrent events, ~1.1e12 total events per scheduler.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  /// Cache-line aligned, key first: the run loop's key check and the
  /// callback's invocation touch one line.
  struct alignas(64) Slot {
    std::uint64_t key = 0;  ///< Key of the live occupant; 0 when free.
    std::uint8_t kind = 0;  ///< EventKind of the occupant (profiling only).
    EventCallback cb;
  };
  static_assert(sizeof(Slot) == 64, "a pooled slot should span exactly one cache line");

  struct HeapItem {
    std::uint64_t atNs = 0;  ///< Event time; never negative, stored unsigned.
    std::uint64_t key = 0;

    // Min-heap: earlier time first; FIFO among equal times (keys carry the
    // sequence number in their high bits and are strictly increasing).
    bool operator<(const HeapItem& rhs) const {
#if defined(__SIZEOF_INT128__)
      // One branchless 128-bit compare instead of compare-then-compare.
      return ((static_cast<unsigned __int128>(atNs) << 64) | key) <
             ((static_cast<unsigned __int128>(rhs.atNs) << 64) | rhs.key);
#else
      if (atNs != rhs.atNs) return atNs < rhs.atNs;
      return key < rhs.key;
#endif
    }
  };

  /// 4-ary min-heap of plain 16-byte records. Shallower than a binary heap
  /// and cache-friendlier (four children share a line), which is where the
  /// scheduler hot loop spends its time.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const { return v_.empty(); }
    [[nodiscard]] std::size_t size() const { return v_.size(); }
    [[nodiscard]] const HeapItem& top() const { return v_.front(); }

    void push(const HeapItem& item) {
      // Sift up by moving parents into the hole; the item lands once.
      std::size_t i = v_.size();
      v_.push_back(item);
      while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(item < v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = item;
    }

    void pop() {
      const HeapItem displaced = v_.back();
      v_.pop_back();
      if (v_.empty()) return;
      const std::size_t n = v_.size();
      std::size_t i = 0;
      while (true) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (v_[c] < v_[best]) best = c;
        }
        if (!(v_[best] < displaced)) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = displaced;
    }

   private:
    std::vector<HeapItem> v_;
  };

  /// A FIFO ring of records bound to one delay; doubles when full and never
  /// shrinks, so a warm lane allocates nothing.
  class Lane {
   public:
    static constexpr std::uint64_t kUnbound = ~std::uint64_t{0};

    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] const HeapItem& front() const { return ring_[head_]; }

    void push(const HeapItem& item) {
      if (count_ == capacity_) grow();
      ring_[(head_ + count_) & (capacity_ - 1)] = item;
      ++count_;
    }
    void pop() {
      head_ = (head_ + 1) & (capacity_ - 1);
      --count_;
    }

    std::uint64_t delayNs = kUnbound;  ///< The one delay of its records.

   private:
    void grow();

    std::unique_ptr<HeapItem[]> ring_;
    std::uint32_t capacity_ = 0;  ///< Zero or a power of two.
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
  };

  /// Queue a fresh record `delayNs` after now() in the lane bound to that
  /// delay, else in an empty lane rebound to it; false when every lane
  /// holds another delay's records.
  bool enqueueLane(const HeapItem& item, std::int64_t delayNs) {
    const auto delay = static_cast<std::uint64_t>(delayNs);
    std::size_t unused = kLanes;
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (lanes_[i].delayNs == delay) {
        lanes_[i].push(item);
        busyLanes_ |= 1u << i;
        ++laneEvents_;
        return true;
      }
      if (unused == kLanes && lanes_[i].empty()) unused = i;
    }
    if (unused == kLanes) return false;
    lanes_[unused].delayNs = delay;
    lanes_[unused].push(item);
    busyLanes_ |= 1u << unused;
    ++laneRebinds_;
    ++laneEvents_;
    return true;
  }

  void countScheduled(EventKind kind, Time at) {
    KindStats& ks = kindStats_[static_cast<std::size_t>(kind)];
    ++ks.scheduled;
    ++ks.delayHisto[delayBucket(at - now_)];
  }

  /// Store `f` in a pooled slot under `seq`; returns the record to queue.
  template <typename F>
  HeapItem store(Time at, std::uint64_t seq, EventKind kind, F&& f) {
    const std::uint32_t slot = slots_.acquire();
    assert(slot <= kSlotMask && "event pool exceeded 2^24 concurrent events");
    Slot& s = slots_[slot];
    s.cb.emplace(std::forward<F>(f));
    s.kind = static_cast<std::uint8_t>(kind);
    // The key is unique for the scheduler's lifetime (sequence in the high
    // bits), so a recycled slot can never satisfy a stale handle or an
    // orphaned record.
    const std::uint64_t key = (seq << kSlotBits) | slot;
    s.key = key;
    ++live_;
    return HeapItem{static_cast<std::uint64_t>(at.ns()), key};
  }

  EventHeap queue_;
  std::array<Lane, kLanes> lanes_{};
  std::uint32_t busyLanes_ = 0;  ///< Bit i set while lane i holds records.
  /// Chunked, so a callback runs in place while it schedules more events
  /// and pool growth never moves a live callback.
  ChunkedPool<Slot> slots_;
  std::size_t live_ = 0;
  Time now_ = Time::zero();
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t laneEvents_ = 0;
  std::uint64_t laneRebinds_ = 0;
  bool stopped_ = false;
  std::array<KindStats, kEventKindCount> kindStats_{};
};

}  // namespace rcsim
