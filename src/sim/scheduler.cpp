#include "sim/scheduler.hpp"

#include <bit>
#include <cassert>

#include "sim/watchdog.hpp"

namespace rcsim {

void Scheduler::Lane::grow() {
  const std::uint32_t capacity = capacity_ == 0 ? 64 : capacity_ * 2;
  auto ring = std::make_unique_for_overwrite<HeapItem[]>(capacity);
  for (std::uint32_t i = 0; i < count_; ++i) ring[i] = ring_[(head_ + i) & (capacity_ - 1)];
  ring_ = std::move(ring);
  capacity_ = capacity;
  head_ = 0;
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const auto slot = static_cast<std::uint32_t>(id.value & kSlotMask);
  if (slot >= slots_.carved()) return;
  Slot& s = slots_[slot];
  if (s.key != id.value) return;  // fired or stale
  s.cb.reset();
  s.key = 0;
  slots_.release(slot);
  --live_;
  ++cancelled_;
}

void Scheduler::run(Time horizon) {
  stopped_ = false;
  const std::int64_t horizonNs = horizon.ns();
  while (!stopped_) {
    // The next record is the least of the heap top and the lane fronts;
    // keys are unique, so there is never a tie.
    const HeapItem* next = queue_.empty() ? nullptr : &queue_.top();
    std::size_t from = kLanes;
    for (std::uint32_t busy = busyLanes_; busy != 0; busy &= busy - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(busy));
      if (next == nullptr || lanes_[i].front() < *next) {
        next = &lanes_[i].front();
        from = i;
      }
    }
    if (next == nullptr) break;
    const HeapItem top = *next;
    if (static_cast<std::int64_t>(top.atNs) > horizonNs) break;
    // Pop order wanders across the slab, so the slot line is usually cold;
    // start fetching it while the pop below does its compares.
    Slot& s = slots_[static_cast<std::uint32_t>(top.key & kSlotMask)];
#if defined(__GNUC__)
    __builtin_prefetch(&s);
#endif
    if (from == kLanes) {
      queue_.pop();
    } else {
      lanes_[from].pop();
      if (lanes_[from].empty()) busyLanes_ &= ~(1u << from);
    }
    if (s.key != top.key) continue;  // cancelled: orphaned record
    // Clear the key before invoking so a self-cancel during the callback is
    // a stale no-op, but keep the slot off the free list until the callback
    // finishes: chunk addresses are stable, so it runs in place — no move.
    s.key = 0;
    --live_;
    now_ = Time::nanoseconds(static_cast<std::int64_t>(top.atNs));
    ++executed_;
    ++kindStats_[s.kind].executed;
    // Wall-clock watchdog: a cheap thread-local check every 4096 events, so
    // a replica stuck in an event storm still surfaces as a Timeout.
    if ((executed_ & 0xFFF) == 0) watchdog::poll();
    s.cb.run();
    slots_.release(static_cast<std::uint32_t>(top.key & kSlotMask));
  }
  // Advance the clock to the horizon unless stopped early: remaining events
  // (if any) are strictly later, so subsequent relative scheduling should be
  // anchored at the horizon.
  if (!stopped_ && horizon != Time::infinity() && now_ < horizon) now_ = horizon;
}

}  // namespace rcsim
