#include "sim/scheduler.hpp"

#include <cassert>

#include "sim/watchdog.hpp"

namespace rcsim {

std::uint32_t Scheduler::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t s = freeSlots_.back();
    freeSlots_.pop_back();
    return s;
  }
  if (usedSlots_ == chunks_.size() * kChunkSlots) {
    // Default-initialized: a slot's callback storage is written only when
    // an event is placed there.
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  }
  assert(usedSlots_ <= kSlotMask && "event pool exceeded 2^24 concurrent events");
  return usedSlots_++;
}

void Scheduler::cancel(EventId id) {
  if (!id.valid()) return;
  const auto slot = static_cast<std::uint32_t>(id.value & kSlotMask);
  if (slot >= usedSlots_) return;
  Slot& s = slotRef(slot);
  if (s.key != id.value) return;  // fired or stale
  s.cb.reset();
  s.key = 0;
  freeSlots_.push_back(slot);
  --live_;
  ++cancelled_;
}

void Scheduler::run(Time horizon) {
  stopped_ = false;
  const std::int64_t horizonNs = horizon.ns();
  while (!queue_.empty() && !stopped_) {
    const HeapItem top = queue_.top();
    if (static_cast<std::int64_t>(top.atNs) > horizonNs) break;
    // Pop order wanders across the slab, so the slot line is usually cold;
    // start fetching it while the sift-down below does its compares.
    Slot& s = slotRef(static_cast<std::uint32_t>(top.key & kSlotMask));
#if defined(__GNUC__)
    __builtin_prefetch(&s);
#endif
    queue_.pop();
    if (s.key != top.key) continue;  // cancelled: orphaned heap record
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
    freeSlots_.push_back(static_cast<std::uint32_t>(top.key & kSlotMask));
  }
  // Advance the clock to the horizon unless stopped early: remaining events
  // (if any) are strictly later, so subsequent relative scheduling should be
  // anchored at the horizon.
  if (!stopped_ && horizon != Time::infinity() && now_ < horizon) now_ = horizon;
}

}  // namespace rcsim
