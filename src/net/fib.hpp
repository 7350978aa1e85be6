#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace rcsim {

/// Deterministic per-flow key for spreading traffic across equal-cost next
/// hops: a splitmix64 finalizer over (src, dst). Every packet of a flow maps
/// to the same key, so a flow sticks to one path for as long as the entry
/// set is stable (no intra-flow reordering from ECMP itself).
[[nodiscard]] constexpr std::uint64_t fibFlowKey(NodeId src, NodeId dst) {
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
                    static_cast<std::uint32_t>(dst);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Forwarding Information Base: destination node -> a small set of next-hop
/// neighbors. Stored as flat vectors indexed by destination for O(1) lookups
/// in the data-forwarding hot path.
///
/// Each entry is a one-byte *slot*: an index into the owning node's port
/// list (Node::neighbors(), bound by resize()), with kNoSlot meaning "no
/// route". The NodeId accessors (nextHop/nextHops/pick) translate through
/// that list, so walkers and observers see neighbor ids; the data plane
/// reads slots and indexes its links directly. A node can therefore have at
/// most kMaxPorts neighbors (Network::finalize enforces it).
///
/// Entry 0 is the *primary* next hop — the protocol's deterministic single
/// best choice, identical to what the FIB held before multi-next-hop
/// entries existed. Alternates (up to kMaxNextHops-1 of them) only exist
/// when ECMP is enabled at resize() time; with it off the alternate arrays
/// are never allocated and the FIB costs exactly one byte per destination.
///
/// Canonical walks (Network::fibWalk, obs::PathWalker, the obs/replay
/// shadow FIB) follow primaries only; the data plane spreads flows over the full
/// entry set via fibFlowKey (see docs/routing-state.md).
class Fib {
 public:
  /// Small-N cap on next hops per destination (1 primary + 3 alternates).
  static constexpr int kMaxNextHops = 4;
  /// The slot byte of an absent route.
  static constexpr std::uint8_t kNoSlot = 0xFF;
  /// Most ports a slot byte can name (slots 0..254).
  static constexpr std::size_t kMaxPorts = kNoSlot;

  /// Size for `nodeCount` destinations, all unrouted, and bind the port
  /// list that slots index. `ports` must outlive the FIB and keep its
  /// existing order; Node owns both and is pinned in memory for that reason.
  void resize(std::size_t nodeCount, const std::vector<NodeId>& ports, bool ecmp = false) {
    ports_ = &ports;
    slot_.assign(nodeCount, kNoSlot);
    ecmp_ = ecmp;
    if (ecmp) {
      alt_.assign(nodeCount * (kMaxNextHops - 1), kNoSlot);
      altCount_.assign(nodeCount, 0);
    } else {
      alt_.clear();
      alt_.shrink_to_fit();
      altCount_.clear();
      altCount_.shrink_to_fit();
    }
  }

  /// A temporary port list would dangle as soon as resize() returned.
  void resize(std::size_t nodeCount, const std::vector<NodeId>&& ports, bool ecmp = false) = delete;

  [[nodiscard]] bool ecmpEnabled() const { return ecmp_; }

  /// The neighbor a slot names (kInvalidNode for kNoSlot).
  [[nodiscard]] NodeId portId(std::uint8_t slot) const {
    return slot == kNoSlot ? kInvalidNode : (*ports_)[slot];
  }

  /// The primary slot (kNoSlot when absent / out of range).
  [[nodiscard]] std::uint8_t slot(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    return i < slot_.size() ? slot_[i] : kNoSlot;
  }

  /// The primary next hop (kInvalidNode when absent / out of range).
  [[nodiscard]] NodeId nextHop(NodeId dst) const { return portId(slot(dst)); }

  /// Copy the full entry set (primary first) into `out`; returns the count
  /// (0 when no route). `out` must hold kMaxNextHops entries.
  [[nodiscard]] int nextHops(NodeId dst, NodeId* out) const {
    const std::uint8_t primary = slot(dst);
    if (primary == kNoSlot) return 0;
    out[0] = portId(primary);
    int n = 1;
    if (ecmp_) {
      const auto i = static_cast<std::size_t>(dst);
      const int alts = altCount_[i];
      for (int k = 0; k < alts; ++k) out[n++] = portId(alt_[altIndex(i, k)]);
    }
    return n;
  }

  /// Replace the entry for dst with the single slot `s` (kNoSlot removes
  /// it), dropping any alternates. Returns the previous primary slot.
  /// Throws on out-of-range dst — the protocols only install routes for
  /// finalized node ids, so anything else is a bug, not a request.
  std::uint8_t set(NodeId dst, std::uint8_t s) {
    const auto i = checkedIndex(dst);
    const std::uint8_t old = slot_[i];
    slot_[i] = s;
    if (ecmp_) altCount_[i] = 0;
    return old;
  }

  /// Replace the entry set for dst (`slots[0]` becomes the primary; count 0
  /// removes the route). Alternates beyond kMaxNextHops are dropped; with
  /// ECMP disabled only the primary is kept. Returns the previous primary.
  std::uint8_t setMulti(NodeId dst, const std::uint8_t* slots, int count) {
    const auto i = checkedIndex(dst);
    const std::uint8_t old = slot_[i];
    slot_[i] = count > 0 ? slots[0] : kNoSlot;
    if (ecmp_) {
      const int alts = std::clamp(count - 1, 0, kMaxNextHops - 1);
      altCount_[i] = static_cast<std::uint8_t>(alts);
      for (int k = 0; k < alts; ++k) alt_[altIndex(i, k)] = slots[k + 1];
    }
    return old;
  }

  /// Data-plane choice: spread `flowKey` over the entry set. Falls back to
  /// the primary when there are no alternates; kNoSlot when no route.
  [[nodiscard]] std::uint8_t pickSlot(NodeId dst, std::uint64_t flowKey) const {
    const std::uint8_t primary = slot(dst);
    if (!ecmp_ || primary == kNoSlot) return primary;
    const auto i = static_cast<std::size_t>(dst);
    const int n = 1 + altCount_[i];
    if (n == 1) return primary;
    const auto idx = static_cast<int>(flowKey % static_cast<std::uint64_t>(n));
    if (idx == 0) return primary;
    return alt_[altIndex(i, idx - 1)];
  }

  /// pickSlot() as a neighbor id (kInvalidNode when no route).
  [[nodiscard]] NodeId pick(NodeId dst, std::uint64_t flowKey) const {
    return portId(pickSlot(dst, flowKey));
  }

  [[nodiscard]] std::size_t size() const { return slot_.size(); }

 private:
  [[nodiscard]] static std::size_t altIndex(std::size_t i, int k) {
    return i * (kMaxNextHops - 1) + static_cast<std::size_t>(k);
  }

  [[nodiscard]] std::size_t checkedIndex(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    if (i >= slot_.size()) {
      throw std::out_of_range("Fib::set: dst " + std::to_string(dst) + " outside [0, " +
                              std::to_string(slot_.size()) + ")");
    }
    return i;
  }

  const std::vector<NodeId>* ports_ = nullptr;  ///< owner's neighbors(); slot -> id
  std::vector<std::uint8_t> slot_;      ///< primary slot per destination
  std::vector<std::uint8_t> alt_;       ///< (kMaxNextHops-1) slots per destination, ECMP only
  std::vector<std::uint8_t> altCount_;  ///< live alternates per destination, ECMP only
  bool ecmp_ = false;
};

}  // namespace rcsim
