#include "routing/dbf.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "net/network.hpp"
#include "net/node.hpp"

namespace rcsim {

Dbf::Dbf(Node& node, DvConfig cfg) : DvProtocolBase{node, cfg} {
  // The cache holds metrics as bytes; a larger infinity would wrap (300
  // becomes 44) and resurrect poisoned routes as short ones.
  if (config().infinityMetric > std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument("dv.infinity=" + std::to_string(config().infinityMetric) +
                                " exceeds DBF's 8-bit metric cache (max 255)");
  }
}

void Dbf::start() {
  const auto n = static_cast<std::size_t>(node_.network().nodeCount());
  stride_ = node_.neighbors().size() + 1;
  table_.assign(n * stride_, static_cast<std::uint8_t>(config().infinityMetric));
  known_.assign(node_.network().nodeCount());
  record(node_.id())[stride_ - 1] = 0;
  known_.set(node_.id());
  DvProtocolBase::start();
}

int Dbf::metricFor(NodeId dst) const { return record(dst)[stride_ - 1]; }

NodeId Dbf::nextHopFor(NodeId dst) const {
  // The FIB primary *is* the best hop: recompute() keeps them identical, so
  // no separate bestHop_ array is carried (saves a slot byte per destination).
  return metricFor(dst) >= config().infinityMetric ? kInvalidNode : node_.fib().nextHop(dst);
}

int Dbf::cachedMetric(NodeId neighbor, NodeId dst) const {
  const int slot = node_.neighborSlot(neighbor);
  if (slot < 0) return config().infinityMetric;
  return record(dst)[slot];
}

std::vector<NodeId> Dbf::knownDestinations() const {
  std::vector<NodeId> dsts;
  dsts.reserve(known_.count());
  known_.forEachSet([&dsts](NodeId d) { dsts.push_back(d); });
  return dsts;
}

void Dbf::recompute(NodeId dst) {
  if (dst == node_.id()) return;
  std::uint8_t* const rec = record(dst);
  std::uint8_t& stored = rec[stride_ - 1];
  const int inf = config().infinityMetric;
  int best = inf;
  // The winner as an id (for the tie-break) and as a FIB slot (to compare
  // with the incumbent and install without a reverse lookup).
  NodeId via = kInvalidNode;
  std::uint8_t viaSlot = Fib::kNoSlot;
  const std::uint8_t current = node_.fib().slot(dst);
  // Tie-break: keep the incumbent next hop if it stays optimal, otherwise
  // lowest neighbor id — fully deterministic.
  auto beats = [&](int cand, std::uint8_t slot, NodeId n) {
    if (cand != best) return cand < best;
    if (viaSlot == current) return false;
    return slot == current || n < via;
  };
  const auto& alive = aliveNeighbors();
  const auto& slots = aliveNeighborSlots();
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const auto slot = static_cast<std::uint8_t>(slots[k]);
    const int cand = std::min<int>(rec[slot] + 1, inf);
    if (cand < inf && beats(cand, slot, alive[k])) {
      best = cand;
      via = alive[k];
      viaSlot = slot;
    }
  }
  // Hold-down (no-op unless dv.holddown is configured): a destination whose
  // best route hit infinity may not be resurrected from the cache until the
  // window lapses — the cached metrics are exactly the stale news hold-down
  // exists to distrust. Note the instant switch-over path (finite -> finite
  // via an alternate) never passes through infinity and stays untouched.
  if (best < inf && stored >= inf && inHoldDown(dst)) {
    best = inf;
    via = kInvalidNode;
    viaSlot = Fib::kNoSlot;
  }
  if (best >= inf && stored < inf) startHoldDown(dst);

  if (node_.fib().ecmpEnabled()) {
    // Refresh the full equal-cost entry set on every recompute (alternates
    // can change even when the primary stays put). Primary first, then the
    // lowest-id tied neighbors.
    NodeId hops[Fib::kMaxNextHops];
    int count = 0;
    if (via != kInvalidNode) {
      hops[count++] = via;
      for (std::size_t k = 0; k < alive.size() && count < Fib::kMaxNextHops; ++k) {
        if (alive[k] == via) continue;
        if (std::min<int>(rec[slots[k]] + 1, inf) != best) continue;
        // Keep alternates sorted ascending by id (alive_ is attachment
        // order, not sorted).
        int pos = count;
        while (pos > 1 && alive[k] < hops[pos - 1]) --pos;
        for (int m = count; m > pos; --m) hops[m] = hops[m - 1];
        hops[pos] = alive[k];
        ++count;
      }
    }
    node_.setRoutes(dst, hops, count);
    if (best == stored && viaSlot == current) return;
    const bool metricChanged = best != stored;
    stored = static_cast<std::uint8_t>(best);
    if (metricChanged) markChanged(dst);
    return;
  }

  if (best == stored && viaSlot == current) return;
  const bool metricChanged = best != stored;
  stored = static_cast<std::uint8_t>(best);
  node_.setRouteBySlot(dst, viaSlot);
  // Advertise on metric change (next-hop-only changes are invisible to
  // neighbors except through poison reverse, which periodic updates fix).
  if (metricChanged) markChanged(dst);
}

void Dbf::processUpdate(NodeId from, const DvUpdate& update) {
  const auto slot = static_cast<std::size_t>(node_.neighborSlot(from));
  const int inf = config().infinityMetric;
  // With ECMP off and no hold-down, every recompute() leaves the stored best
  // b at the minimum candidate and the FIB primary at an argmin. An entry
  // whose new candidate is not below b, and that did not move an old
  // candidate of exactly b, cannot change either, so its recompute is
  // skipped. ECMP alternates and hold-down windows depend on more than that
  // minimum, so with either on every entry recomputes.
  const bool exactSkip = !node_.fib().ecmpEnabled() && config().holdDownSec <= 0.0;
  for (const auto& entry : update.entries) {
    const NodeId d = entry.dst;
    if (d == node_.id()) continue;
    known_.set(d);
    std::uint8_t* const rec = record(d);
    const int oldCand = std::min<int>(rec[slot] + 1, inf);
    const int metric = std::min<int>(entry.metric, inf);
    rec[slot] = static_cast<std::uint8_t>(metric);
    if (exactSkip) {
      const int b = rec[stride_ - 1];
      const int newCand = std::min(metric + 1, inf);
      if (newCand >= b && (oldCand != b || newCand == b)) continue;
    }
    recompute(d);
  }
}

void Dbf::neighborDown(NodeId neighbor) {
  // What a neighbor advertised only matters while it is alive: forget its
  // column so recompute() cannot pick it — instant switch-over.
  const auto slot = static_cast<std::size_t>(node_.neighborSlot(neighbor));
  const auto inf = static_cast<std::uint8_t>(config().infinityMetric);
  const auto n = static_cast<NodeId>(table_.size() / stride_);
  for (NodeId d = 0; d < n; ++d) {
    record(d)[slot] = inf;
    recompute(d);
  }
}

void Dbf::neighborUp(NodeId /*neighbor*/) {}

void Dbf::holdDownExpired(NodeId dst) {
  // Whatever the cache accumulated during the window becomes eligible now.
  recompute(dst);
}

}  // namespace rcsim
