#include "routing/rip.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "net/node.hpp"

namespace rcsim {

Rip::Rip(Node& node, DvConfig cfg) : DvProtocolBase{node, cfg} {}

void Rip::start() {
  const auto n = node_.network().nodeCount();
  metric_.assign(n, 0);
  lastRefresh_.assign(n, node_.scheduler().now());
  oldestRefresh_ = node_.scheduler().now();
  known_.assign(n);
  metric_[static_cast<std::size_t>(node_.id())] = 0;
  known_.set(node_.id());
  DvProtocolBase::start();
}

int Rip::metricFor(NodeId dst) const {
  return known_.test(dst) ? metric_[static_cast<std::size_t>(dst)] : config().infinityMetric;
}

NodeId Rip::nextHopFor(NodeId dst) const {
  if (dst == node_.id()) return node_.id();
  if (!known_.test(dst) || metric_[static_cast<std::size_t>(dst)] >= config().infinityMetric) {
    return kInvalidNode;
  }
  // adopt() keeps the FIB primary in lockstep with the table, so the hop is
  // not duplicated here (docs/routing-state.md).
  return node_.fib().nextHop(dst);
}

std::vector<NodeId> Rip::knownDestinations() const {
  std::vector<NodeId> dsts;
  dsts.reserve(known_.count());
  known_.forEachSet([&dsts](NodeId d) { dsts.push_back(d); });
  return dsts;
}

void Rip::adopt(NodeId dst, int metric, NodeId nextHop) {
  const auto i = static_cast<std::size_t>(dst);
  const bool known = known_.test(dst);
  const bool metricChanged = !known || metric_[i] != metric;
  // A reachable route hitting infinity starts the hold-down window (no-op
  // unless dv.holddown is configured).
  if (known && metric_[i] < config().infinityMetric && metric >= config().infinityMetric) {
    startHoldDown(dst);
  }
  known_.set(dst);
  metric_[i] = static_cast<std::uint16_t>(metric);
  lastRefresh_[i] = node_.scheduler().now();
  node_.setRoute(dst, metric >= config().infinityMetric ? kInvalidNode : nextHop);
  if (metricChanged) markChanged(dst);
}

void Rip::processUpdate(NodeId from, const DvUpdate& update) {
  expireStale();
  for (const auto& entry : update.entries) {
    const NodeId d = entry.dst;
    if (d == node_.id()) continue;
    const auto i = static_cast<std::size_t>(d);
    const int metric = std::min<int>(entry.metric + 1, config().infinityMetric);
    const bool known = known_.test(d);
    if (known && node_.fib().nextHop(d) == from) {
      // Updates from the current next hop are authoritative, better or worse
      // (RFC 2453 §3.9.2) — this is what erases the route on poison.
      if (metric != metric_[i]) {
        adopt(d, metric, from);
      } else if (metric < config().infinityMetric) {
        lastRefresh_[i] = node_.scheduler().now();
      }
    } else if (metric < (known ? metric_[i] : config().infinityMetric)) {
      // Hold-down: after losing the route, distrust alternate sources for a
      // while — their "better" news is usually our own stale reachability
      // echoing back. Updates from the installed next hop (above) are
      // exempt, and RIP re-adopts automatically once the window lapses.
      if (!inHoldDown(d)) adopt(d, metric, from);
    }
  }
}

void Rip::expireStale() {
  const Time now = node_.scheduler().now();
  // No live route was refreshed before oldestRefresh_: none can be stale.
  if (now - oldestRefresh_ <= config().timeout) return;
  Time oldest = now;
  for (NodeId d = 0; d < static_cast<NodeId>(metric_.size()); ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (d == node_.id() || !known_.test(d) || metric_[i] >= config().infinityMetric) continue;
    if (now - lastRefresh_[i] > config().timeout) {
      adopt(d, config().infinityMetric, kInvalidNode);
    } else {
      oldest = std::min(oldest, lastRefresh_[i]);
    }
  }
  oldestRefresh_ = oldest;
}

void Rip::neighborDown(NodeId neighbor) {
  // All routes through the dead neighbor become unreachable at once; RIP has
  // nothing cached to fall back on (paper §4.1).
  for (NodeId d = 0; d < static_cast<NodeId>(metric_.size()); ++d) {
    const auto i = static_cast<std::size_t>(d);
    if (known_.test(d) && metric_[i] < config().infinityMetric &&
        node_.fib().nextHop(d) == neighbor) {
      adopt(d, config().infinityMetric, kInvalidNode);
    }
  }
}

void Rip::neighborUp(NodeId /*neighbor*/) {}

}  // namespace rcsim
