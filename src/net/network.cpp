#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

namespace rcsim {

Network::Network(Scheduler& sched, Rng rng) : sched_{sched}, rng_{rng} {}

NodeId Network::addNode() {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, id, rng_.fork()));
  return id;
}

Link& Network::addLink(NodeId a, NodeId b, const LinkConfig& cfg) {
  assert(findLink(a, b) == nullptr);
  links_.push_back(std::make_unique<Link>(*this, a, b, cfg));
  Link& l = *links_.back();
  node(a).attachLink(l);
  node(b).attachLink(l);
  return l;
}

Link* Network::findLink(NodeId a, NodeId b) const {
  for (const auto& l : links_) {
    if (l->connects(a, b)) return l.get();
  }
  return nullptr;
}

HopRecord Network::openHopRecord(int ttl) {
  // Origination and every receive record a node, and the receive that
  // takes the TTL to zero still records: max(ttl, 1) + 1 visits.
  const auto visits = static_cast<std::uint32_t>(std::max(ttl, 1)) + 1;
  return HopRecord{
      hopPool_.acquire(std::min(visits, static_cast<std::uint32_t>(nodes_.size())))};
}

bool Network::visitedTwice(const Packet& p) {
  if (!p.hops.held()) return false;
  const std::span<const NodeId> kept = hopPool_.kept(p.hops.span());
  // More visits than kept ids means more visits than nodes (openHopRecord).
  if (hopPool_.count(p.hops.span()) > kept.size()) return true;
  if (visitMark_.size() < nodes_.size()) visitMark_.resize(nodes_.size(), 0);
  ++visitEpoch_;
  for (const NodeId hop : kept) {
    std::uint64_t& mark = visitMark_[static_cast<std::size_t>(hop)];
    if (mark == visitEpoch_) return true;
    mark = visitEpoch_;
  }
  return false;
}

void Network::finalize(bool ecmp) {
  // A FIB entry is one neighbor-slot byte, so degree is capped at
  // Fib::kMaxPorts. Check every node before sizing any FIB.
  for (const auto& n : nodes_) {
    if (n->neighbors().size() > Fib::kMaxPorts) {
      throw std::invalid_argument("node " + std::to_string(n->id()) + " has degree " +
                                  std::to_string(n->neighbors().size()) +
                                  ", above the FIB's one-byte slot limit of " +
                                  std::to_string(Fib::kMaxPorts) + " neighbors");
    }
  }
  for (auto& n : nodes_) n->resizeFib(nodes_.size(), ecmp);
}

void Network::startProtocols() {
  for (auto& n : nodes_) {
    if (n->protocol() != nullptr) n->protocol()->start();
  }
}

std::vector<NodeId> Network::shortestPathLive(NodeId src, NodeId dst) const {
  const auto n = nodes_.size();
  std::vector<NodeId> prev(n, kInvalidNode);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> q;
  q.push(src);
  seen[static_cast<std::size_t>(src)] = 1;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (u == dst) break;
    for (const NodeId v : node(u).neighbors()) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      const Link* l = node(u).linkTo(v);
      if (l == nullptr || !l->isUp()) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      prev[static_cast<std::size_t>(v)] = u;
      q.push(v);
    }
  }
  if (!seen[static_cast<std::size_t>(dst)]) return {};
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != kInvalidNode; cur = prev[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int Network::shortestDistLive(NodeId src, NodeId dst) const {
  const auto p = shortestPathLive(src, dst);
  return p.empty() ? -1 : static_cast<int>(p.size()) - 1;
}

std::vector<NodeId> Network::fibWalk(NodeId src, NodeId dst, bool* loop, bool* blackhole) const {
  if (loop) *loop = false;
  if (blackhole) *blackhole = false;
  std::vector<NodeId> path;
  std::vector<char> visited(nodes_.size(), 0);
  NodeId cur = src;
  while (true) {
    path.push_back(cur);
    if (cur == dst) return path;
    if (visited[static_cast<std::size_t>(cur)]) {
      if (loop) *loop = true;
      return path;
    }
    visited[static_cast<std::size_t>(cur)] = 1;
    // Canonical walk: primaries only, even under ECMP — obs::PathWalker
    // and the obs/replay shadow FIB (rebuilt from RouteChange events, which
    // carry primaries) must agree on this walk (docs/routing-state.md).
    const NodeId nh = node(cur).fib().nextHop(dst);
    if (nh == kInvalidNode) {
      if (blackhole) *blackhole = true;
      return path;
    }
    cur = nh;
  }
}

}  // namespace rcsim
