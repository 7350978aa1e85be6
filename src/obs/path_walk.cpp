#include "obs/path_walk.hpp"

#include <stdexcept>

namespace rcsim::obs {

PathWalker::PathWalker(NodeId src, NodeId dst, std::size_t nodeCount)
    : src_{src}, dst_{dst}, nodeCount_{nodeCount} {
  walkable_ = nodeCount > 0 && src != kInvalidNode && dst != kInvalidNode &&
              static_cast<std::size_t>(src) < nodeCount &&
              static_cast<std::size_t>(dst) < nodeCount;
  if (walkable_) {
    nextHopToDst_.assign(nodeCount, kInvalidNode);
    visitedEpoch_.assign(nodeCount, 0);
  }
}

const std::vector<NodeId>& PathWalker::currentPath() const {
  static const std::vector<NodeId> kEmpty{};
  return events_.empty() ? kEmpty : events_.back().path;
}

const ReplayPathEvent* PathWalker::onRouteChange(Time t, NodeId node, NodeId dst, NodeId newNh) {
  if (!walkable_) return nullptr;
  if (static_cast<std::size_t>(node) >= nodeCount_ || static_cast<std::size_t>(dst) >= nodeCount_ ||
      (newNh != kInvalidNode && static_cast<std::size_t>(newNh) >= nodeCount_)) {
    // Same contract (and text) as replayTrace.
    throw std::runtime_error("trace replay: RouteChange references a node outside 0..N-1");
  }
  if (dst == dst_) {
    nextHopToDst_[static_cast<std::size_t>(node)] = newNh;
    return walk(t);
  }
  return events_.empty() ? walk(t) : nullptr;
}

const ReplayPathEvent* PathWalker::walk(Time t) {
  // Network::fibWalk's algorithm over the shadow column.
  ++epoch_;
  walkBuf_.clear();
  bool loop = false;
  bool blackhole = false;
  NodeId cur = src_;
  while (true) {
    walkBuf_.push_back(cur);
    if (cur == dst_) break;
    if (visitedEpoch_[static_cast<std::size_t>(cur)] == epoch_) {
      loop = true;
      break;
    }
    visitedEpoch_[static_cast<std::size_t>(cur)] = epoch_;
    const NodeId nh = nextHopToDst_[static_cast<std::size_t>(cur)];
    if (nh == kInvalidNode) {
      blackhole = true;
      break;
    }
    cur = nh;
  }
  if (!events_.empty() && events_.back().path == walkBuf_) return nullptr;
  events_.push_back(ReplayPathEvent{t, walkBuf_, loop, blackhole});
  return &events_.back();
}

}  // namespace rcsim::obs
