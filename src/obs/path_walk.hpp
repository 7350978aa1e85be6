#pragma once

// The sender→receiver forwarding-path walk, driven by route changes alone.
//
// The walk follows primary next hops from src toward dst, and so only ever
// reads the dst column of the network's FIB. PathWalker keeps that column
// as a shadow, updated from (node, dst, newNh) route changes, and re-walks
// only when the column changes: a walk after any other change reproduces
// the previous path, which the dedup would discard anyway. The one
// exception is the very first route change, which always records a path
// (the dedup list is still empty), so it always walks.
//
// Every analysis has exactly one, owned and fed by the StatsCollector; the
// ConvergenceAnalyzer reads it, live and in analyzeTrace alike. The
// independent oracle is obs/replay.cpp, which re-walks a full shadow FIB
// on every change; tests pin the two element-wise equal, and pin the live
// walker to Network::fibWalk at every route change.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/replay.hpp"

namespace rcsim::obs {

class PathWalker {
 public:
  /// An unusable triple (an endpoint invalid or outside 0..nodeCount-1)
  /// disables the walk: route changes are then ignored and nothing is
  /// recorded, like replayTrace with the same options.
  PathWalker(NodeId src, NodeId dst, std::size_t nodeCount);

  [[nodiscard]] bool walkable() const { return walkable_; }

  /// Apply one route change. Returns the path event it recorded, or null
  /// when the path did not change. Throws std::runtime_error when a
  /// walkable walker sees a node, or a next hop other than kInvalidNode,
  /// outside 0..nodeCount-1 (a corrupt trace).
  const ReplayPathEvent* onRouteChange(Time t, NodeId node, NodeId dst, NodeId newNh);

  /// Every distinct path in order, each stamped with the change that made it.
  [[nodiscard]] const std::vector<ReplayPathEvent>& events() const { return events_; }
  /// The path as of the last route change (empty before the first).
  [[nodiscard]] const std::vector<NodeId>& currentPath() const;

 private:
  const ReplayPathEvent* walk(Time t);

  NodeId src_;
  NodeId dst_;
  std::size_t nodeCount_;
  bool walkable_;
  /// nextHopToDst_[n] is n's primary next hop toward dst_.
  std::vector<NodeId> nextHopToDst_;
  /// Epoch-stamped visited marks and a reused path buffer, so a walk
  /// allocates nothing unless it records.
  std::vector<std::uint64_t> visitedEpoch_;
  std::uint64_t epoch_ = 0;
  std::vector<NodeId> walkBuf_;
  std::vector<ReplayPathEvent> events_;
};

}  // namespace rcsim::obs
