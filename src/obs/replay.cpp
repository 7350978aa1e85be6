#include "obs/replay.hpp"

#include <stdexcept>

namespace rcsim::obs {

namespace {

/// The fibWalk algorithm from Network::fibWalk, verbatim, against the
/// shadow FIB. Any divergence here breaks the replay == live guarantee.
/// Like fibWalk, this follows *primary* next hops only: RouteChange trace
/// events carry the primary, and the canonical path is defined over
/// primaries even when ECMP spreads data packets across alternates.
std::vector<NodeId> shadowWalk(const std::vector<std::vector<NodeId>>& fib, NodeId src, NodeId dst,
                               bool* loop, bool* blackhole) {
  *loop = false;
  *blackhole = false;
  std::vector<NodeId> path;
  std::vector<char> visited(fib.size(), 0);
  NodeId cur = src;
  while (true) {
    path.push_back(cur);
    if (cur == dst) return path;
    if (visited[static_cast<std::size_t>(cur)]) {
      *loop = true;
      return path;
    }
    visited[static_cast<std::size_t>(cur)] = 1;
    const NodeId nh = fib[static_cast<std::size_t>(cur)][static_cast<std::size_t>(dst)];
    if (nh == kInvalidNode) {
      *blackhole = true;
      return path;
    }
    cur = nh;
  }
}

/// Fold the path sequence into contiguous true-spans of `flag`.
std::vector<ReplayWindow> windows(const std::vector<ReplayPathEvent>& events,
                                  bool ReplayPathEvent::*flag) {
  std::vector<ReplayWindow> out;
  bool open = false;
  for (const auto& e : events) {
    if (e.*flag && !open) {
      out.push_back(ReplayWindow{e.t, e.t, true});
      open = true;
    } else if (!(e.*flag) && open) {
      out.back().end = e.t;
      out.back().openAtEnd = false;
      open = false;
    }
  }
  return out;
}

}  // namespace

ReplayOptions replayOptionsFromMeta(const JsonValue& meta) {
  ReplayOptions opt;
  if (meta.has("src")) opt.src = static_cast<NodeId>(meta.numberAt("src"));
  if (meta.has("dst")) opt.dst = static_cast<NodeId>(meta.numberAt("dst"));
  if (meta.has("nodes")) opt.nodeCount = static_cast<std::size_t>(meta.numberAt("nodes"));
  return opt;
}

ReplayResult replayTrace(const std::vector<TraceEvent>& events, const ReplayOptions& opt) {
  const bool walkable = opt.nodeCount > 0 && opt.src != kInvalidNode && opt.dst != kInvalidNode &&
                        static_cast<std::size_t>(opt.src) < opt.nodeCount &&
                        static_cast<std::size_t>(opt.dst) < opt.nodeCount;

  ReplayResult out;
  std::vector<std::vector<NodeId>> fib;
  if (walkable) {
    fib.assign(opt.nodeCount, std::vector<NodeId>(opt.nodeCount, kInvalidNode));
  }

  for (const auto& ev : events) {
    ++out.kindCounts[static_cast<std::size_t>(ev.kind)];

    switch (ev.kind) {
      case TraceKind::RouteChange: {
        if (!walkable) break;
        const auto node = static_cast<std::size_t>(ev.a);
        const auto dst = static_cast<std::size_t>(ev.x);
        if (node >= opt.nodeCount || dst >= opt.nodeCount) {
          throw std::runtime_error("trace replay: RouteChange references a node outside 0..N-1");
        }
        fib[node][dst] = static_cast<NodeId>(ev.z);
        bool loop = false;
        bool blackhole = false;
        auto path = shadowWalk(fib, opt.src, opt.dst, &loop, &blackhole);
        // Record only a *changed* path.
        if (out.pathEvents.empty() || out.pathEvents.back().path != path) {
          out.pathEvents.push_back(ReplayPathEvent{ev.t, std::move(path), loop, blackhole});
        }
        break;
      }
      case TraceKind::Deliver: ++out.delivered; break;
      case TraceKind::Drop:
        if (ev.z == 1) ++out.dropped;  // data packets only; z flags the plane
        break;
      default: break;
    }
  }

  out.loopWindows = windows(out.pathEvents, &ReplayPathEvent::loop);
  out.blackholeWindows = windows(out.pathEvents, &ReplayPathEvent::blackhole);
  return out;
}

}  // namespace rcsim::obs
