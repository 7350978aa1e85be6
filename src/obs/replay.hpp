#pragma once

// Offline reconstruction of a run's forwarding-plane story from its
// rcsim-trace-v1 event stream — no simulator, no Network, just the events.
//
// The replayer is the independent oracle for obs::PathWalker: it applies
// each RouteChange to a full N x N shadow FIB, then re-runs
// Network::fibWalk's algorithm from the traced sender toward the traced
// receiver after *every* change, and appends a path record iff the path
// differs from the previous one. Because the live walk is driven solely
// by route changes and reads nothing but FIB state, the reconstructed
// sequence is bit-identical to StatsCollector::pathWalker().events() from
// the live run (replayDivergence in core/experiment.hpp checks this for
// `rcsim-trace --selftest`, the fuzzer and the golden tests).

#include <array>
#include <cstdint>
#include <vector>

#include "obs/trace_io.hpp"

namespace rcsim::obs {

struct ReplayOptions {
  NodeId src = kInvalidNode;  ///< traced sender (header meta "src")
  NodeId dst = kInvalidNode;  ///< traced receiver (header meta "dst")
  std::size_t nodeCount = 0;  ///< number of nodes (header meta "nodes")
};

/// One distinct forwarding path, stamped with the route change that made it.
struct ReplayPathEvent {
  Time t{};
  std::vector<NodeId> path;
  bool loop = false;
  bool blackhole = false;

  friend bool operator==(const ReplayPathEvent&, const ReplayPathEvent&) = default;
};

/// A contiguous span during which the src→dst path looped / black-holed.
struct ReplayWindow {
  Time begin{};
  Time end{};             ///< meaningful only when !openAtEnd
  bool openAtEnd = false; ///< condition still held at the last path change

  [[nodiscard]] double seconds() const { return openAtEnd ? -1.0 : (end - begin).toSeconds(); }

  friend bool operator==(const ReplayWindow&, const ReplayWindow&) = default;
};

struct ReplayResult {
  std::vector<ReplayPathEvent> pathEvents;
  std::vector<ReplayWindow> loopWindows;
  std::vector<ReplayWindow> blackholeWindows;
  /// Events seen per TraceKind (index = numeric kind value).
  std::array<std::uint64_t, kTraceKindCount> kindCounts{};

  std::uint64_t delivered = 0;  ///< Deliver events (data plane)
  std::uint64_t dropped = 0;    ///< Drop events (data packets only, z==1)
};

/// Populate ReplayOptions from a trace header's meta object (keys "src",
/// "dst", "nodes"). Missing keys leave the defaults; callers can override.
[[nodiscard]] ReplayOptions replayOptionsFromMeta(const JsonValue& meta);

[[nodiscard]] ReplayResult replayTrace(const std::vector<TraceEvent>& events,
                                       const ReplayOptions& opt);

}  // namespace rcsim::obs
