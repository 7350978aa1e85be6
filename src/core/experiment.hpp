#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace rcsim {

/// Everything a single run produces, in plain data form (safe to move
/// across threads, aggregate, and print).
struct RunResult {
  ProtocolKind protocol{};
  int degree = 0;
  std::uint64_t seed = 0;

  std::uint64_t sent = 0;
  PacketCounters data;             ///< whole-run data-plane counters
  PacketCounters dataAfterFailure; ///< convergence-period drops (Figures 3/4)
  PacketCounters control;
  std::uint64_t loopEscapedDeliveries = 0;
  std::uint64_t controlMessages = 0;       ///< routing-load accounting
  std::uint64_t controlBytes = 0;
  std::uint64_t controlMessagesAfterFailure = 0;
  std::uint64_t tcpGoodputPackets = 0;     ///< TrafficKind::Tcp only
  std::uint64_t tcpRetransmissions = 0;
  /// Reliable-transport health across all protocol sessions (BGP), summed
  /// over live protocols plus any destroyed by injected node crashes.
  std::uint64_t transportRetransmissions = 0;
  std::uint64_t transportSessionResets = 0;

  double routingConvergenceSec = 0.0;    ///< Figure 6b
  double forwardingConvergenceSec = 0.0; ///< Figure 6a
  int transientPaths = 0;
  bool sawLoop = false;
  bool sawBlackhole = false;

  bool preFailurePathShortest = false;
  int preFailurePathHops = 0;
  bool finalPathShortest = false;
  std::uint64_t routeChangesAfterFailure = 0;

  /// Per-second series in absolute simulation seconds (index = second).
  std::vector<double> throughput;
  std::vector<double> meanDelay;
  int failSec = 0;  ///< failure injection second, for time normalization

  std::uint64_t eventsExecuted = 0;

  /// Per-node route-table snapshot digests around the first fault (hex
  /// FNV-1a; see Scenario::captureFibSnapshot). `before` is empty on
  /// fault-free runs. Deliberately NOT part of runResultFingerprint — the
  /// pinned golden digests enumerate fields explicitly and predate these.
  std::string fibDigestBefore;
  std::string fibDigestAfter;

  /// Convergence-anatomy rollup from the streaming analyzer (episodes,
  /// detection/convergence latency, window seconds, per-cause drops,
  /// control-plane accounting). All-zero when cfg.anatomy is off. Like the
  /// FIB digests, deliberately NOT part of runResultFingerprint — it has
  /// its own anatomyFingerprint for the serial == pooled check.
  obs::AnatomySummary anatomy;

  [[nodiscard]] std::uint64_t deliveredTotal() const { return data.delivered; }
  /// Conservation residual: packets unaccounted for at simulation end.
  [[nodiscard]] std::int64_t residual() const {
    return static_cast<std::int64_t>(sent) - static_cast<std::int64_t>(data.delivered) -
           static_cast<std::int64_t>(data.totalDropped());
  }
};

/// Build, run and squeeze one scenario into a RunResult.
[[nodiscard]] RunResult runScenario(const ScenarioConfig& cfg);

/// Squeeze an already-run Scenario into a RunResult. Split out of
/// runScenario for harnesses (the fuzzer) that own the Scenario instance
/// — to attach trace sinks or watchdogs around run() — but still want the
/// canonical summary that digests and sweeps are built on.
[[nodiscard]] RunResult summarizeRun(Scenario& scenario);

/// The live-vs-replay cross-check for a run that has finished and whose
/// full trace stream `trace` was recorded beside the scenario's own sinks.
/// Returns the name of the first field that disagrees, or "" when all do:
///   replayThrew      the replay or the offline analyzer rejected the stream
///   pathEvents, loopWindows, blackholeWindows, kindCounts, planeCounters
///                    the live analyzer against obs::replayTrace
///   walkerEvents     the stats walker's path events against the replay
///   walkerPath       the walker's final path against Network::fibWalk
///   episodes, perNodeControl, anatomyDigest
///                    the live analyzer against obs::analyzeTrace of `trace`
/// The analyzer's checks are skipped when the scenario runs without one.
[[nodiscard]] std::string replayDivergence(Scenario& scenario,
                                           const std::vector<obs::TraceEvent>& trace);

/// The canonical Internet-scale scenario: a 100x100 degree-4 mesh (10,000
/// nodes) brought to full convergence through one on-path link failure.
/// Shared by the perf gate's mesh100x100_converge row and the pinned
/// determinism digest in test_perf_gate.cpp, so the number being gated is
/// exactly the run whose digest is pinned. The DV knobs depart from the
/// paper's 7x7 defaults out of necessity: infinity must exceed the 198-hop
/// diameter, near-whole-table messages keep the event count at batch scale,
/// and the compressed timeline ends the run right after reconvergence.
[[nodiscard]] ScenarioConfig largeMeshConfig();

}  // namespace rcsim
