#pragma once

// Online convergence-anatomy profiling — the paper's loss decomposition
// (detection latency, protocol convergence, transient loops, black-holes,
// per-cause drops) computed *during* the run from the live TraceEvent
// stream, instead of offline from a recorded trace file.
//
// The ConvergenceAnalyzer is a TraceSink on the network's Tracer, after
// the StatsCollector and beside the invariant checker and any recorder (a
// FileTraceSink, the fuzzer's MemoryTraceSink); a recorded trace holds
// every event the analyzer saw, each event in the same order. It keeps
// episodes (triggers, detection, route churn, loop/black-hole windows) and
// no counters: the collector's Tally is the run's one count of packet fates
// and control messages, and the analyzer bills each episode the difference
// between the tally snapshots taken at its trigger and at the next one (or
// at finish()). Its window reconstruction is an independent implementation
// of the one in obs/replay.hpp — the two cross-check each other
// element-wise through replayDivergence (core/experiment.hpp) on every
// golden scenario, in `rcsim-trace --selftest` and on every fuzzer
// execution (RunStatus::AnatomyDivergence), which is what lets either be
// trusted.
//
// Where replay.cpp keeps a dense N x N shadow FIB and re-walks on every
// RouteChange, the analyzer reads the collector's PathWalker
// (obs/path_walk.hpp), which keeps only the receiver's FIB column and
// re-walks only when that column changes — O(N) memory and far fewer
// walks, with identical output.

#include <cstdint>
#include <vector>

#include "core/fields.hpp"
#include "obs/replay.hpp"
#include "obs/trace.hpp"
#include "stats/collector.hpp"

namespace rcsim::obs {

/// One fault-triggered convergence event, decomposed into the paper's
/// phases. An episode opens at a disruption trigger (FaultApply, LinkDown
/// or LinkUp) and closes at the next trigger with a later timestamp (or at
/// end of stream). Triggers sharing one timestamp merge into one episode:
/// a FaultApply that synchronously fails a link, or a partition cutting k
/// links at one instant, is one disruption, not k.
struct ConvergenceEpisode {
  Time start{};                ///< trigger timestamp
  TraceKind trigger{};         ///< first trigger's kind
  int triggerCount = 0;        ///< same-timestamp trigger events merged in

  /// Detection latency endpoint: the first AdjDown *or* RouteChange in the
  /// episode — hello-based detection surfaces as AdjDown, oracle detection
  /// surfaces directly as the adjacent node's route change. infinity() =
  /// the episode produced no detectable reaction.
  Time detectAt = Time::infinity();
  Time firstRouteChangeAt = Time::infinity();
  Time lastRouteChangeAt = Time::infinity();
  std::uint64_t routeChanges = 0;  ///< FIB churn inside the episode

  std::uint64_t controlMessages = 0;  ///< ControlSend events in the episode
  std::uint64_t controlBytes = 0;
  std::uint64_t mraiDeferred = 0;     ///< MraiArm events (BGP update pacing)
  std::uint64_t dvTriggered = 0;      ///< triggered-update flushes

  /// Transient-loop / black-hole windows that *opened* inside this episode
  /// (a window closing in a later episode still belongs to its opener).
  /// Seconds sum closed windows only; an open-at-end window sets the flag.
  int loopWindows = 0;
  double loopSeconds = 0.0;
  bool loopOpenAtEnd = false;
  int blackholeWindows = 0;
  double blackholeSeconds = 0.0;
  bool blackholeOpenAtEnd = false;

  /// Data-plane drops inside the episode, attributed by cause: a TTL
  /// expiry while the traced path loops is a loop drop, any other TTL
  /// expiry is plain TTL; NoRoute is the black-hole signature.
  std::uint64_t dropsLoop = 0;
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;
  std::uint64_t delivered = 0;

  /// fault -> first detectable reaction; -1 when nothing reacted.
  [[nodiscard]] double detectionSec() const {
    return detectAt == Time::infinity() ? -1.0 : (detectAt - start).toSeconds();
  }
  /// first route change -> last route change; -1 when no route changed.
  [[nodiscard]] double convergenceSec() const {
    return firstRouteChangeAt == Time::infinity()
               ? -1.0
               : (lastRouteChangeAt - firstRouteChangeAt).toSeconds();
  }

  friend bool operator==(const ConvergenceEpisode&, const ConvergenceEpisode&) = default;
};

/// Per-run rollup of the episode list plus whole-run control-plane
/// accounting — the plain-data form that rides in RunResult, folds across
/// seeds in the executor (sums in seed order, so serial == pooled holds
/// bit-for-bit) and lands in the artifact's `convergence` block.
/// RunResult carries it as an optional, unpinned field: the golden run
/// digests predate the analyzer, and anatomyDigest pins this struct alone.
struct AnatomySummary {
  std::uint64_t episodes = 0;
  std::uint64_t triggers = 0;
  std::uint64_t detectedEpisodes = 0;   ///< episodes with a finite detectAt
  double detectionSecTotal = 0.0;       ///< sum over detected episodes
  std::uint64_t convergedEpisodes = 0;  ///< episodes with >= 1 RouteChange
  double convergenceSecTotal = 0.0;     ///< sum over converged episodes
  std::uint64_t fibChurn = 0;           ///< RouteChanges inside episodes

  std::uint64_t loopWindows = 0;  ///< whole run, episode-bound or not
  double loopSeconds = 0.0;       ///< closed windows only
  std::uint64_t blackholeWindows = 0;
  double blackholeSeconds = 0.0;

  std::uint64_t dropsLoop = 0;  ///< whole-run data-plane attribution
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;
  std::uint64_t delivered = 0;

  std::uint64_t controlMessages = 0;  ///< whole-run control accounting
  std::uint64_t controlBytes = 0;
  std::uint64_t helloMessages = 0;
  std::uint64_t helloBytes = 0;
  std::uint64_t dvTriggered = 0;
  std::uint64_t dvPeriodic = 0;
  std::uint64_t mraiArmed = 0;
  std::uint64_t mraiFired = 0;

  AnatomySummary& operator+=(const AnatomySummary& rhs);

  friend bool operator==(const AnatomySummary&, const AnatomySummary&) = default;
};

/// AnatomySummary's field table (core/fields.hpp): anatomyFingerprint, the
/// artifact's `convergence` block and operator+= all follow it.
template <FieldsOf<AnatomySummary> S, class V>
void forEachField(S& s, V&& v) {
  v("episodes", s.episodes, kFingerprinted);
  v("triggers", s.triggers, kFingerprinted);
  v("detectedEpisodes", s.detectedEpisodes, kFingerprinted);
  v("detectionSecTotal", s.detectionSecTotal, kFingerprinted);
  v("convergedEpisodes", s.convergedEpisodes, kFingerprinted);
  v("convergenceSecTotal", s.convergenceSecTotal, kFingerprinted);
  v("fibChurn", s.fibChurn, kFingerprinted);
  v("loopWindows", s.loopWindows, kFingerprinted);
  v("loopSeconds", s.loopSeconds, kFingerprinted);
  v("blackholeWindows", s.blackholeWindows, kFingerprinted);
  v("blackholeSeconds", s.blackholeSeconds, kFingerprinted);
  v("dropsLoop", s.dropsLoop, kFingerprinted);
  v("dropsBlackhole", s.dropsBlackhole, kFingerprinted);
  v("dropsTtl", s.dropsTtl, kFingerprinted);
  v("dropsQueue", s.dropsQueue, kFingerprinted);
  v("dropsOther", s.dropsOther, kFingerprinted);
  v("delivered", s.delivered, kFingerprinted);
  v("controlMessages", s.controlMessages, kFingerprinted);
  v("controlBytes", s.controlBytes, kFingerprinted);
  v("helloMessages", s.helloMessages, kFingerprinted);
  v("helloBytes", s.helloBytes, kFingerprinted);
  v("dvTriggered", s.dvTriggered, kFingerprinted);
  v("dvPeriodic", s.dvPeriodic, kFingerprinted);
  v("mraiArmed", s.mraiArmed, kFingerprinted);
  v("mraiFired", s.mraiFired, kFingerprinted);
}

/// Everything the analyzer reconstructs. pathEvents / windows / kindCounts
/// / delivered / dropped carry the exact types and semantics of
/// ReplayResult, so the cross-check against replayTrace is a field-wise
/// compare — no translation layer to hide a divergence in.
struct AnatomyReport {
  std::vector<ConvergenceEpisode> episodes;

  std::vector<ReplayPathEvent> pathEvents;
  std::vector<ReplayWindow> loopWindows;
  std::vector<ReplayWindow> blackholeWindows;
  KindCounts kindCounts{};
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;  ///< data packets only (Drop with z==1)

  /// Whole-run data-plane drop attribution (see ConvergenceEpisode).
  std::uint64_t dropsLoop = 0;
  std::uint64_t dropsBlackhole = 0;
  std::uint64_t dropsTtl = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t dropsOther = 0;

  /// Whole-run control-plane accounting, also kept per node so
  /// `rcsim-trace --episodes` can rank talkers. Per-node vectors are empty
  /// when the node count is unknown (walk-less traces).
  std::uint64_t controlMessages = 0;
  std::uint64_t controlBytes = 0;
  std::uint64_t helloMessages = 0;
  std::uint64_t helloBytes = 0;
  std::uint64_t dvTriggered = 0;
  std::uint64_t dvPeriodic = 0;
  std::uint64_t mraiArmed = 0;
  std::uint64_t mraiFired = 0;
  std::vector<std::uint64_t> perNodeControlMessages;
  std::vector<std::uint64_t> perNodeControlBytes;

  [[nodiscard]] AnatomySummary summary() const;
};

/// Streaming convergence-anatomy profiler. Attach it to a Tracer after
/// the StatsCollector it reads, call finish() once at end of stream, read
/// report().
class ConvergenceAnalyzer : public TraceSink {
 public:
  /// Cut `tally`'s counts into episodes and fold its walker's path events
  /// into windows. `tally` sits ahead of this analyzer on `tracer`, so it
  /// has counted each event, and walked each RouteChange, before this
  /// analyzer sees it. The tracer hands this analyzer only its kKinds, so
  /// finish() takes report().kindCounts from the tracer's count of every
  /// event it emitted.
  ConvergenceAnalyzer(const StatsCollector& tally, const Tracer& tracer);

  /// The kinds onTraceEvent() consumes: episode triggers, detection and
  /// route events. Packet fates and control-plane activity reach the
  /// report through the tally, so a run that records nothing never builds
  /// any other kind for the analyzer's sake; report().kindCounts counts
  /// whatever the Tracer emitted, which with a recorder attached is the
  /// full stream.
  static constexpr std::uint32_t kKinds =
      kindBit(TraceKind::FaultApply) | kindBit(TraceKind::LinkDown) |
      kindBit(TraceKind::LinkUp) | kindBit(TraceKind::AdjDown) |
      kindBit(TraceKind::RouteChange);
  [[nodiscard]] std::uint32_t kinds() const override { return kKinds; }

  void onTraceEvent(const TraceEvent& ev) override;

  /// Close the open episode/windows and bill the episodes and the whole
  /// run from the tally. Idempotent; call after the last event.
  void finish();
  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] const AnatomyReport& report() const { return report_; }

 private:
  void openEpisode(const TraceEvent& ev);
  static constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

  /// Incremental window fold (mirrors replay.cpp's post-hoc windows()) for
  /// one condition: open state plus the index of the episode the open
  /// window belongs to.
  struct OpenWindow {
    bool open = false;
    std::size_t owner = kNoOwner;
  };

  void recordPath(const ReplayPathEvent& e);
  void foldWindow(bool on, Time t, OpenWindow& state, std::vector<ReplayWindow>& windows,
                  int ConvergenceEpisode::*count, double ConvergenceEpisode::*seconds);

  const StatsCollector& tally_;
  const Tracer& tracer_;
  std::size_t pathsSeen_ = 0;  ///< walker events already folded into report_
  bool finished_ = false;

  bool episodeOpen_ = false;
  std::vector<StatsCollector::Tally> marks_;  ///< the tally at each episode's trigger
  OpenWindow loop_;
  OpenWindow blackhole_;

  AnatomyReport report_;
};

/// Offline entry point: run a StatsCollector and the streaming analyzer
/// over a recorded event list; kindCounts counts every event in it. The
/// trace tool's file modes and replayDivergence both go through this, so
/// "a query on a recorded trace" and "the live run's analyzer" are the
/// same code over the same events — equal by construction.
[[nodiscard]] AnatomyReport analyzeTrace(const std::vector<TraceEvent>& events,
                                         const ReplayOptions& opt);

}  // namespace rcsim::obs
