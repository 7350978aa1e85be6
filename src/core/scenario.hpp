#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "net/detector.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/anatomy.hpp"
#include "routing/factory.hpp"
#include "sim/scheduler.hpp"
#include "stats/collector.hpp"
#include "topo/topology.hpp"
#include "traffic/cbr.hpp"
#include "traffic/tcp_flow.hpp"

namespace rcsim {

/// Traffic model per flow: the paper's CBR workload, or the future-work
/// extension — a window-based reliable transfer riding the data plane.
enum class TrafficKind { Cbr, Tcp };

/// Which topology family the scenario builds: the paper's regular mesh,
/// a matched-degree random graph, an rcsim-topo-v1 edge-list file, one of
/// the embedded named real-world graphs (topo/loader.hpp), or an explicit
/// inline edge list carried in the config itself.
enum class TopologyKind { RegularMesh, Random, File, Named, Inline };

/// Topology file selection, used when topology == File.
struct FileTopoSpec {
  std::string path;  ///< rcsim-topo-v1 edge-list file
};

/// Embedded named-graph selection, used when topology == Named.
struct NamedTopoSpec {
  std::string graph = "abilene";  ///< see namedTopologyNames()
};

/// Explicit edge list carried inside the config (topology == Inline), so a
/// scenario is fully self-contained — no file on disk, no generator seed.
/// This is what the fuzzer's minimizer emits: it freezes whatever family a
/// finding used into concrete edges and then deletes nodes/edges one at a
/// time (src/fuzz/minimize.hpp). Round-trips through the `inline.nodes` /
/// `inline.edges` options.
struct InlineTopoSpec {
  int nodes = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;  ///< canonical a < b order

  bool operator==(const InlineTopoSpec&) const = default;
};

/// Full description of one simulation run of the paper's experiment:
/// a regular mesh, one routing protocol everywhere, one or more flows
/// attached between the first/last row, and one or more link failures on
/// forwarding paths. Defaults follow the paper's timeline (§5): warm-up,
/// traffic from t=390 s, failure at t=400 s, simulation until t=800 s.
struct ScenarioConfig {
  ProtocolKind protocol = ProtocolKind::Dbf;
  TopologyKind topology = TopologyKind::RegularMesh;
  MeshSpec mesh{7, 7, 4};          ///< used when topology == RegularMesh
  RandomGraphSpec random{};        ///< used when topology == Random (seed is overridden by `seed`)
  FileTopoSpec file{};             ///< used when topology == File
  NamedTopoSpec named{};           ///< used when topology == Named
  InlineTopoSpec inlineTopo{};     ///< used when topology == Inline
  LinkConfig link{};
  /// Hello-based failure detection (net/detector.hpp). Off by default: the
  /// paper's model — and every pinned golden digest — uses the oracle
  /// detection path (link detectDelay). When enabled, adjacency loss is
  /// discovered by missed hellos instead.
  HelloConfig hello{};
  std::uint64_t seed = 1;

  // Traffic. The paper uses a single CBR pair; `flows` > 1 and
  // TrafficKind::Tcp exercise the paper's §6 future-work extensions.
  TrafficKind traffic = TrafficKind::Cbr;
  int flows = 1;
  /// Pin flow 0's endpoints instead of drawing them from the run RNG
  /// (minimized reproducers must not have their endpoints reshuffled by a
  /// topology edit). -1 = draw as usual; both must be set to take effect.
  NodeId pinSrc = kInvalidNode;
  NodeId pinDst = kInvalidNode;
  double packetsPerSecond = 20.0;  ///< per flow (CBR)
  std::uint32_t packetBytes = 1000;
  int ttl = 127;
  int tcpWindow = 8;  ///< window (packets) for TrafficKind::Tcp
  Time trafficStart = Time::seconds(390.0);
  Time trafficStop = Time::seconds(550.0);

  // Failures. The first failure hits flow 0's forwarding path at failAt;
  // each further failure hits the *then-current* path of the next flow
  // (round-robin) `failureSpacing` later — overlapping convergence events,
  // the paper's "multiple failures" extension. These fields are shorthand
  // for `path` events in the fault plan (see effectiveFaultPlan()).
  bool injectFailure = true;
  int failureCount = 1;
  Time failAt = Time::seconds(400.0);
  Time failureSpacing = Time::seconds(5.0);
  /// When finite, each failed link is repaired this long after it failed
  /// (link-flap / repair studies).
  Time repairAfter = Time::infinity();

  Time endAt = Time::seconds(800.0);
  bool tracePackets = true;  ///< Per-packet hop recording (loop forensics).

  /// Equal-cost multipath: let protocols install up to Fib::kMaxNextHops
  /// tied next hops per destination and spread data packets across them
  /// with a deterministic flow hash (docs/routing-state.md). Off by
  /// default — the paper's model forwards on a single best hop, and every
  /// golden digest is pinned with ecmp off.
  bool ecmp = false;

  /// Declarative fault schedule layered on top of (or instead of) the
  /// path-targeted failures above — crashes, partitions, impairments
  /// (fault/plan.hpp). Empty = no faults beyond those.
  fault::FaultPlan faultPlan{};

  /// Attach the runtime invariant checker; violations make run() throw.
  /// Also enabled by the RCSIM_CHECK_INVARIANTS environment variable.
  bool checkInvariants = false;

  /// Streaming convergence-anatomy profiler (obs/anatomy.hpp): one episode
  /// per fault event with detection/convergence latency, FIB churn, loop and
  /// black-hole windows, and per-cause drop attribution, plus control-plane
  /// accounting. Purely observational — it never schedules events or draws
  /// from the RNG, so every pinned digest is identical with it on or off.
  bool anatomy = true;

  ProtocolConfig protoCfg{};

  /// The plan the run executes: when injectFailure is set, failure k
  /// (k < failureCount) becomes `<failAt + k * failureSpacing>:fail:path/<k
  /// mod flows>` with repairAfter as its repair delay, ahead of faultPlan's
  /// own events.
  [[nodiscard]] fault::FaultPlan effectiveFaultPlan() const;

  /// When the first disruption hits: the earliest event of
  /// effectiveFaultPlan(). This is the watermark the convergence/after-
  /// failure statistics measure from (infinity when the run is fault-free).
  [[nodiscard]] Time failureWatermark() const;
};

/// The topology a config builds (the Random family draws from cfg.seed).
/// Throws std::invalid_argument on an invalid inline edge list.
[[nodiscard]] Topology scenarioTopology(const ScenarioConfig& cfg);

/// The wired-up world for one run. Owns the scheduler, network and
/// instrumentation; build with the constructor, then run().
class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);

  /// Execute the whole timeline (including the failure injections).
  void run();

  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] Network& network() { return *net_; }
  [[nodiscard]] StatsCollector& stats() { return *stats_; }
  /// Runs effectiveFaultPlan(), the path failures included (their cut
  /// links and pre-failure path stats live there); present in every scenario.
  [[nodiscard]] fault::FaultInjector* faultInjector() { return injector_.get(); }
  /// Null unless invariant checking is enabled.
  [[nodiscard]] fault::InvariantChecker* invariantChecker() { return checker_.get(); }
  /// Null unless hello-based failure detection is enabled.
  [[nodiscard]] HelloDetector* helloDetector() { return detector_.get(); }

  /// Null unless cfg.anatomy is on (the default).
  [[nodiscard]] obs::ConvergenceAnalyzer* convergenceAnalyzer() { return anatomy_.get(); }
  [[nodiscard]] const obs::ConvergenceAnalyzer* convergenceAnalyzer() const {
    return anatomy_.get();
  }

  /// Attach an external trace sink (a recorder, a printer) behind the
  /// scenario's own sinks, replacing any earlier one; nullptr detaches it.
  /// A sink asking for every kind (the default) widens the emitted stream
  /// to all of it, for the analyzer as well, so a recorded trace and the
  /// analyzer's kindCounts agree with an offline replay.
  void attachTraceSink(obs::TraceSink* sink) {
    if (externalSink_ != nullptr) net_->trace().removeSink(externalSink_);
    externalSink_ = sink;
    if (sink != nullptr) net_->trace().addSink(sink);
  }

  /// Per-node route-table digests around the first fault (docs/
  /// failure-detection.md). `before` is captured synchronously at the
  /// instant the first fault-plan event fires; `after` at end of run.
  /// Empty until captured — fault-free runs only ever fill `after`.
  [[nodiscard]] const std::string& fibDigestBefore() const { return fibDigestBefore_; }
  [[nodiscard]] const std::string& fibDigestAfter() const { return fibDigestAfter_; }

  /// FNV-1a digest over every node's full FIB (primary next hops), hex
  /// encoded — a cheap stand-in for dumping all route tables.
  [[nodiscard]] std::string captureFibSnapshot() const;

  struct Flow {
    NodeId sender = kInvalidNode;
    NodeId receiver = kInvalidNode;
    std::unique_ptr<CbrSource> cbr;   ///< set when traffic == Cbr
    std::unique_ptr<TcpFlow> tcp;     ///< set when traffic == Tcp
  };
  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }

  /// Primary (flow 0) endpoints — what the figures measure.
  [[nodiscard]] NodeId sender() const { return flows_[0].sender; }
  [[nodiscard]] NodeId receiver() const { return flows_[0].receiver; }
  /// The traced flow and node count, as an offline replay of this run's
  /// trace needs them (the same triple a recorded file's meta carries).
  [[nodiscard]] obs::ReplayOptions replayOptions() const {
    return {sender(), receiver(), net_->nodeCount()};
  }

  /// Total data packets originated across all flows.
  [[nodiscard]] std::uint64_t packetsSent() const;

 private:
  ScenarioConfig cfg_;
  Rng rng_;
  Scheduler sched_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<StatsCollector> stats_;
  std::unique_ptr<fault::InvariantChecker> checker_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<HelloDetector> detector_;
  std::unique_ptr<obs::ConvergenceAnalyzer> anatomy_;
  obs::TraceSink* externalSink_ = nullptr;
  std::vector<Flow> flows_;
  std::string fibDigestBefore_;
  std::string fibDigestAfter_;
};

}  // namespace rcsim
