#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "core/digest.hpp"
#include "topo/loader.hpp"

namespace rcsim {
namespace {

bool envInvariantsEnabled() {
  const char* v = std::getenv("RCSIM_CHECK_INVARIANTS");
  return v != nullptr && *v != '\0' && *v != '0';
}

}  // namespace

Topology scenarioTopology(const ScenarioConfig& cfg) {
  Topology topo;
  switch (cfg.topology) {
    case TopologyKind::RegularMesh:
      topo = makeRegularMesh(cfg.mesh);
      break;
    case TopologyKind::File:
      topo = loadTopologyFile(cfg.file.path).topo;
      break;
    case TopologyKind::Named:
      topo = namedTopology(cfg.named.graph).topo;
      break;
    case TopologyKind::Random: {
      RandomGraphSpec rnd = cfg.random;
      rnd.seed = cfg.seed;  // one seed drives the whole run
      topo = makeRandomTopology(rnd);
      break;
    }
    case TopologyKind::Inline:
      topo.nodeCount = cfg.inlineTopo.nodes;
      topo.edges = cfg.inlineTopo.edges;
      topo.normalize();  // validates ids, self-loops, duplicates
      break;
  }
  return topo;
}

fault::FaultPlan ScenarioConfig::effectiveFaultPlan() const {
  fault::FaultPlan plan;
  if (injectFailure) {
    for (int k = 0; k < failureCount; ++k) {
      fault::FaultEvent ev;
      ev.at = failAt + failureSpacing * k;
      ev.pathFlow = k % std::max(flows, 1);
      ev.repair = repairAfter;
      plan.events.push_back(ev);
    }
  }
  plan.events.insert(plan.events.end(), faultPlan.events.begin(), faultPlan.events.end());
  return plan;
}

Time ScenarioConfig::failureWatermark() const {
  Time w = Time::infinity();
  for (const auto& ev : effectiveFaultPlan().events) w = std::min(w, ev.at);
  return w;
}

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_{cfg}, rng_{cfg.seed} {
  if (cfg_.flows < 1) throw std::invalid_argument("scenario needs at least one flow");
  if (cfg_.injectFailure && cfg_.failureCount < 1) {
    throw std::invalid_argument("injectFailure requires failureCount >= 1");
  }

  const Topology topo = scenarioTopology(cfg_);
  // A flow needs two distinct endpoints; with fewer nodes the endpoint
  // draw below would call uniformInt with an empty range (UB). Inline
  // topologies (hand-written or minimizer-shrunk) can legitimately get
  // this small, so reject them with a diagnosis instead.
  if (topo.nodeCount < 2) {
    throw std::invalid_argument("scenario topology needs at least two nodes");
  }
  net_ = std::make_unique<Network>(sched_, rng_.fork());

  for (int i = 0; i < topo.nodeCount; ++i) net_->addNode();
  for (const auto& [a, b] : topo.edges) net_->addLink(a, b, cfg_.link);

  // The paper attaches the sender/receiver hosts to a randomly chosen
  // router on the first/last row; the attached router advertises the host
  // as directly connected, so routing-wise the host is an alias of its
  // router. We therefore source/sink traffic at the routers themselves
  // (DESIGN.md §4), keeping metric distances equal to router distances.
  const bool pinned = cfg_.pinSrc != kInvalidNode && cfg_.pinDst != kInvalidNode;
  if (pinned && (cfg_.pinSrc >= topo.nodeCount || cfg_.pinDst >= topo.nodeCount ||
                 cfg_.pinSrc == cfg_.pinDst)) {
    throw std::invalid_argument("pinned flow endpoints must be distinct nodes in range");
  }
  flows_.resize(static_cast<std::size_t>(cfg_.flows));
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    auto& flow = flows_[f];
    if (pinned && f == 0) {
      // Pinned endpoints bypass the RNG draw entirely, so a reproducer's
      // flow 0 survives topology edits that would reshuffle random picks.
      flow.sender = cfg_.pinSrc;
      flow.receiver = cfg_.pinDst;
    } else if (cfg_.topology == TopologyKind::RegularMesh) {
      flow.sender = gridId(0, static_cast<int>(rng_.uniformInt(0, cfg_.mesh.cols - 1)),
                           cfg_.mesh.cols);
      flow.receiver = gridId(cfg_.mesh.rows - 1,
                             static_cast<int>(rng_.uniformInt(0, cfg_.mesh.cols - 1)),
                             cfg_.mesh.cols);
    } else {
      // Random graph or loaded real-world topology: any two distinct nodes.
      flow.sender = static_cast<NodeId>(rng_.uniformInt(0, topo.nodeCount - 1));
      do {
        flow.receiver = static_cast<NodeId>(rng_.uniformInt(0, topo.nodeCount - 1));
      } while (flow.receiver == flow.sender);
    }
  }

  net_->finalize(cfg_.ecmp);

  for (NodeId id = 0; id < static_cast<NodeId>(net_->nodeCount()); ++id) {
    Node& node = net_->node(id);
    node.setProtocol(makeProtocol(cfg_.protocol, node, cfg_.protoCfg));
  }

  // Hello-based failure detection: once registered, the oracle detection
  // path inside Link::fail/recover stands down and adjacency loss is
  // discovered by missed hellos (net/detector.hpp).
  if (cfg_.hello.enabled) {
    detector_ = std::make_unique<HelloDetector>(*net_, cfg_.hello);
    net_->setDetector(detector_.get());
  }

  // Instrumentation watches flow 0 (the paper's single pair). Every
  // observer is a sink on the network's tracer, attached in a fixed order:
  // stats first, because it feeds the run's one live PathWalker, which the
  // anatomy analyzer reads; then the analyzer; then the invariant checker
  // (opt-in: config flag or env var); external sinks come last.
  stats_ = std::make_unique<StatsCollector>(
      *net_, StatsCollector::Config{flows_[0].sender, flows_[0].receiver});
  stats_->setFailureWatermark(cfg_.failureWatermark());
  net_->trace().addSink(stats_.get());
  // Streaming convergence anatomy: observe-only, so every digest is the
  // same with it on or off.
  if (cfg_.anatomy) {
    anatomy_ = std::make_unique<obs::ConvergenceAnalyzer>(net_->nodeCount(),
                                                          stats_->pathWalker());
    net_->trace().addSink(anatomy_.get());
  }
  if (cfg_.checkInvariants || envInvariantsEnabled()) {
    checker_ = std::make_unique<fault::InvariantChecker>(*net_);
    net_->trace().addSink(checker_.get());
  }

  // Every fault, the paper's path failures included, runs through one
  // injector. The factory lets it rebuild a crashed node's protocol without
  // knowing which protocol the run uses; path failures draw their link
  // from the run RNG.
  std::vector<fault::FaultInjector::Flow> ends;
  for (const auto& flow : flows_) ends.push_back({flow.sender, flow.receiver});
  injector_ = std::make_unique<fault::FaultInjector>(
      *net_, cfg_.effectiveFaultPlan(),
      [this](Node& node) { return makeProtocol(cfg_.protocol, node, cfg_.protoCfg); },
      std::move(ends), rng_, cfg_.seed);
  // Route-table snapshot just before the first plan event fires. The
  // callback is synchronous (no scheduler event), so event counts — and
  // with them every pinned digest — stay untouched.
  injector_->setOnFirstFault([this] { fibDigestBefore_ = captureFibSnapshot(); });

  std::int32_t flowId = 0;
  for (auto& flow : flows_) {
    if (cfg_.traffic == TrafficKind::Cbr) {
      CbrSource::Config src;
      src.src = flow.sender;
      src.dst = flow.receiver;
      src.packetsPerSecond = cfg_.packetsPerSecond;
      src.packetBytes = cfg_.packetBytes;
      src.ttl = cfg_.ttl;
      src.start = cfg_.trafficStart;
      src.stop = cfg_.trafficStop;
      src.tracePackets = cfg_.tracePackets;
      flow.cbr = std::make_unique<CbrSource>(*net_, src);
    } else {
      TcpFlow::Config src;
      src.flowId = flowId;
      src.src = flow.sender;
      src.dst = flow.receiver;
      src.window = cfg_.tcpWindow;
      src.packetBytes = cfg_.packetBytes;
      src.ttl = cfg_.ttl;
      src.start = cfg_.trafficStart;
      src.stop = cfg_.trafficStop;
      src.tracePackets = cfg_.tracePackets;
      flow.tcp = std::make_unique<TcpFlow>(*net_, src);
    }
    ++flowId;
  }
}

std::uint64_t Scenario::packetsSent() const {
  std::uint64_t sent = 0;
  for (const auto& flow : flows_) {
    if (flow.cbr) sent += flow.cbr->packetsSent();
    if (flow.tcp) sent += flow.tcp->uniquePacketsSent();
  }
  return sent;
}

void Scenario::run() {
  net_->startProtocols();
  if (detector_) detector_->start();
  for (auto& flow : flows_) {
    if (flow.cbr) flow.cbr->install();
    if (flow.tcp) flow.tcp->install();
  }
  injector_->install();
  sched_.run(cfg_.endAt);
  fibDigestAfter_ = captureFibSnapshot();
  net_->trace().emit(sched_.now(), obs::TraceKind::SimSummary, kInvalidNode, kInvalidNode,
                     static_cast<std::int64_t>(sched_.executedEvents()),
                     static_cast<std::int64_t>(sched_.scheduledEvents()),
                     static_cast<std::int64_t>(sched_.poolCapacity()));
  if (anatomy_) anatomy_->finish();
  if (checker_) {
    checker_->finalCheck(sched_.now());
    if (!checker_->clean()) {
      // Violations are simulator bugs, not scenario outcomes: fail loudly
      // so a sweep records the cell as failed instead of a silent bad row.
      throw std::runtime_error("invariant check failed:\n" + checker_->summary());
    }
  }
}

std::string Scenario::captureFibSnapshot() const {
  // FNV-1a over (node, dst, nextHop) triples in dense scan order. Only
  // installed routes contribute, so the digest is insensitive to node count
  // padding but pins every primary next hop in the network.
  Fnv1a h;
  const auto n = static_cast<NodeId>(net_->nodeCount());
  for (NodeId id = 0; id < n; ++id) {
    const auto& fib = net_->node(id).fib();
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == id) continue;
      const NodeId nh = fib.nextHop(dst);
      if (nh == kInvalidNode) continue;
      h.addWord((static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) << 40) ^
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 20) ^
                static_cast<std::uint64_t>(static_cast<std::uint32_t>(nh)));
    }
  }
  return h.hex();
}

}  // namespace rcsim
