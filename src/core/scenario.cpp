#include "core/scenario.hpp"

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

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_{cfg}, rng_{cfg.seed} {
  if (cfg_.flows < 1) throw std::invalid_argument("scenario needs at least one flow");
  if (cfg_.injectFailure && cfg_.failureCount < 1) {
    throw std::invalid_argument("injectFailure requires failureCount >= 1");
  }

  Topology topo;
  switch (cfg_.topology) {
    case TopologyKind::RegularMesh:
      topo = makeRegularMesh(cfg_.mesh);
      break;
    case TopologyKind::File:
      topo = loadTopologyFile(cfg_.file.path).topo;
      break;
    case TopologyKind::Named:
      topo = namedTopology(cfg_.named.graph).topo;
      break;
    case TopologyKind::Random: {
      RandomGraphSpec rnd = cfg_.random;
      rnd.seed = cfg_.seed;  // one seed drives the whole run
      topo = makeRandomTopology(rnd);
      break;
    }
    case TopologyKind::Inline:
      topo.nodeCount = cfg_.inlineTopo.nodes;
      topo.edges = cfg_.inlineTopo.edges;
      topo.normalize();  // validates ids, self-loops, duplicates
      break;
  }
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

  // Declarative fault schedule. The factory lets the injector rebuild a
  // crashed node's protocol without knowing which protocol the run uses;
  // the plan's `dst` token names flow 0's receiver.
  if (!cfg_.faultPlan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        *net_, cfg_.faultPlan,
        [this](Node& node) { return makeProtocol(cfg_.protocol, node, cfg_.protoCfg); },
        flows_[0].receiver, cfg_.seed);
    // Route-table snapshot just before the first plan event fires. The
    // callback is synchronous (no scheduler event), so event counts — and
    // with them every pinned digest — stay untouched.
    injector_->setOnFirstFault([this] {
      if (fibDigestBefore_.empty()) fibDigestBefore_ = captureFibSnapshot();
    });
  }

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
  if (cfg_.injectFailure) {
    for (int k = 0; k < cfg_.failureCount; ++k) {
      sched_.scheduleAt(cfg_.failAt + cfg_.failureSpacing * k, EventKind::Fault,
                        [this, k] { injectFailure(k); });
    }
  }
  if (injector_) injector_->install();
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

Link* Scenario::pickLinkOnPath(NodeId src, NodeId dst) {
  bool loop = false;
  bool blackhole = false;
  std::vector<NodeId> path = net_->fibWalk(src, dst, &loop, &blackhole);
  if (loop || blackhole || path.size() < 2) {
    // Degenerate (mid-convergence) state; fall back to the true shortest
    // live path, if any.
    path = net_->shortestPathLive(src, dst);
  }
  if (path.size() < 2) return nullptr;
  // Avoid re-failing a dead hop: collect live links along the path.
  std::vector<Link*> candidates;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Link* l = net_->findLink(path[i], path[i + 1]);
    if (l != nullptr && l->isUp()) candidates.push_back(l);
  }
  if (candidates.empty()) return nullptr;
  const auto pick = rng_.uniformInt(0, static_cast<std::int64_t>(candidates.size()) - 1);
  return candidates[static_cast<std::size_t>(pick)];
}

void Scenario::injectFailure(int index) {
  // Failure k targets flow (k mod flows)'s then-current forwarding path —
  // the first one reproduces the paper's single failure, later ones give
  // the overlapping-failures extension.
  const auto& flow = flows_[static_cast<std::size_t>(index) % flows_.size()];

  if (index == 0) {
    bool loop = false;
    bool blackhole = false;
    const auto path = net_->fibWalk(flow.sender, flow.receiver, &loop, &blackhole);
    if (!loop && !blackhole && path.size() >= 2) {
      preFailHops_ = static_cast<int>(path.size()) - 1;
      preFailShortest_ = preFailHops_ == net_->shortestDistLive(flow.sender, flow.receiver);
    }
  }

  Link* link = pickLinkOnPath(flow.sender, flow.receiver);
  if (link == nullptr && index == 0) {
    throw std::runtime_error("no usable sender->receiver path at failure time");
  }
  if (link == nullptr) return;  // overlapping failure found nothing to cut
  // First-disruption snapshot (a fault-plan event may already have taken it).
  if (fibDigestBefore_.empty()) fibDigestBefore_ = captureFibSnapshot();
  failedLinks_.push_back(link);
  link->fail();
  if (cfg_.repairAfter < Time::infinity()) {
    sched_.scheduleAfter(cfg_.repairAfter, EventKind::Fault, [link] { link->recover(); });
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
