#include "fuzz/generator.hpp"

#include <algorithm>
#include <cmath>


namespace rcsim::fuzz {
namespace {

/// Round a drawn time to milliseconds so plans stay short and readable.
double roundMs(double sec) { return std::round(sec * 1000.0) / 1000.0; }

std::pair<NodeId, NodeId> drawEdge(Rng& rng, const Topology& topo) {
  const auto idx = rng.uniformInt(0, static_cast<std::int64_t>(topo.edges.size()) - 1);
  return topo.edges[static_cast<std::size_t>(idx)];
}

NodeId drawNode(Rng& rng, const Topology& topo) {
  return static_cast<NodeId>(rng.uniformInt(0, topo.nodeCount - 1));
}

std::vector<NodeId> drawGroup(Rng& rng, const Topology& topo) {
  const int maxSize = std::max(1, topo.nodeCount / 2);
  const auto size = rng.uniformInt(1, maxSize);
  std::vector<NodeId> group;
  for (std::int64_t i = 0; i < size; ++i) group.push_back(drawNode(rng, topo));
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  return group;
}

}  // namespace

fault::FaultPlan generateFaultPlan(Rng& rng, const Topology& topo, double windowStart,
                                   double windowEnd) {
  fault::FaultPlan plan;
  const auto eventCount = rng.uniformInt(1, 5);
  for (std::int64_t i = 0; i < eventCount; ++i) {
    fault::FaultEvent ev;
    ev.at = Time::seconds(roundMs(rng.uniform(windowStart, windowEnd)));
    const auto pick = rng.uniformInt(0, 99);
    if (pick < 25) {
      ev.kind = fault::FaultKind::LinkFail;
      std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      if (rng.uniform01() < 0.6) {
        fault::FaultEvent rec;
        rec.kind = fault::FaultKind::LinkRecover;
        rec.a = ev.a;
        rec.b = ev.b;
        rec.at = Time::seconds(roundMs(ev.at.toSeconds() + rng.uniform(1.0, 60.0)));
        plan.events.push_back(rec);
      }
    } else if (pick < 40) {
      ev.kind = fault::FaultKind::NodeCrash;
      ev.a = drawNode(rng, topo);
      if (rng.uniform01() < 0.6) {
        fault::FaultEvent res;
        res.kind = fault::FaultKind::NodeRestart;
        res.a = ev.a;
        res.at = Time::seconds(roundMs(ev.at.toSeconds() + rng.uniform(1.0, 60.0)));
        plan.events.push_back(res);
      }
    } else if (pick < 60) {
      const auto impairment = rng.uniformInt(0, 2);
      ev.kind = impairment == 0   ? fault::FaultKind::LinkLoss
                : impairment == 1 ? fault::FaultKind::LinkCorrupt
                                  : fault::FaultKind::LinkReorder;
      ev.allLinks = rng.uniform01() < 0.3;
      if (!ev.allLinks) std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      ev.rate = std::round(rng.uniform(0.01, 0.3) * 100.0) / 100.0;
      if (ev.kind == fault::FaultKind::LinkReorder) {
        ev.jitter = Time::milliseconds(rng.uniformInt(1, 100));
      }
    } else if (pick < 66) {
      ev.kind = fault::FaultKind::DetectDelay;
      std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      ev.detect = Time::milliseconds(rng.uniformInt(10, 2000));
    } else if (pick < 76) {
      // Adversarial control-plane impairments: the data plane keeps
      // flowing while routing messages are lost, delayed or duplicated.
      const auto ctrl = rng.uniformInt(0, 2);
      ev.kind = ctrl == 0   ? fault::FaultKind::CtrlLoss
                : ctrl == 1 ? fault::FaultKind::CtrlDelay
                            : fault::FaultKind::CtrlDup;
      ev.allLinks = rng.uniform01() < 0.3;
      if (!ev.allLinks) std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      if (ev.kind == fault::FaultKind::CtrlDelay) {
        ev.jitter = Time::milliseconds(rng.uniformInt(1, 500));
      } else {
        ev.rate = std::round(rng.uniform(0.01, 0.5) * 100.0) / 100.0;
      }
    } else if (pick < 82) {
      ev.kind = fault::FaultKind::FlapBurst;
      std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      ev.count = static_cast<int>(rng.uniformInt(1, 5));
      ev.period = Time::seconds(static_cast<double>(rng.uniformInt(2, 20)));
    } else if (pick < 88) {
      ev.kind = fault::FaultKind::Partition;
      ev.group = drawGroup(rng, topo);
      if (rng.uniform01() < 0.6) {
        fault::FaultEvent heal;
        heal.kind = fault::FaultKind::Heal;
        heal.group = ev.group;
        heal.at = Time::seconds(roundMs(ev.at.toSeconds() + rng.uniform(1.0, 60.0)));
        plan.events.push_back(heal);
      }
    } else if (pick < 91) {
      // Every link flaps for a short window; it references no node, so it
      // is valid on any topology.
      ev.kind = fault::FaultKind::Churn;
      ev.mtbf = static_cast<double>(rng.uniformInt(5, 60));
      ev.mttr = static_cast<double>(rng.uniformInt(1, 10));
      ev.stop = Time::seconds(roundMs(ev.at.toSeconds() + rng.uniform(1.0, 60.0)));
    } else {
      // Deliberate mismatches: recover a link that never failed, restart a
      // node that never crashed. The injector specifies these as no-ops;
      // the fuzzer keeps it honest.
      if (rng.uniform01() < 0.5) {
        ev.kind = fault::FaultKind::LinkRecover;
        std::tie(ev.a, ev.b) = drawEdge(rng, topo);
      } else {
        ev.kind = fault::FaultKind::NodeRestart;
        ev.a = drawNode(rng, topo);
      }
    }
    plan.events.push_back(ev);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const auto& x, const auto& y) { return x.at < y.at; });
  return plan;
}

ScenarioConfig generateScenario(Rng& rng) {
  ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000));
  cfg.injectFailure = false;  // the fault plan is the only disruption

  const auto family = rng.uniformInt(0, 9);
  if (family < 4) {
    cfg.topology = TopologyKind::RegularMesh;
    cfg.mesh.rows = static_cast<int>(rng.uniformInt(3, 6));
    cfg.mesh.cols = static_cast<int>(rng.uniformInt(3, 6));
    cfg.mesh.degree = static_cast<int>(rng.uniformInt(3, 6));
  } else if (family < 8) {
    cfg.topology = TopologyKind::Random;
    cfg.random.nodes = static_cast<int>(rng.uniformInt(8, 32));
    cfg.random.avgDegree = rng.uniform(2.0, 5.0);
    if (rng.uniform01() < 0.3) {
      // The uniform G(n, m) mode with deterministic connectivity repair —
      // degenerate shapes (chains, bridged clusters) the tree skeleton
      // never produces.
      cfg.random.spanningTree = false;
      cfg.random.ensureConnected = true;
    }
  } else {
    cfg.topology = TopologyKind::Named;
    cfg.named.graph = rng.uniform01() < 0.5 ? "abilene" : "nsfnet";
  }

  switch (rng.uniformInt(0, 5)) {
    case 0: cfg.protocol = ProtocolKind::Rip; break;
    case 1: cfg.protocol = ProtocolKind::Dbf; break;
    case 2: cfg.protocol = ProtocolKind::Bgp; break;
    case 3: cfg.protocol = ProtocolKind::Bgp3; break;
    case 4: cfg.protocol = ProtocolKind::LinkState; break;
    default: cfg.protocol = ProtocolKind::Dual; break;
  }

  cfg.flows = static_cast<int>(rng.uniformInt(1, 2));
  if (rng.uniform01() < 0.7) {
    cfg.traffic = TrafficKind::Cbr;
    cfg.packetsPerSecond = static_cast<double>(rng.uniformInt(5, 40));
  } else {
    cfg.traffic = TrafficKind::Tcp;
    cfg.tcpWindow = static_cast<int>(rng.uniformInt(2, 12));
  }
  cfg.packetBytes = static_cast<std::uint32_t>(rng.uniformInt(200, 1500));
  cfg.ttl = static_cast<int>(rng.uniformInt(8, 64));

  // Compressed timeline: convergence protocols get tens of seconds, not
  // the paper's 800 s, so a budget of hundreds of runs stays interactive.
  const double start = std::floor(rng.uniform(5.0, 15.0));
  const double stop = start + std::floor(rng.uniform(20.0, 60.0));
  cfg.trafficStart = Time::seconds(start);
  cfg.trafficStop = Time::seconds(stop);
  cfg.endAt = Time::seconds(stop + std::floor(rng.uniform(20.0, 60.0)));

  cfg.link.queueCapacity = static_cast<int>(rng.uniformInt(4, 30));
  cfg.link.detectDelay = Time::milliseconds(rng.uniformInt(10, 200));
  cfg.link.bandwidthBps = static_cast<double>(rng.uniformInt(1, 10)) * 1e6;
  cfg.ecmp = rng.uniform01() < 0.25;

  // Hello-based detection in a quarter of the scenarios: the detector
  // replaces the oracle path wholesale, so its interaction with every
  // fault kind (especially control-plane impairments eating the hellos)
  // is prime fuzzing surface.
  if (rng.uniform01() < 0.25) {
    cfg.hello.enabled = true;
    cfg.hello.interval = Time::milliseconds(rng.uniformInt(250, 2000));
    cfg.hello.dead = Time::milliseconds(
        static_cast<std::int64_t>(cfg.hello.interval.toSeconds() * 1000.0 *
                                  rng.uniform(2.5, 4.0)));
    cfg.hello.jitter = std::round(rng.uniform(0.0, 0.3) * 100.0) / 100.0;
  }
  // Protocol hardening knobs, drawn independently so damped and undamped
  // variants of otherwise-identical scenarios both appear.
  if (rng.uniform01() < 0.25) {
    cfg.protoCfg.dv.holdDownSec = static_cast<double>(rng.uniformInt(5, 30));
  }
  if (rng.uniform01() < 0.2) {
    cfg.protoCfg.dv.triggerMinGapSec = std::round(rng.uniform(0.2, 2.0) * 10.0) / 10.0;
  }
  if (rng.uniform01() < 0.2) {
    cfg.protoCfg.bgp.flapDampingEnabled = true;
  }

  const Topology topo = scenarioTopology(cfg);
  cfg.faultPlan = generateFaultPlan(rng, topo, start, stop);
  return cfg;
}

void retimeEvent(fault::FaultEvent& ev, Time at) {
  if (ev.kind == fault::FaultKind::Churn) ev.stop = ev.stop + (at - ev.at);
  ev.at = at;
}

fault::FaultPlan remapPlanToTopology(const fault::FaultPlan& plan, const Topology& topo,
                                     Rng& rng) {
  fault::FaultPlan out = plan;
  for (auto& ev : out.events) {
    // A `path` failure names a flow, not a link: it needs no remapping.
    const bool isLinkEvent =
        (ev.kind == fault::FaultKind::LinkFail && ev.pathFlow == fault::kNoPathFlow) ||
        ev.kind == fault::FaultKind::LinkRecover ||
        ev.kind == fault::FaultKind::DetectDelay || ev.kind == fault::FaultKind::FlapBurst ||
        ((ev.kind == fault::FaultKind::LinkLoss || ev.kind == fault::FaultKind::LinkCorrupt ||
          ev.kind == fault::FaultKind::LinkReorder || ev.kind == fault::FaultKind::CtrlLoss ||
          ev.kind == fault::FaultKind::CtrlDelay || ev.kind == fault::FaultKind::CtrlDup) &&
         !ev.allLinks);
    if (isLinkEvent && !topo.hasEdge(ev.a, ev.b)) {
      std::tie(ev.a, ev.b) = drawEdge(rng, topo);
    }
    if (ev.kind == fault::FaultKind::NodeCrash || ev.kind == fault::FaultKind::NodeRestart) {
      if (ev.a >= topo.nodeCount) ev.a = drawNode(rng, topo);
    }
    if (ev.kind == fault::FaultKind::Partition || ev.kind == fault::FaultKind::Heal) {
      std::erase_if(ev.group, [&](NodeId n) { return n >= topo.nodeCount; });
      if (ev.group.empty()) ev.group.push_back(drawNode(rng, topo));
    }
  }
  return out;
}

}  // namespace rcsim::fuzz
