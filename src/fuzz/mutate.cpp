#include "fuzz/mutate.hpp"

#include <algorithm>
#include <cmath>

#include "fuzz/generator.hpp"

namespace rcsim::fuzz {
namespace {

int clampInt(std::int64_t v, int lo, int hi) {
  return static_cast<int>(std::clamp<std::int64_t>(v, lo, hi));
}

}  // namespace

ScenarioConfig mutateScenario(const ScenarioConfig& base, Rng& rng) {
  ScenarioConfig cfg = base;
  bool topologyMayHaveChanged = false;

  switch (rng.uniformInt(0, 7)) {
    case 0:  // reseed (for the Random family this redraws the graph too)
      cfg.seed = static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000));
      topologyMayHaveChanged = cfg.topology == TopologyKind::Random;
      break;
    case 1: {  // retime one fault event by up to +-20%
      if (cfg.faultPlan.empty()) break;
      auto& ev = cfg.faultPlan.events[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(cfg.faultPlan.events.size()) - 1))];
      const double scaled = ev.at.toSeconds() * rng.uniform(0.8, 1.2);
      retimeEvent(ev, Time::seconds(std::max(0.001, std::round(scaled * 1000.0) / 1000.0)));
      break;
    }
    case 2:  // drop one fault event
      if (cfg.faultPlan.events.size() > 1) {
        cfg.faultPlan.events.erase(cfg.faultPlan.events.begin() +
                                   rng.uniformInt(0, static_cast<std::int64_t>(
                                                         cfg.faultPlan.events.size()) -
                                                         1));
      }
      break;
    case 3: {  // append one fresh fault event
      const Topology topo = scenarioTopology(cfg);
      auto extra = generateFaultPlan(rng, topo, cfg.trafficStart.toSeconds(),
                                     cfg.trafficStop.toSeconds());
      cfg.faultPlan.events.push_back(extra.events.front());
      break;
    }
    case 4:  // scalar traffic/link knob
      switch (rng.uniformInt(0, 3)) {
        case 0:
          cfg.ttl = clampInt(cfg.ttl + rng.uniformInt(-8, 8), 4, 128);
          break;
        case 1:
          cfg.link.queueCapacity =
              clampInt(cfg.link.queueCapacity + rng.uniformInt(-6, 6), 2, 64);
          break;
        case 2:
          if (cfg.traffic == TrafficKind::Cbr) {
            cfg.packetsPerSecond =
                static_cast<double>(clampInt(static_cast<std::int64_t>(cfg.packetsPerSecond) +
                                                 rng.uniformInt(-10, 10),
                                             1, 80));
          } else {
            cfg.tcpWindow = clampInt(cfg.tcpWindow + rng.uniformInt(-3, 3), 1, 32);
          }
          break;
        default:
          cfg.link.detectDelay = Time::milliseconds(
              std::clamp<std::int64_t>(cfg.link.detectDelay.toSeconds() * 1000.0 +
                                           static_cast<double>(rng.uniformInt(-50, 50)),
                                       5, 4000));
          break;
      }
      break;
    case 5: {  // stretch or shrink the tail of the timeline
      const double lastStop = cfg.trafficStop.toSeconds();
      const double tail = cfg.endAt.toSeconds() - lastStop;
      const double newTail =
          std::clamp(tail + static_cast<double>(rng.uniformInt(-15, 15)), 5.0, 120.0);
      cfg.endAt = Time::seconds(lastStop + std::floor(newTail));
      break;
    }
    case 6:  // topology shape
      topologyMayHaveChanged = true;
      switch (cfg.topology) {
        case TopologyKind::RegularMesh:
          if (rng.uniform01() < 0.5) {
            cfg.mesh.rows = clampInt(cfg.mesh.rows + rng.uniformInt(-1, 1), 3, 7);
            cfg.mesh.cols = clampInt(cfg.mesh.cols + rng.uniformInt(-1, 1), 3, 7);
          } else {
            cfg.mesh.degree = clampInt(cfg.mesh.degree + rng.uniformInt(-1, 1), 3, 8);
          }
          break;
        case TopologyKind::Random:
          cfg.random.nodes = clampInt(cfg.random.nodes + rng.uniformInt(-4, 4), 8, 40);
          break;
        case TopologyKind::Named:
          cfg.named.graph = cfg.named.graph == "abilene" ? "nsfnet" : "abilene";
          break;
        case TopologyKind::Inline:
        case TopologyKind::File:
          // Frozen shapes (minimizer output, external files): leave alone.
          topologyMayHaveChanged = false;
          break;
      }
      break;
    default:  // protocol swap
      switch (rng.uniformInt(0, 5)) {
        case 0: cfg.protocol = ProtocolKind::Rip; break;
        case 1: cfg.protocol = ProtocolKind::Dbf; break;
        case 2: cfg.protocol = ProtocolKind::Bgp; break;
        case 3: cfg.protocol = ProtocolKind::Bgp3; break;
        case 4: cfg.protocol = ProtocolKind::LinkState; break;
        default: cfg.protocol = ProtocolKind::Dual; break;
      }
      break;
  }

  if (topologyMayHaveChanged) {
    cfg.faultPlan = remapPlanToTopology(cfg.faultPlan, scenarioTopology(cfg), rng);
  }
  return cfg;
}

}  // namespace rcsim::fuzz
