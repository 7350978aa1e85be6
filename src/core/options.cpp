#include "core/options.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/digest.hpp"

namespace rcsim {
namespace {

double parseDouble(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option " + key + ": not a number: '" + value + "'");
  }
  if (pos != value.size()) {
    throw std::invalid_argument("option " + key + ": trailing junk in '" + value + "'");
  }
  return v;
}

long parseInt(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  long v = 0;
  try {
    v = std::stol(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("option " + key + ": not an integer: '" + value + "'");
  }
  if (pos != value.size()) {
    throw std::invalid_argument("option " + key + ": trailing junk in '" + value + "'");
  }
  return v;
}

/// A time-valued option: `value` in seconds, or in 1/unitsPerSecond
/// seconds (1e3 for the -ms keys). NaN, infinities and anything past
/// +-1e9 s are rejected, because Time::seconds casts to int64 nanoseconds
/// and that cast is undefined beyond about +-9.2e9 s. Only fail-spacing
/// may be negative (later failures earlier); every other time is a point
/// on the timeline or a duration, and must be >= 0.
Time parseTime(const std::string& key, const std::string& value, double unitsPerSecond = 1.0) {
  const double sec = parseDouble(key, value) / unitsPerSecond;
  if (!(std::fabs(sec) <= 1e9)) {
    throw std::invalid_argument("option " + key + ": '" + value +
                                "' is not a finite time within +-1e9 s");
  }
  if (sec < 0 && key != "fail-spacing") {
    throw std::invalid_argument("option " + key + ": '" + value + "' must be >= 0");
  }
  return Time::seconds(sec);
}

bool parseBool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "off" || value == "no") return false;
  throw std::invalid_argument("option " + key + ": not a boolean: '" + value + "'");
}

/// "0-1,1-2,2-5" into an edge vector ("" = no edges). Endpoints keep their
/// given order; Topology::normalize() canonicalizes at build time.
std::vector<std::pair<NodeId, NodeId>> parseEdgeList(const std::string& key,
                                                     const std::string& value) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (value.empty()) return edges;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const auto comma = value.find(',', pos);
    const std::string part =
        value.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto dash = part.find('-');
    if (dash == std::string::npos || dash == 0 || dash + 1 >= part.size()) {
      throw std::invalid_argument("option " + key + ": expected 'A-B' edge, got '" + part + "'");
    }
    const long a = parseInt(key, part.substr(0, dash));
    const long b = parseInt(key, part.substr(dash + 1));
    if (a < 0 || b < 0) {
      throw std::invalid_argument("option " + key + ": negative node id in '" + part + "'");
    }
    edges.emplace_back(static_cast<NodeId>(a), static_cast<NodeId>(b));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return edges;
}

std::string formatEdgeList(const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::string out;
  for (const auto& [a, b] : edges) {
    if (!out.empty()) out += ',';
    out += std::to_string(a) + "-" + std::to_string(b);
  }
  return out;
}

}  // namespace

void applyOption(ScenarioConfig& cfg, const std::string& key, const std::string& value) {
  // Scenario-level.
  if (key == "protocol") {
    cfg.protocol = protocolKindFromString(value);
  } else if (key == "topology") {
    if (value == "mesh") {
      cfg.topology = TopologyKind::RegularMesh;
    } else if (value == "random") {
      cfg.topology = TopologyKind::Random;
    } else if (value == "file") {
      cfg.topology = TopologyKind::File;
    } else if (value == "named") {
      cfg.topology = TopologyKind::Named;
    } else if (value == "inline") {
      cfg.topology = TopologyKind::Inline;
    } else {
      throw std::invalid_argument("topology must be mesh|random|file|named|inline, got '" +
                                  value + "'");
    }
  } else if (key == "file.path") {
    if (value.empty()) throw std::invalid_argument("option file.path: needs a file path");
    cfg.file.path = value;
  } else if (key == "named.graph") {
    if (value.empty()) throw std::invalid_argument("option named.graph: needs a graph name");
    cfg.named.graph = value;
  } else if (key == "degree") {
    cfg.mesh.degree = static_cast<int>(parseInt(key, value));
  } else if (key == "rows") {
    cfg.mesh.rows = static_cast<int>(parseInt(key, value));
  } else if (key == "cols") {
    cfg.mesh.cols = static_cast<int>(parseInt(key, value));
  } else if (key == "random.nodes") {
    cfg.random.nodes = static_cast<int>(parseInt(key, value));
  } else if (key == "random.avg-degree") {
    cfg.random.avgDegree = parseDouble(key, value);
  } else if (key == "random.tree") {
    cfg.random.spanningTree = parseBool(key, value);
  } else if (key == "random.ensure-connected") {
    cfg.random.ensureConnected = parseBool(key, value);
  } else if (key == "inline.nodes") {
    cfg.inlineTopo.nodes = static_cast<int>(parseInt(key, value));
  } else if (key == "inline.edges") {
    cfg.inlineTopo.edges = parseEdgeList(key, value);
  } else if (key == "pin.src" || key == "pin.dst") {
    const auto node = static_cast<NodeId>(parseInt(key, value));
    if (node < kInvalidNode) {
      throw std::invalid_argument(key + " must be a node id or -1 (unset)");
    }
    (key == "pin.src" ? cfg.pinSrc : cfg.pinDst) = node;
  } else if (key == "seed") {
    cfg.seed = static_cast<std::uint64_t>(parseInt(key, value));
  } else if (key == "flows") {
    cfg.flows = static_cast<int>(parseInt(key, value));
  } else if (key == "traffic") {
    if (value == "cbr") {
      cfg.traffic = TrafficKind::Cbr;
    } else if (value == "tcp") {
      cfg.traffic = TrafficKind::Tcp;
    } else {
      throw std::invalid_argument("traffic must be cbr|tcp, got '" + value + "'");
    }
  } else if (key == "rate") {
    cfg.packetsPerSecond = parseDouble(key, value);
  } else if (key == "bytes") {
    cfg.packetBytes = static_cast<std::uint32_t>(parseInt(key, value));
  } else if (key == "ttl") {
    cfg.ttl = static_cast<int>(parseInt(key, value));
  } else if (key == "window") {
    cfg.tcpWindow = static_cast<int>(parseInt(key, value));
  } else if (key == "traffic-start") {
    cfg.trafficStart = parseTime(key, value);
  } else if (key == "traffic-stop") {
    cfg.trafficStop = parseTime(key, value);
  } else if (key == "failures") {
    cfg.failureCount = static_cast<int>(parseInt(key, value));
  } else if (key == "fail-at") {
    cfg.failAt = parseTime(key, value);
  } else if (key == "fail-spacing") {
    cfg.failureSpacing = parseTime(key, value);
  } else if (key == "repair-after") {
    // "inf" is what describeOptions emits for never-repaired links.
    cfg.repairAfter = parseDouble(key, value) == HUGE_VAL ? Time::infinity()
                                                          : parseTime(key, value);
  } else if (key == "no-failure") {
    cfg.injectFailure = !parseBool(key, value);
  } else if (key == "end-at") {
    cfg.endAt = parseTime(key, value);
  } else if (key == "trace-packets") {
    cfg.tracePackets = parseBool(key, value);
  } else if (key == "ecmp") {
    cfg.ecmp = parseBool(key, value);
    // Fault injection.
  } else if (key == "fault-plan") {
    cfg.faultPlan = fault::FaultPlan::parse(value);
  } else if (key == "check-invariants") {
    cfg.checkInvariants = parseBool(key, value);
  } else if (key == "anatomy") {
    cfg.anatomy = parseBool(key, value);
    // Link layer.
  } else if (key == "bandwidth") {
    cfg.link.bandwidthBps = parseDouble(key, value);
  } else if (key == "prop-delay-ms") {
    cfg.link.propDelay = parseTime(key, value, 1e3);
  } else if (key == "queue") {
    cfg.link.queueCapacity = static_cast<std::size_t>(parseInt(key, value));
  } else if (key == "detect-ms") {
    cfg.link.detectDelay = parseTime(key, value, 1e3);
    // Hello-based failure detection (docs/failure-detection.md).
  } else if (key == "hello.enabled") {
    cfg.hello.enabled = parseBool(key, value);
  } else if (key == "hello.interval") {
    cfg.hello.interval = parseTime(key, value);
  } else if (key == "hello.dead") {
    cfg.hello.dead = parseTime(key, value);
  } else if (key == "hello.jitter") {
    cfg.hello.jitter = parseDouble(key, value);
    // Distance-vector knobs.
  } else if (key == "dv.periodic") {
    cfg.protoCfg.dv.periodicInterval = parseTime(key, value);
  } else if (key == "dv.timeout") {
    cfg.protoCfg.dv.timeout = parseTime(key, value);
  } else if (key == "dv.damp-min") {
    cfg.protoCfg.dv.triggerDampMinSec = parseDouble(key, value);
  } else if (key == "dv.damp-max") {
    cfg.protoCfg.dv.triggerDampMaxSec = parseDouble(key, value);
  } else if (key == "dv.holddown") {
    cfg.protoCfg.dv.holdDownSec = parseDouble(key, value);
  } else if (key == "dv.trigger-min-gap") {
    cfg.protoCfg.dv.triggerMinGapSec = parseDouble(key, value);
  } else if (key == "dv.infinity") {
    cfg.protoCfg.dv.infinityMetric = static_cast<int>(parseInt(key, value));
  } else if (key == "dv.max-entries") {
    cfg.protoCfg.dv.maxEntriesPerMessage = static_cast<int>(parseInt(key, value));
  } else if (key == "dv.poison") {
    cfg.protoCfg.dv.splitHorizon =
        parseBool(key, value) ? SplitHorizonMode::PoisonReverse : SplitHorizonMode::None;
  } else if (key == "dv.split-horizon") {
    if (value == "none") {
      cfg.protoCfg.dv.splitHorizon = SplitHorizonMode::None;
    } else if (value == "simple") {
      cfg.protoCfg.dv.splitHorizon = SplitHorizonMode::SplitHorizon;
    } else if (value == "poison") {
      cfg.protoCfg.dv.splitHorizon = SplitHorizonMode::PoisonReverse;
    } else {
      throw std::invalid_argument("dv.split-horizon must be none|simple|poison");
    }
    // BGP knobs.
  } else if (key == "bgp.mrai-min") {
    cfg.protoCfg.bgp.mraiMinSec = parseDouble(key, value);
  } else if (key == "bgp.mrai-max") {
    cfg.protoCfg.bgp.mraiMaxSec = parseDouble(key, value);
  } else if (key == "bgp.per-dest-mrai") {
    cfg.protoCfg.bgp.perDestMrai = parseBool(key, value);
  } else if (key == "bgp.wd-exempt") {
    cfg.protoCfg.bgp.withdrawalsExemptFromMrai = parseBool(key, value);
  } else if (key == "bgp.assertions") {
    cfg.protoCfg.bgp.consistencyAssertions = parseBool(key, value);
  } else if (key == "bgp.rfd") {
    cfg.protoCfg.bgp.flapDampingEnabled = parseBool(key, value);
  } else if (key == "bgp.rfd-penalty") {
    cfg.protoCfg.bgp.rfdPenaltyPerFlap = parseDouble(key, value);
  } else if (key == "bgp.rfd-half-life") {
    cfg.protoCfg.bgp.rfdHalfLifeSec = parseDouble(key, value);
  } else if (key == "bgp.rfd-suppress") {
    cfg.protoCfg.bgp.rfdSuppressThreshold = parseDouble(key, value);
  } else if (key == "bgp.rfd-reuse") {
    cfg.protoCfg.bgp.rfdReuseThreshold = parseDouble(key, value);
    // Link-state knobs.
  } else if (key == "ls.spf-delay-ms") {
    cfg.protoCfg.ls.spfDelay = parseTime(key, value, 1e3);
  } else if (key == "ls.refresh") {
    cfg.protoCfg.ls.refreshInterval = parseTime(key, value);
  } else if (key == "ls.spf-oracle") {
    cfg.protoCfg.ls.spfOracle = parseBool(key, value);
    // DUAL knobs.
  } else if (key == "dual.sia-timeout") {
    cfg.protoCfg.dual.siaTimeout = parseTime(key, value);
  } else if (key == "dual.max-distance") {
    cfg.protoCfg.dual.maxDistance = static_cast<int>(parseInt(key, value));
  } else {
    throw std::invalid_argument("unknown option: " + key);
  }
}

std::string scenarioDigest(const ScenarioConfig& cfg) {
  std::string joined;
  for (const auto& opt : describeOptions(cfg)) {
    joined += opt;
    joined += '\n';
  }
  return fnv1aHexDigest(joined);
}

void applyOptionString(ScenarioConfig& cfg, const std::string& arg) {
  std::string s = arg;
  if (s.rfind("--", 0) == 0) s = s.substr(2);
  const auto eq = s.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("expected key=value, got '" + arg + "'");
  }
  applyOption(cfg, s.substr(0, eq), s.substr(eq + 1));
}

std::vector<std::string> describeOptions(const ScenarioConfig& cfg) {
  std::vector<std::string> out;
  auto add = [&out](const std::string& k, const std::string& v) { out.push_back(k + "=" + v); };
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string{buf};
  };
  add("protocol", toString(cfg.protocol));
  switch (cfg.topology) {
    case TopologyKind::RegularMesh:
      add("topology", "mesh");
      add("rows", std::to_string(cfg.mesh.rows));
      add("cols", std::to_string(cfg.mesh.cols));
      add("degree", std::to_string(cfg.mesh.degree));
      break;
    case TopologyKind::Random:
      add("topology", "random");
      add("random.nodes", std::to_string(cfg.random.nodes));
      add("random.avg-degree", num(cfg.random.avgDegree));
      add("random.tree", cfg.random.spanningTree ? "1" : "0");
      add("random.ensure-connected", cfg.random.ensureConnected ? "1" : "0");
      break;
    case TopologyKind::File:
      add("topology", "file");
      add("file.path", cfg.file.path);
      break;
    case TopologyKind::Named:
      add("topology", "named");
      add("named.graph", cfg.named.graph);
      break;
    case TopologyKind::Inline:
      add("topology", "inline");
      add("inline.nodes", std::to_string(cfg.inlineTopo.nodes));
      add("inline.edges", formatEdgeList(cfg.inlineTopo.edges));
      break;
  }
  add("seed", std::to_string(cfg.seed));
  add("flows", std::to_string(cfg.flows));
  if (cfg.pinSrc != kInvalidNode || cfg.pinDst != kInvalidNode) {
    add("pin.src", std::to_string(cfg.pinSrc));
    add("pin.dst", std::to_string(cfg.pinDst));
  }
  add("traffic", cfg.traffic == TrafficKind::Cbr ? "cbr" : "tcp");
  add("rate", num(cfg.packetsPerSecond));
  add("bytes", std::to_string(cfg.packetBytes));
  add("ttl", std::to_string(cfg.ttl));
  add("window", std::to_string(cfg.tcpWindow));
  add("traffic-start", num(cfg.trafficStart.toSeconds()));
  add("traffic-stop", num(cfg.trafficStop.toSeconds()));
  add("no-failure", cfg.injectFailure ? "0" : "1");
  add("failures", std::to_string(cfg.failureCount));
  add("fail-at", num(cfg.failAt.toSeconds()));
  add("fail-spacing", num(cfg.failureSpacing.toSeconds()));
  add("repair-after", cfg.repairAfter == Time::infinity() ? "inf"
                                                          : num(cfg.repairAfter.toSeconds()));
  add("end-at", num(cfg.endAt.toSeconds()));
  add("trace-packets", cfg.tracePackets ? "1" : "0");
  add("ecmp", cfg.ecmp ? "1" : "0");
  add("fault-plan", cfg.faultPlan.format());
  add("check-invariants", cfg.checkInvariants ? "1" : "0");
  add("anatomy", cfg.anatomy ? "1" : "0");
  add("bandwidth", num(cfg.link.bandwidthBps));
  add("prop-delay-ms", num(cfg.link.propDelay.toSeconds() * 1e3));
  add("queue", std::to_string(cfg.link.queueCapacity));
  add("detect-ms", num(cfg.link.detectDelay.toSeconds() * 1e3));
  add("hello.enabled", cfg.hello.enabled ? "1" : "0");
  add("hello.interval", num(cfg.hello.interval.toSeconds()));
  add("hello.dead", num(cfg.hello.dead.toSeconds()));
  add("hello.jitter", num(cfg.hello.jitter));
  add("dv.periodic", num(cfg.protoCfg.dv.periodicInterval.toSeconds()));
  add("dv.timeout", num(cfg.protoCfg.dv.timeout.toSeconds()));
  add("dv.damp-min", num(cfg.protoCfg.dv.triggerDampMinSec));
  add("dv.damp-max", num(cfg.protoCfg.dv.triggerDampMaxSec));
  add("dv.holddown", num(cfg.protoCfg.dv.holdDownSec));
  add("dv.trigger-min-gap", num(cfg.protoCfg.dv.triggerMinGapSec));
  add("dv.infinity", std::to_string(cfg.protoCfg.dv.infinityMetric));
  add("dv.max-entries", std::to_string(cfg.protoCfg.dv.maxEntriesPerMessage));
  switch (cfg.protoCfg.dv.splitHorizon) {
    case SplitHorizonMode::None: add("dv.split-horizon", "none"); break;
    case SplitHorizonMode::SplitHorizon: add("dv.split-horizon", "simple"); break;
    case SplitHorizonMode::PoisonReverse: add("dv.split-horizon", "poison"); break;
  }
  add("bgp.mrai-min", num(cfg.protoCfg.bgp.mraiMinSec));
  add("bgp.mrai-max", num(cfg.protoCfg.bgp.mraiMaxSec));
  add("bgp.per-dest-mrai", cfg.protoCfg.bgp.perDestMrai ? "1" : "0");
  add("bgp.wd-exempt", cfg.protoCfg.bgp.withdrawalsExemptFromMrai ? "1" : "0");
  add("bgp.assertions", cfg.protoCfg.bgp.consistencyAssertions ? "1" : "0");
  add("bgp.rfd", cfg.protoCfg.bgp.flapDampingEnabled ? "1" : "0");
  add("bgp.rfd-penalty", num(cfg.protoCfg.bgp.rfdPenaltyPerFlap));
  add("bgp.rfd-half-life", num(cfg.protoCfg.bgp.rfdHalfLifeSec));
  add("bgp.rfd-suppress", num(cfg.protoCfg.bgp.rfdSuppressThreshold));
  add("bgp.rfd-reuse", num(cfg.protoCfg.bgp.rfdReuseThreshold));
  add("ls.spf-delay-ms", num(cfg.protoCfg.ls.spfDelay.toSeconds() * 1e3));
  add("ls.refresh", num(cfg.protoCfg.ls.refreshInterval.toSeconds()));
  add("ls.spf-oracle", cfg.protoCfg.ls.spfOracle ? "1" : "0");
  add("dual.sia-timeout", num(cfg.protoCfg.dual.siaTimeout.toSeconds()));
  add("dual.max-distance", std::to_string(cfg.protoCfg.dual.maxDistance));
  return out;
}

}  // namespace rcsim
