#include "fuzz/minimize.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "fuzz/generator.hpp"

namespace rcsim::fuzz {
namespace {

/// Does any plan event name this link explicitly (so deleting the edge
/// would turn the plan invalid rather than the scenario smaller)?
bool planReferencesLink(const fault::FaultPlan& plan, NodeId a, NodeId b) {
  for (const auto& ev : plan.events) {
    if ((ev.a == a && ev.b == b) || (ev.a == b && ev.b == a)) return true;
  }
  return false;
}

bool planReferencesNode(const fault::FaultPlan& plan, NodeId n) {
  for (const auto& ev : plan.events) {
    if (ev.a == n || ev.b == n) return true;
    if (std::find(ev.group.begin(), ev.group.end(), n) != ev.group.end()) return true;
  }
  return false;
}

/// Remove node `n` from an inline topology, shifting every id above it
/// down by one (edges, pins, plan references). Caller guarantees the plan
/// does not reference `n` itself. shift() leaves negative ids alone, so
/// the `dst` token stays put and follows the receiver via pinDst.
ScenarioConfig removeInlineNode(const ScenarioConfig& cfg, NodeId n) {
  ScenarioConfig out = cfg;
  auto shift = [n](NodeId id) { return id > n ? id - 1 : id; };
  out.inlineTopo.nodes -= 1;
  out.inlineTopo.edges.clear();
  for (const auto& [a, b] : cfg.inlineTopo.edges) {
    if (a == n || b == n) continue;
    out.inlineTopo.edges.emplace_back(shift(a), shift(b));
  }
  out.pinSrc = shift(out.pinSrc);
  out.pinDst = shift(out.pinDst);
  for (auto& ev : out.faultPlan.events) {
    if (ev.a != kInvalidNode) ev.a = shift(ev.a);
    if (ev.b != kInvalidNode) ev.b = shift(ev.b);
    for (auto& g : ev.group) g = shift(g);
  }
  return out;
}

}  // namespace

MinimizeResult minimizeFinding(const ScenarioConfig& cfg, const RunOutcome& original,
                               const MinimizeOptions& opts) {
  const std::string key = findingKey(original);
  const bool nondet = original.status == RunStatus::Nondeterministic;

  MinimizeResult result;
  result.config = cfg;
  ScenarioConfig& best = result.config;

  auto reproduces = [&](const ScenarioConfig& cand) {
    if (result.runsUsed >= opts.maxRuns) return false;
    ++result.runsUsed;
    try {
      const RunOutcome out =
          nondet ? checkDeterminism(cand, opts.wallLimitSec)
                 : runScenarioOnce(cand, opts.wallLimitSec);
      return findingKey(out) == key;
    } catch (...) {
      return false;
    }
  };
  auto accept = [&](const ScenarioConfig& cand) {
    if (!reproduces(cand)) return false;
    best = cand;
    result.changed = true;
    return true;
  };

  // Phase 1: drop fault events one at a time, to fixpoint. Greedy single
  // deletions are the ddmin tail case; plans are short (<= ~10 events) so
  // the quadratic worst case stays well inside the run budget.
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t i = 0; i < best.faultPlan.events.size(); ++i) {
      ScenarioConfig cand = best;
      cand.faultPlan.events.erase(cand.faultPlan.events.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      if (accept(cand)) {
        progress = true;
        break;
      }
    }
  }

  // Phase 2: round surviving event times to whole seconds (a churn
  // window moves with its start).
  for (std::size_t i = 0; i < best.faultPlan.events.size(); ++i) {
    const double sec = best.faultPlan.events[i].at.toSeconds();
    const double rounded = std::max(1.0, std::round(sec));
    if (rounded == sec) continue;
    ScenarioConfig cand = best;
    retimeEvent(cand.faultPlan.events[i], Time::seconds(rounded));
    accept(cand);
  }

  // Phase 3: collapse to a single flow.
  if (best.flows > 1) {
    ScenarioConfig cand = best;
    cand.flows = 1;
    accept(cand);
  }

  // Phase 4: cut the post-traffic tail of the run.
  {
    double lastEvent = best.trafficStop.toSeconds();
    for (const auto& ev : best.faultPlan.events) {
      lastEvent = std::max(lastEvent, ev.at.toSeconds());
      if (ev.kind == fault::FaultKind::Churn) lastEvent = std::max(lastEvent, ev.stop.toSeconds());
    }
    const double shortEnd = std::ceil(lastEvent) + 10.0;
    if (shortEnd < best.endAt.toSeconds()) {
      ScenarioConfig cand = best;
      cand.endAt = Time::seconds(shortEnd);
      accept(cand);
    }
  }

  // Phase 5: freeze the topology family into an explicit inline edge list
  // with pinned flow-0 endpoints — after this, structural shrinks can't
  // reshuffle the rest of the scenario.
  if (best.topology != TopologyKind::Inline) {
    try {
      Scenario probe{best};  // build (don't run) to see the drawn endpoints
      ScenarioConfig cand = best;
      const Topology topo = scenarioTopology(best);
      cand.topology = TopologyKind::Inline;
      cand.inlineTopo.nodes = topo.nodeCount;
      cand.inlineTopo.edges = topo.edges;
      cand.pinSrc = probe.sender();
      cand.pinDst = probe.receiver();
      accept(cand);
    } catch (const std::exception&) {
      // Construction-stage findings can't be frozen; leave the family.
    }
  }

  // Phase 6: delete edges, then nodes (ids remapped), to fixpoint.
  if (best.topology == TopologyKind::Inline) {
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t i = 0; i < best.inlineTopo.edges.size(); ++i) {
        const auto [a, b] = best.inlineTopo.edges[i];
        if (planReferencesLink(best.faultPlan, a, b)) continue;
        ScenarioConfig cand = best;
        cand.inlineTopo.edges.erase(cand.inlineTopo.edges.begin() +
                                    static_cast<std::ptrdiff_t>(i));
        if (accept(cand)) {
          progress = true;
          break;
        }
      }
      for (NodeId n = static_cast<NodeId>(best.inlineTopo.nodes) - 1; n >= 0 && !progress;
           --n) {
        if (n == best.pinSrc || n == best.pinDst) continue;
        if (planReferencesNode(best.faultPlan, n)) continue;
        if (accept(removeInlineNode(best, n))) progress = true;
      }
    }
  }

  return result;
}

}  // namespace rcsim::fuzz
