#pragma once

// Shared test harness: builds a Network from a Topology with one protocol
// kind everywhere, ready to run — a miniature of core/Scenario for unit
// tests on arbitrary hand-made graphs.

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "exp/executor.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/scheduler.hpp"
#include "topo/topology.hpp"

namespace rcsim::testutil {

/// The reference replica runner: `runs` replicas of `base` (seeds
/// startSeed, startSeed + 1, ...) one after another through runScenario.
inline std::vector<RunResult> serialRuns(const ScenarioConfig& base, int runs,
                                         std::uint64_t startSeed = 1) {
  std::vector<RunResult> results;
  for (int i = 0; i < runs; ++i) {
    ScenarioConfig cfg = base;
    cfg.seed = startSeed + static_cast<std::uint64_t>(i);
    results.push_back(runScenario(cfg));
  }
  return results;
}

/// The same replicas as one cell on a `threads`-worker SweepExecutor
/// (threads <= 0: the executor's default).
inline exp::CellResult executorRuns(const ScenarioConfig& base, int runs, int threads = 0) {
  exp::ExperimentSpec spec;
  spec.name = "test";
  exp::CellSpec cell;
  cell.id = "cell";
  cell.config = base;
  spec.cells.push_back(cell);
  exp::SweepExecutor executor{threads};
  return executor.execute(spec, runs).cells.front();
}

/// A TraceSink that hands the events of the kinds it asks for to a
/// callback: the test-side replacement for ad-hoc network observers.
class CallbackSink final : public obs::TraceSink {
 public:
  CallbackSink(std::uint32_t kinds, std::function<void(const obs::TraceEvent&)> fn)
      : kinds_{kinds}, fn_{std::move(fn)} {}
  [[nodiscard]] std::uint32_t kinds() const override { return kinds_; }
  void onTraceEvent(const obs::TraceEvent& ev) override { fn_(ev); }

 private:
  std::uint32_t kinds_;
  std::function<void(const obs::TraceEvent&)> fn_;
};

class TestNet {
 public:
  explicit TestNet(const Topology& topo, ProtocolKind kind,
                   ProtocolConfig protoCfg = {}, LinkConfig linkCfg = {},
                   std::uint64_t seed = 1, bool ecmp = false)
      : net_{sched_, Rng{seed}} {
    for (int i = 0; i < topo.nodeCount; ++i) net_.addNode();
    for (const auto& [a, b] : topo.edges) net_.addLink(a, b, linkCfg);
    net_.finalize(ecmp);
    for (NodeId id = 0; id < static_cast<NodeId>(net_.nodeCount()); ++id) {
      Node& node = net_.node(id);
      node.setProtocol(makeProtocol(kind, node, protoCfg));
    }
  }

  /// Start protocols and run until `horizon`.
  void warmUp(Time horizon) {
    net_.startProtocols();
    sched_.run(horizon);
  }

  void runUntil(Time horizon) { sched_.run(horizon); }

  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] Network& net() { return net_; }
  [[nodiscard]] Node& node(NodeId id) { return net_.node(id); }
  [[nodiscard]] NodeId nextHop(NodeId node, NodeId dst) {
    return net_.node(node).fib().nextHop(dst);
  }

  template <typename P>
  [[nodiscard]] P& protocolAs(NodeId id) {
    return dynamic_cast<P&>(*net_.node(id).protocol());
  }

 private:
  Scheduler sched_;
  Network net_;
};

/// A path graph 0-1-2-...-(n-1).
inline Topology lineTopology(int n) {
  Topology t;
  t.nodeCount = n;
  for (NodeId i = 0; i + 1 < n; ++i) t.edges.emplace_back(i, i + 1);
  return t;
}

/// A cycle 0-1-...-(n-1)-0.
inline Topology ringTopology(int n) {
  Topology t = lineTopology(n);
  t.edges.emplace_back(0, n - 1);
  return t;
}

/// Two disjoint paths between 0 and n-1 (a "theta" without the middle bar):
/// 0-1-...-k-(n-1) and 0-(k+1)-...-(n-2)-(n-1).
inline Topology twoPathTopology() {
  // 0 - 1 - 4, 0 - 2 - 3 - 4: a 4-hop alternative to a 2-hop primary.
  Topology t;
  t.nodeCount = 5;
  t.edges = {{0, 1}, {1, 4}, {0, 2}, {2, 3}, {3, 4}};
  return t;
}

}  // namespace rcsim::testutil
