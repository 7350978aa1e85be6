// Protocol conformance: one parameterized suite that every routing
// protocol in the registry must pass. These are the contract any new
// protocol added to the factory has to satisfy before the study layer can
// trust it.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "test_util.hpp"
#include "topo/graph_algo.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

/// Worst-case initial convergence horizon per protocol family: DV needs a
/// few damped triggered rounds, BGP up to a few MRAIs (tests use the BGP3
/// timing below), LS/DUAL converge in link time.
ProtocolConfig conformanceConfig() {
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 2.25;  // BGP3 pacing so the suite stays fast
  cfg.bgp.mraiMaxSec = 3.0;
  return cfg;
}

class Conformance : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  [[nodiscard]] static Time warmup() { return 60_sec; }
};

TEST_P(Conformance, ConvergesToShortestPathsOnMesh) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, GetParam(), conformanceConfig()};
  tn.warmUp(warmup());
  // Every pair must route over a true shortest path, loop- and hole-free.
  for (NodeId s = 0; s < topo.nodeCount; s += 6) {
    const auto dist = bfsDistances(topo, s);
    for (NodeId d = 0; d < topo.nodeCount; ++d) {
      if (s == d) continue;
      bool loop = false, blackhole = false;
      const auto path = tn.net().fibWalk(s, d, &loop, &blackhole);
      EXPECT_FALSE(loop) << s << "->" << d;
      EXPECT_FALSE(blackhole) << s << "->" << d;
      EXPECT_EQ(static_cast<int>(path.size()) - 1, dist[static_cast<std::size_t>(d)])
          << s << "->" << d;
    }
  }
}

TEST_P(Conformance, ReroutesAroundSingleFailure) {
  TestNet tn{testutil::ringTopology(6), GetParam(), conformanceConfig()};
  tn.warmUp(warmup());
  ASSERT_EQ(tn.nextHop(0, 5), 5);
  tn.net().findLink(0, 5)->fail();
  tn.runUntil(warmup() + 60_sec);
  EXPECT_EQ(tn.nextHop(0, 5), 1);
  EXPECT_EQ(tn.nextHop(1, 5), 2);
}

TEST_P(Conformance, SettlesUnreachableOnPartition) {
  TestNet tn{testutil::lineTopology(4), GetParam(), conformanceConfig()};
  tn.warmUp(warmup());
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(warmup() + 120_sec);
  EXPECT_EQ(tn.nextHop(0, 3), kInvalidNode);
  EXPECT_EQ(tn.nextHop(1, 2), kInvalidNode);
  EXPECT_EQ(tn.nextHop(3, 0), kInvalidNode);
  // The near side stays intact.
  EXPECT_EQ(tn.nextHop(0, 1), 1);
  EXPECT_EQ(tn.nextHop(3, 2), 2);
}

TEST_P(Conformance, HealsAfterRepair) {
  TestNet tn{testutil::lineTopology(4), GetParam(), conformanceConfig()};
  tn.warmUp(warmup());
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(warmup() + 60_sec);
  ASSERT_EQ(tn.nextHop(0, 3), kInvalidNode);
  tn.net().findLink(1, 2)->recover();
  tn.runUntil(warmup() + 150_sec);
  EXPECT_EQ(tn.nextHop(0, 3), 1);
  EXPECT_EQ(tn.nextHop(1, 3), 2);
  EXPECT_EQ(tn.nextHop(2, 0), 1);
}

TEST_P(Conformance, SurvivesBackToBackFlaps) {
  TestNet tn{testutil::ringTopology(5), GetParam(), conformanceConfig()};
  tn.warmUp(warmup());
  Link* l = tn.net().findLink(0, 4);
  Time t = warmup();
  for (int i = 0; i < 3; ++i) {
    tn.scheduler().scheduleAt(t, [l] { l->fail(); });
    tn.scheduler().scheduleAt(t + 5_sec, [l] { l->recover(); });
    t += 10_sec;
  }
  tn.runUntil(t + 120_sec);
  // Must end converged on the direct route, not wedged by the churn.
  EXPECT_EQ(tn.nextHop(0, 4), 4);
  EXPECT_EQ(tn.nextHop(4, 0), 0);
}

TEST_P(Conformance, NoControlTrafficExplosionInSteadyState) {
  // After convergence, per-second control load must be bounded: zero for
  // the purely event-driven protocols, and no more than the periodic
  // full-table exchange for the timer-driven ones.
  TestNet tn{testutil::ringTopology(6), GetParam(), conformanceConfig()};
  tn.warmUp(200_sec);
  std::uint64_t messages = 0;
  testutil::CallbackSink sends{obs::kindBit(obs::TraceKind::ControlSend),
                               [&messages](const obs::TraceEvent&) { ++messages; }};
  tn.net().trace().addSink(&sends);
  tn.runUntil(260_sec);
  // 6 nodes x 2 neighbors x (60/30) periodic rounds x <=1 message each,
  // plus jitter slack. Event-driven protocols send ~0.
  EXPECT_LE(messages, 40u);
}

TEST_P(Conformance, FullScenarioConservationAndReconvergence) {
  ScenarioConfig cfg;
  cfg.protocol = GetParam();
  cfg.mesh.degree = 5;
  cfg.seed = 23;
  if (cfg.protocol == ProtocolKind::Bgp) {
    // Keep the suite quick: paper-grade BGP pacing is exercised elsewhere.
    cfg.protoCfg.bgp.mraiMinSec = 2.25;
    cfg.protoCfg.bgp.mraiMaxSec = 3.0;
  }
  const RunResult r = runScenario(cfg);
  EXPECT_EQ(r.residual(), 0);
  EXPECT_TRUE(r.preFailurePathShortest);
  EXPECT_TRUE(r.finalPathShortest);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, Conformance,
                         ::testing::Values(ProtocolKind::Rip, ProtocolKind::Dbf,
                                           ProtocolKind::Bgp, ProtocolKind::Bgp3,
                                           ProtocolKind::LinkState, ProtocolKind::Dual),
                         [](const ::testing::TestParamInfo<ProtocolKind>& info) {
                           return std::string{toString(info.param)};
                         });

}  // namespace
}  // namespace rcsim
