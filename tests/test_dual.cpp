#include "routing/dual.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "test_util.hpp"
#include "topo/graph_algo.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

TEST(Dual, ConvergesOnLineFast) {
  TestNet tn{testutil::lineTopology(5), ProtocolKind::Dual};
  // No periodic timers: convergence is pure message latency.
  tn.warmUp(1_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  EXPECT_EQ(tn.nextHop(4, 0), 3);
  EXPECT_EQ(tn.protocolAs<Dual>(0).distance(4), 4);
}

TEST(Dual, MeshConvergesToShortestPaths) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 6});
  TestNet tn{topo, ProtocolKind::Dual};
  tn.warmUp(2_sec);
  const auto dist = bfsDistances(topo, gridId(0, 0, 5));
  auto& dual = tn.protocolAs<Dual>(gridId(0, 0, 5));
  for (NodeId d = 0; d < topo.nodeCount; ++d) {
    EXPECT_EQ(dual.distance(d), dist[static_cast<std::size_t>(d)]) << "dst " << d;
  }
}

TEST(Dual, FeasibleSuccessorSwitchIsLocalAndInstant) {
  // Two-path graph: 0's alternate via 2 has reported distance 2 < FD... the
  // FC fails (2 >= 2), so strictly DUAL diffuses here. Build a graph where
  // the alternate IS feasible: diamond with a shortcut.
  //   0-1-3 (primary, dist 2), 0-2, 2-3, and 2's own distance to 3 is 1,
  //   which is < FD(0)=2? No: FD=2, reported=1 < 2 — feasible.
  Topology diamond;
  diamond.nodeCount = 4;
  diamond.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  TestNet tn{diamond, ProtocolKind::Dual};
  tn.warmUp(2_sec);
  auto& dual0 = tn.protocolAs<Dual>(0);
  const NodeId primary = tn.nextHop(0, 3);
  ASSERT_TRUE(primary == 1 || primary == 2);
  tn.net().findLink(0, primary)->fail();
  tn.runUntil(2_sec + 50_ms + Time::microseconds(1));
  // The alternate reports distance 1 < FD 2: the switch for dst 3 is local
  // (never Active) and effective the instant detection fires. (Destination
  // `primary` itself legitimately diffuses — its alternate is infeasible.)
  EXPECT_EQ(tn.nextHop(0, 3), primary == 1 ? 2 : 1);
  EXPECT_FALSE(dual0.isActive(3));
  EXPECT_EQ(dual0.distance(3), 2);
}

TEST(Dual, InfeasibleAlternateTriggersDiffusion) {
  // Ring of 6: after 0-5 fails, 0's only alternate to 5 runs the long way
  // (distance 5 > FD 1): DUAL must go Active and withdraw the route first.
  TestNet tn{testutil::ringTopology(6), ProtocolKind::Dual};
  tn.warmUp(2_sec);
  auto& dual0 = tn.protocolAs<Dual>(0);
  ASSERT_EQ(dual0.distance(5), 1);
  tn.net().findLink(0, 5)->fail();
  tn.runUntil(2_sec + 60_ms);
  // Right after detection: diffusing, route frozen/unreachable.
  EXPECT_GT(dual0.diffusingComputations(), 0u);
  // Eventually: converged to the long way around, passive again.
  tn.runUntil(30_sec);
  EXPECT_FALSE(dual0.isActive(5));
  EXPECT_EQ(dual0.distance(5), 5);
  EXPECT_EQ(tn.nextHop(0, 5), 1);
}

TEST(Dual, NoTransientLoopsOnRingFailure) {
  // DUAL's selling point: throughout the whole reconvergence no FIB walk
  // between any pair may loop (it may blackhole while Active).
  TestNet tn{testutil::ringTopology(8), ProtocolKind::Dual};
  tn.warmUp(2_sec);
  bool everLooped = false;
  auto checkAllPairs = [&](const obs::TraceEvent&) {
    for (NodeId s = 0; s < 8 && !everLooped; ++s) {
      for (NodeId d = 0; d < 8; ++d) {
        bool loop = false;
        (void)tn.net().fibWalk(s, d, &loop, nullptr);
        if (loop) {
          everLooped = true;
          break;
        }
      }
    }
  };
  testutil::CallbackSink routes{obs::kindBit(obs::TraceKind::RouteChange), checkAllPairs};
  tn.net().trace().addSink(&routes);
  tn.net().findLink(0, 7)->fail();
  tn.runUntil(60_sec);
  EXPECT_FALSE(everLooped);
  EXPECT_EQ(tn.nextHop(0, 7), 1);
}

TEST(Dual, DisconnectedDestinationSettlesUnreachable) {
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Dual};
  tn.warmUp(2_sec);
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(60_sec);
  for (NodeId n = 0; n <= 2; ++n) {
    EXPECT_EQ(tn.nextHop(n, 3), kInvalidNode) << n;
    EXPECT_FALSE(tn.protocolAs<Dual>(n).isActive(3)) << n;
  }
}

TEST(Dual, RecoversOnLinkUp) {
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Dual};
  tn.warmUp(2_sec);
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(30_sec);
  ASSERT_EQ(tn.nextHop(0, 3), kInvalidNode);
  tn.net().findLink(2, 3)->recover();
  tn.runUntil(60_sec);
  EXPECT_EQ(tn.nextHop(0, 3), 1);
  EXPECT_EQ(tn.protocolAs<Dual>(0).distance(3), 3);
}

TEST(Dual, FullScenarioConservation) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Dual;
  cfg.mesh.degree = 4;
  cfg.seed = 5;
  cfg.trafficStart = 90_sec;
  cfg.trafficStop = 150_sec;
  cfg.failAt = 100_sec;
  cfg.endAt = 200_sec;
  Scenario sc{cfg};
  sc.run();
  const auto& data = sc.stats().data();
  EXPECT_EQ(sc.packetsSent(), data.delivered + data.totalDropped());
  EXPECT_EQ(data.dropTtl, 0u);  // loop-free by construction
}

}  // namespace
}  // namespace rcsim
