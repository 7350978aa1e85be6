// Tests for the future-work extensions: multiple flows, overlapping
// failures, link repair, random topologies, TCP traffic through the full
// scenario, and BGP route flap damping.
#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "routing/bgp.hpp"
#include "test_util.hpp"
#include "topo/graph_algo.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

ScenarioConfig quick(ProtocolKind kind, int degree, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = degree;
  cfg.seed = seed;
  cfg.trafficStart = 90_sec;
  cfg.trafficStop = 160_sec;
  cfg.failAt = 100_sec;
  cfg.endAt = 220_sec;
  return cfg;
}

TEST(MultiFlow, AllFlowsCountedInTotals) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 6, 3);
  cfg.flows = 4;
  const RunResult r = runScenario(cfg);
  EXPECT_EQ(r.sent, 4u * 70u * 20u);  // 4 flows x 70 s x 20 pkt/s
  EXPECT_EQ(r.residual(), 0);
  EXPECT_GT(r.data.delivered, r.sent - 20);
}

TEST(MultiFlow, DistinctEndpointsPerFlow) {
  Scenario sc{quick(ProtocolKind::Dbf, 4, 9)};
  ASSERT_EQ(sc.flows().size(), 1u);
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 4, 9);
  cfg.flows = 3;
  Scenario sc3{cfg};
  ASSERT_EQ(sc3.flows().size(), 3u);
  for (const auto& f : sc3.flows()) {
    EXPECT_LT(f.sender, 7);
    EXPECT_GE(f.receiver, 42);
  }
}

TEST(MultiFailure, InjectsRequestedNumberOfCuts) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 6, 5);
  cfg.flows = 2;
  cfg.failureCount = 3;
  cfg.failureSpacing = 2_sec;
  Scenario sc{cfg};
  sc.run();
  EXPECT_EQ(sc.faultInjector()->pathCuts().size(), 3u);
  for (const auto* l : sc.faultInjector()->pathCuts()) EXPECT_FALSE(l->isUp());
  // Conservation still holds with overlapping convergence episodes.
  std::uint64_t dropped = sc.stats().data().totalDropped();
  std::uint64_t delivered = sc.stats().data().delivered;
  EXPECT_EQ(sc.packetsSent(), delivered + dropped);
}

TEST(MultiFailure, DegreeSixAbsorbsSeveralCutsUnderDbf) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 8, 7);
  cfg.failureCount = 3;
  cfg.failureSpacing = 3_sec;
  const RunResult r = runScenario(cfg);
  // A rich mesh keeps valid alternates through three successive cuts.
  EXPECT_LT(r.dataAfterFailure.dropNoRoute, 10u);
  EXPECT_TRUE(r.finalPathShortest);
}

TEST(Repair, LinkComesBackAndRoutingReconverges) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 4, 3);
  cfg.repairAfter = 20_sec;
  Scenario sc{cfg};
  sc.run();
  ASSERT_EQ(sc.faultInjector()->pathCuts().size(), 1u);
  EXPECT_TRUE(sc.faultInjector()->pathCuts()[0]->isUp());  // repaired
  // After repair the shortest path is the pre-failure one again.
  bool loop = false, blackhole = false;
  const auto path = sc.network().fibWalk(sc.sender(), sc.receiver(), &loop, &blackhole);
  EXPECT_FALSE(loop);
  EXPECT_FALSE(blackhole);
  EXPECT_EQ(static_cast<int>(path.size()) - 1,
            sc.network().shortestDistLive(sc.sender(), sc.receiver()));
}

TEST(RandomTopology, GeneratorIsConnectedAndSized) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto topo = makeRandomTopology(RandomGraphSpec{49, 4.0, seed});
    EXPECT_EQ(topo.nodeCount, 49);
    EXPECT_TRUE(topo.isConnected());
    EXPECT_EQ(topo.edges.size(), 98u);  // 49 * 4 / 2
  }
}

TEST(RandomTopology, DeterministicPerSeedDistinctAcrossSeeds) {
  const auto a = makeRandomTopology(RandomGraphSpec{30, 4.0, 7});
  const auto b = makeRandomTopology(RandomGraphSpec{30, 4.0, 7});
  const auto c = makeRandomTopology(RandomGraphSpec{30, 4.0, 8});
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
}

TEST(RandomTopology, RejectsInfeasibleSpecs) {
  EXPECT_THROW(makeRandomTopology(RandomGraphSpec{1, 4.0, 1}), std::invalid_argument);
  EXPECT_THROW(makeRandomTopology(RandomGraphSpec{5, 10.0, 1}), std::invalid_argument);
}

TEST(RandomTopology, ScenarioRunsEndToEnd) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 4, 11);
  cfg.topology = TopologyKind::Random;
  cfg.random.nodes = 30;
  cfg.random.avgDegree = 4.0;
  const RunResult r = runScenario(cfg);
  EXPECT_EQ(r.residual(), 0);
  EXPECT_GT(r.data.delivered, 0u);
  EXPECT_TRUE(r.finalPathShortest);
}

TEST(TcpScenario, RunsThroughFailureAndStaysConservative) {
  ScenarioConfig cfg = quick(ProtocolKind::Dbf, 5, 3);
  cfg.traffic = TrafficKind::Tcp;
  cfg.tcpWindow = 8;
  const RunResult r = runScenario(cfg);
  EXPECT_GT(r.tcpGoodputPackets, 1000u);
  // Goodput can never exceed unique packets offered.
  EXPECT_LE(r.tcpGoodputPackets, r.sent);
}

TEST(TcpScenario, BlackholeProtocolLosesMoreGoodput) {
  ScenarioConfig rip = quick(ProtocolKind::Rip, 4, 3);
  rip.traffic = TrafficKind::Tcp;
  ScenarioConfig dbf = rip;
  dbf.protocol = ProtocolKind::Dbf;
  std::uint64_t ripGoodput = 0;
  std::uint64_t dbfGoodput = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rip.seed = dbf.seed = seed;
    ripGoodput += runScenario(rip).tcpGoodputPackets;
    dbfGoodput += runScenario(dbf).tcpGoodputPackets;
  }
  EXPECT_GT(dbfGoodput, ripGoodput);
}

TEST(FlapDamping, SuppressesAFlappingRouteAndReleasesIt) {
  // Line 0-1-2; flap the 1-2 link so node 0 sees repeated announce/withdraw
  // cycles for dst 2 from neighbor 1.
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 0.5;
  cfg.bgp.mraiMaxSec = 0.5;
  cfg.bgp.flapDampingEnabled = true;
  cfg.bgp.rfdHalfLifeSec = 5.0;
  testutil::TestNet tn{testutil::lineTopology(3), ProtocolKind::Bgp, cfg};
  tn.warmUp(30_sec);
  auto& bgp0 = tn.protocolAs<Bgp>(0);
  ASSERT_EQ(tn.nextHop(0, 2), 1);

  Link* l = tn.net().findLink(1, 2);
  Time t = 30_sec;
  for (int i = 0; i < 4; ++i) {
    tn.scheduler().scheduleAt(t, [l] { l->fail(); });
    tn.scheduler().scheduleAt(t + 2_sec, [l] { l->recover(); });
    t += 4_sec;
  }
  tn.runUntil(t + 1_sec);
  EXPECT_GT(bgp0.suppressions(), 0u);
  EXPECT_TRUE(bgp0.isSuppressed(1, 2));
  EXPECT_EQ(tn.nextHop(0, 2), kInvalidNode);  // suppressed => unusable

  // The penalty decays; the route must come back on its own.
  tn.runUntil(t + 60_sec);
  EXPECT_FALSE(bgp0.isSuppressed(1, 2));
  EXPECT_EQ(tn.nextHop(0, 2), 1);
}

TEST(FlapDamping, SingleFailureWithDampingStillConverges) {
  ScenarioConfig cfg = quick(ProtocolKind::Bgp3, 5, 3);
  cfg.protoCfg.bgp.flapDampingEnabled = true;
  const RunResult r = runScenario(cfg);
  EXPECT_TRUE(r.finalPathShortest);
  EXPECT_EQ(r.residual(), 0);
}

TEST(FlapDamping, OffByDefault) {
  BgpConfig cfg;
  EXPECT_FALSE(cfg.flapDampingEnabled);
}

}  // namespace
}  // namespace rcsim
