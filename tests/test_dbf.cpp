#include "routing/dbf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/fingerprint.hpp"
#include "fault/injector.hpp"
#include "test_util.hpp"
#include "topo/graph_algo.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

TEST(Dbf, ConvergesOnLine) {
  TestNet tn{testutil::lineTopology(5), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  EXPECT_EQ(tn.nextHop(4, 0), 3);
  EXPECT_EQ(tn.protocolAs<Dbf>(0).metricFor(4), 4);
}

TEST(Dbf, CachesPerNeighborDistances) {
  // Node 0 in the two-path graph hears about 4 from both neighbors: via 1
  // at distance 2 and via 2 at distance... 2's own distance is 2.
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  auto& dbf0 = tn.protocolAs<Dbf>(0);
  EXPECT_EQ(dbf0.metricFor(4), 2);
  EXPECT_EQ(dbf0.nextHopFor(4), 1);
  EXPECT_EQ(dbf0.cachedMetric(1, 4), 1);
  EXPECT_EQ(dbf0.cachedMetric(2, 4), 2);
}

TEST(Dbf, InstantSwitchoverOnFailure) {
  // The headline DBF property (paper §4.1): when the next hop dies, the
  // cached alternate takes over the moment the failure is *detected* —
  // strictly before any update message could arrive.
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  ASSERT_EQ(tn.nextHop(0, 4), 1);
  tn.net().findLink(0, 1)->fail();
  // Detection delay is 50 ms; one microsecond later the FIB must already
  // point at the alternate.
  tn.runUntil(40_sec + 50_ms + Time::microseconds(1));
  EXPECT_EQ(tn.nextHop(0, 4), 2);
  EXPECT_EQ(tn.protocolAs<Dbf>(0).metricFor(4), 3);
}

TEST(Dbf, PoisonedCacheEntryIsNotAnAlternate) {
  // Line 0-1-2: node 1's only route to 2 is direct; node 0's advertisement
  // to 1 is poisoned (0 routes via 1), so after 1-2 fails node 1 must not
  // switch to 0.
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  auto& dbf1 = tn.protocolAs<Dbf>(1);
  EXPECT_EQ(dbf1.cachedMetric(0, 2), 16);  // poison reverse in the cache
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(40_sec + 1_sec);
  EXPECT_EQ(tn.nextHop(1, 2), kInvalidNode);
}

TEST(Dbf, CountsToNextBestPathNotInfinity) {
  // Paper §6: "in a network with redundant connectivity, after a path
  // failure a distance vector routing protocol simply counts to the
  // next-best path instead of counting-into-infinity".
  TestNet tn{testutil::ringTopology(8), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  ASSERT_EQ(tn.protocolAs<Dbf>(0).metricFor(7), 1);
  tn.net().findLink(0, 7)->fail();
  tn.runUntil(140_sec);
  EXPECT_EQ(tn.protocolAs<Dbf>(0).metricFor(7), 7);
  EXPECT_EQ(tn.nextHop(0, 7), 1);
}

TEST(Dbf, SwitchoverMayPickStaleInvalidPathThenCorrects) {
  // Ring of 4: 0's alternates for dst 2 are 1 and 3, both distance 2.
  // Fail 0-1 *and* 1-2 simultaneously: 0's cache via 3 stays valid; the
  // stale entries via 1 vanish with the neighbor. End state must be the
  // valid path via 3.
  TestNet tn{testutil::ringTopology(4), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  tn.net().findLink(0, 1)->fail();
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(140_sec);
  EXPECT_EQ(tn.nextHop(0, 2), 3);
  EXPECT_EQ(tn.protocolAs<Dbf>(0).metricFor(2), 2);
  EXPECT_EQ(tn.nextHop(1, 2), kInvalidNode);  // 1 is fully cut off
  EXPECT_EQ(tn.nextHop(1, 0), kInvalidNode);
}

TEST(Dbf, DeterministicTieBreakPrefersIncumbentThenLowestId) {
  // Diamond: 0-1-3, 0-2-3. Both 1 and 2 offer distance-2 routes to 3.
  Topology diamond;
  diamond.nodeCount = 4;
  diamond.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  TestNet tn{diamond, ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  const NodeId first = tn.nextHop(0, 3);
  EXPECT_TRUE(first == 1 || first == 2);
  // Stability: more periodic cycles must not flap the choice.
  tn.runUntil(140_sec);
  EXPECT_EQ(tn.nextHop(0, 3), first);
}

TEST(Dbf, RecoversWhenLinkComesBack) {
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Dbf};
  tn.warmUp(40_sec);
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(50_sec);
  ASSERT_EQ(tn.nextHop(0, 2), kInvalidNode);
  tn.net().findLink(1, 2)->recover();
  tn.runUntil(100_sec);
  EXPECT_EQ(tn.nextHop(0, 2), 1);
  EXPECT_EQ(tn.nextHop(1, 2), 2);
}

TEST(Dbf, MeshConvergenceMatchesBfs) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 6});
  TestNet tn{topo, ProtocolKind::Dbf};
  tn.warmUp(60_sec);
  const auto dist = bfsDistances(topo, gridId(0, 0, 5));
  auto& dbf = tn.protocolAs<Dbf>(gridId(0, 0, 5));
  for (NodeId d = 0; d < topo.nodeCount; ++d) {
    EXPECT_EQ(dbf.metricFor(d), dist[static_cast<std::size_t>(d)]) << "dst " << d;
  }
}

TEST(Dbf, RejectsInfinityBeyondItsByteCache) {
  // The cache stores metrics as bytes, so an infinity of 300 would wrap to
  // 44: node 1 would cache node 0's poisoned route to 2 as a short one and,
  // once 1-2 failed, route to 2 via 0 at metric 45 — a phantom loop. Such
  // an infinity is refused outright; 255, the largest that fits, still
  // poisons correctly.
  ProtocolConfig cfg;
  cfg.dv.infinityMetric = 300;
  try {
    TestNet tn{testutil::lineTopology(3), ProtocolKind::Dbf, cfg};
    ADD_FAILURE() << "dv.infinity=300 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("dv.infinity"), std::string::npos) << e.what();
  }

  cfg.dv.infinityMetric = 255;
  TestNet tn{testutil::lineTopology(3), ProtocolKind::Dbf, cfg};
  tn.warmUp(40_sec);
  auto& dbf1 = tn.protocolAs<Dbf>(1);
  EXPECT_EQ(dbf1.metricFor(2), 1);
  EXPECT_EQ(dbf1.cachedMetric(0, 2), 255);
  tn.net().findLink(1, 2)->fail();
  tn.runUntil(50_sec);
  EXPECT_EQ(tn.nextHop(1, 2), kInvalidNode);
  EXPECT_EQ(tn.nextHop(0, 2), kInvalidNode);
  EXPECT_EQ(dbf1.metricFor(2), 255);
}

// The invariant DBF's merge skip rests on, read from the public accessors
// alone: for every live node u and destination d != u, the best metric is
// the minimum over u's neighbors n of min(cachedMetric(n, d) + 1, inf), the
// next hop is invalid exactly when that minimum is infinite, and otherwise
// the next hop's own candidate attains it.
::testing::AssertionResult tableIsFixedPoint(TestNet& tn) {
  const auto n = static_cast<NodeId>(tn.net().nodeCount());
  for (NodeId u = 0; u < n; ++u) {
    const auto* proto = tn.node(u).protocol();
    if (proto == nullptr) continue;  // crashed
    const auto& dbf = dynamic_cast<const Dbf&>(*proto);
    const int inf = dbf.config().infinityMetric;
    auto cand = [&](NodeId nb, NodeId d) { return std::min(dbf.cachedMetric(nb, d) + 1, inf); };
    for (NodeId d = 0; d < n; ++d) {
      if (d == u) continue;
      int best = inf;
      for (const NodeId nb : tn.node(u).neighbors()) best = std::min(best, cand(nb, d));
      const NodeId hop = dbf.nextHopFor(d);
      const bool hopOk = hop == kInvalidNode ? best >= inf : cand(hop, d) == best;
      if (dbf.metricFor(d) != best || !hopOk) {
        return ::testing::AssertionFailure()
               << "node " << u << " dst " << d << ": metric " << dbf.metricFor(d)
               << ", next hop " << hop << ", minimum candidate " << best;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Advance to `until` in 1 ms steps (each run stops between events),
// checking the fixed point after every step that executed an event.
::testing::AssertionResult runCheckingFixedPoint(TestNet& tn, Time from, Time until) {
  std::uint64_t checkedAt = ~std::uint64_t{0};
  for (Time t = from + 1_ms; t <= until; t += 1_ms) {
    tn.runUntil(t);
    const std::uint64_t executed = tn.scheduler().executedEvents();
    if (executed == checkedAt) continue;  // nothing ran: state unchanged
    checkedAt = executed;
    if (auto ok = tableIsFixedPoint(tn); !ok) return ok << " at " << t;
  }
  return ::testing::AssertionSuccess();
}

TEST(Dbf, TableIsFixedPointBetweenEvents) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  const NodeId a = gridId(2, 2, 5);
  const NodeId b = gridId(2, 3, 5);
  for (const bool ecmp : {false, true}) {
    SCOPED_TRACE(ecmp ? "ecmp=on" : "ecmp=off");
    TestNet tn{topo, ProtocolKind::Dbf, {}, {}, /*seed=*/1, ecmp};
    Link* link = tn.net().findLink(a, b);
    ASSERT_NE(link, nullptr);
    tn.net().startProtocols();
    ASSERT_TRUE(runCheckingFixedPoint(tn, Time::zero(), 20_sec));
    link->fail();
    ASSERT_TRUE(runCheckingFixedPoint(tn, 20_sec, 40_sec));
    link->recover();
    ASSERT_TRUE(runCheckingFixedPoint(tn, 40_sec, 60_sec));
    EXPECT_EQ(tn.protocolAs<Dbf>(a).metricFor(b), 1);
  }

  // A crash destroys the node's protocol and fails its links; the restart
  // boots a fresh instance from an all-infinity table.
  TestNet tn{topo, ProtocolKind::Dbf};
  fault::FaultInjector injector{
      tn.net(), fault::FaultPlan::parse("20:crash:12;40:restart:12"),
      [](Node& node) { return makeProtocol(ProtocolKind::Dbf, node, {}); }, /*dst=*/24,
      /*seed=*/1};
  injector.install();
  tn.net().startProtocols();
  ASSERT_TRUE(runCheckingFixedPoint(tn, Time::zero(), 60_sec));
  EXPECT_EQ(injector.nodeCrashes(), 1u);
  EXPECT_EQ(injector.nodeRestarts(), 1u);
  EXPECT_EQ(tn.protocolAs<Dbf>(0).metricFor(12), 4);
}

// ECMP and hold-down make every merged entry recompute (their state is not
// a function of the minimum alone); whole runs through that branch must
// reproduce the digests recorded before the merge skip existed.
TEST(Dbf, FullRecomputeRunsReproducePinnedDigests) {
  ScenarioConfig ecmp;
  ecmp.protocol = ProtocolKind::Dbf;
  ecmp.mesh.degree = 4;
  ecmp.seed = 1;
  ecmp.ecmp = true;
  EXPECT_EQ(runResultDigest(runScenario(ecmp)), "f12585a56305180c");

  // Cutting the receiver off drives every route to it to infinity, so the
  // hold-down windows really open (and change the run).
  ScenarioConfig hold;
  hold.protocol = ProtocolKind::Dbf;
  hold.mesh.degree = 4;
  hold.seed = 1;
  hold.protoCfg.dv.holdDownSec = 5.0;
  hold.faultPlan = fault::FaultPlan::parse("400:partition:dst;430:heal:dst");
  EXPECT_EQ(runResultDigest(runScenario(hold)), "8f57c0e98021e8a0");
}

}  // namespace
}  // namespace rcsim
