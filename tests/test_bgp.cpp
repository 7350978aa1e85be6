#include "routing/bgp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"
#include "topo/graph_algo.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using testutil::TestNet;

ProtocolConfig fastBgp() {
  // BGP3-style MRAI so unit tests converge quickly.
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 2.25;
  cfg.bgp.mraiMaxSec = 3.0;
  return cfg;
}

TEST(Bgp, ConvergesOnLineWithFullPaths) {
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(60_sec);
  EXPECT_EQ(tn.nextHop(0, 3), 1);
  auto& bgp0 = tn.protocolAs<Bgp>(0);
  EXPECT_EQ(bgp0.bestPath(3), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(bgp0.bestVia(3), 1);
}

TEST(Bgp, MeshConvergesToShortestPaths) {
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(120_sec);
  const auto dist = bfsDistances(topo, gridId(0, 0, 5));
  auto& bgp = tn.protocolAs<Bgp>(gridId(0, 0, 5));
  for (NodeId d = 0; d < topo.nodeCount; ++d) {
    if (d == gridId(0, 0, 5)) continue;
    EXPECT_EQ(static_cast<int>(bgp.bestPath(d).size()), dist[static_cast<std::size_t>(d)])
        << "dst " << d;
  }
}

TEST(Bgp, KeepsAlternatePathsInAdjRibIn) {
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(60_sec);
  auto& bgp0 = tn.protocolAs<Bgp>(0);
  ASSERT_NE(bgp0.ribInPath(1, 4), nullptr);
  ASSERT_NE(bgp0.ribInPath(2, 4), nullptr);
  EXPECT_EQ(*bgp0.ribInPath(1, 4), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(*bgp0.ribInPath(2, 4), (std::vector<NodeId>{2, 3, 4}));
}

TEST(Bgp, InstantSwitchoverToCachedAlternate) {
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(60_sec);
  ASSERT_EQ(tn.nextHop(0, 4), 1);
  tn.net().findLink(0, 1)->fail();
  tn.runUntil(60_sec + 50_ms + Time::microseconds(1));
  EXPECT_EQ(tn.nextHop(0, 4), 2);
  EXPECT_EQ(tn.protocolAs<Bgp>(0).bestPath(4), (std::vector<NodeId>{2, 3, 4}));
}

TEST(Bgp, ReceiverSideLoopDetectionDiscardsOwnPaths) {
  // In steady state no node may hold a rib-in path containing itself.
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(120_sec);
  for (NodeId n = 0; n < topo.nodeCount; ++n) {
    auto& bgp = tn.protocolAs<Bgp>(n);
    for (const NodeId nb : tn.node(n).neighbors()) {
      for (NodeId d = 0; d < topo.nodeCount; ++d) {
        if (const auto* p = bgp.ribInPath(nb, d)) {
          EXPECT_EQ(std::find(p->begin(), p->end(), n), p->end())
              << "node " << n << " kept a looped path from " << nb << " for dst " << d;
        }
      }
    }
  }
}

TEST(Bgp, WithdrawalPropagatesUnreachabilityWithoutMraiDelay) {
  // Line 0-1-2-3: fail 2-3; node 0 (two hops upstream) must learn the
  // unreachability in well under one MRAI because withdrawals are exempt.
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 20.0;  // deliberately huge
  cfg.bgp.mraiMaxSec = 25.0;
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Bgp, cfg};
  tn.warmUp(60_sec);
  ASSERT_EQ(tn.nextHop(0, 3), 1);
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(60_sec + 1_sec);
  EXPECT_EQ(tn.nextHop(0, 3), kInvalidNode);
  EXPECT_EQ(tn.nextHop(1, 3), kInvalidNode);
}

TEST(Bgp, WithdrawalSubjectToMraiIsSlowAblation) {
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 20.0;
  cfg.bgp.mraiMaxSec = 25.0;
  cfg.bgp.withdrawalsExemptFromMrai = false;
  TestNet tn{testutil::lineTopology(4), ProtocolKind::Bgp, cfg};
  tn.warmUp(60_sec);
  // Make sure node 1's MRAI toward 0 is armed right before the failure, so
  // the withdrawal has to wait for it: trigger an unrelated change by
  // failing and recovering 0-1 is too blunt — instead rely on the warm-up
  // leaving timers idle and verify the *intermediate* state is stale.
  tn.net().findLink(2, 3)->fail();
  tn.runUntil(60_sec + 1_sec);
  // Node 2 itself knows immediately (local detection)...
  EXPECT_EQ(tn.nextHop(2, 3), kInvalidNode);
  // Node 1 does too (2's first update since idle flushes immediately)…
  // but that very update armed 2's MRAI; nothing further is pending, so
  // reachability state is consistent here. The ablation's damage shows in
  // larger scenarios (bench/ablation_damping); at unit level we only check
  // the configuration plumbs through.
  EXPECT_FALSE(tn.protocolAs<Bgp>(1).config().withdrawalsExemptFromMrai);
}

TEST(Bgp, MraiPacesConsecutiveUpdates) {
  // Count updates 1 sends to 0; in steady state there must be none, and
  // during a burst of changes the spacing must respect the MRAI.
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 5.0;
  cfg.bgp.mraiMaxSec = 5.0;  // deterministic spacing
  TestNet tn{testutil::ringTopology(6), ProtocolKind::Bgp, cfg};
  std::vector<Time> updateTimes;
  tn.net().setControlPayloadTap([&](Time t, NodeId from, NodeId to,
                                     const ControlPayload& payload) {
    if (from != 1 || to != 0) return;
    const auto* seg = dynamic_cast<const TransportSegment*>(&payload);
    if (seg == nullptr || seg->isAck || !seg->inner) return;
    const auto* upd = dynamic_cast<const BgpUpdate*>(seg->inner.get());
    if (upd != nullptr && !upd->advertised.empty()) updateTimes.push_back(t);
  });
  tn.warmUp(120_sec);
  updateTimes.clear();
  tn.net().findLink(3, 4)->fail();  // reshuffles several destinations
  tn.runUntil(200_sec);
  // Consecutive advertisement *batches* from 1 to 0 must be >= MRAI apart
  // (segments within one batch share a timestamp window of < 1 s).
  for (std::size_t i = 1; i < updateTimes.size(); ++i) {
    const double gap = (updateTimes[i] - updateTimes[i - 1]).toSeconds();
    EXPECT_TRUE(gap < 2.0 || gap >= 4.99) << "gap " << gap << " at " << i;
  }
}

TEST(Bgp, SessionResetOnLinkDownClearsRibIn) {
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(60_sec);
  auto& bgp0 = tn.protocolAs<Bgp>(0);
  ASSERT_NE(bgp0.ribInPath(1, 4), nullptr);
  tn.net().findLink(0, 1)->fail();
  tn.runUntil(60_sec + 1_sec);
  EXPECT_EQ(bgp0.ribInPath(1, 4), nullptr);
  EXPECT_EQ(bgp0.ribInPath(1, 1), nullptr);
}

TEST(Bgp, SessionReestablishmentReadvertisesFullTable) {
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(60_sec);
  tn.net().findLink(0, 1)->fail();
  tn.runUntil(70_sec);
  ASSERT_EQ(tn.nextHop(0, 4), 2);
  tn.net().findLink(0, 1)->recover();
  tn.runUntil(120_sec);
  // Direct 2-hop path via 1 wins again, and 0's rib holds 1's full view.
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  auto& bgp0 = tn.protocolAs<Bgp>(0);
  ASSERT_NE(bgp0.ribInPath(1, 4), nullptr);
  EXPECT_EQ(*bgp0.ribInPath(1, 4), (std::vector<NodeId>{1, 4}));
}

TEST(Bgp, NoHopCountInfinityLimit) {
  // Unlike RIP/DBF, the path vector has no 15-hop ceiling: a 20-node line
  // is fully reachable end to end.
  TestNet tn{testutil::lineTopology(20), ProtocolKind::Bgp, fastBgp()};
  tn.warmUp(200_sec);
  EXPECT_EQ(tn.nextHop(0, 19), 1);
  EXPECT_EQ(static_cast<int>(tn.protocolAs<Bgp>(0).bestPath(19).size()), 19);
}

TEST(Bgp, PerDestMraiModeConverges) {
  ProtocolConfig cfg = fastBgp();
  cfg.bgp.perDestMrai = true;
  TestNet tn{testutil::twoPathTopology(), ProtocolKind::Bgp, cfg};
  tn.warmUp(60_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 1);
  tn.net().findLink(1, 4)->fail();
  tn.runUntil(120_sec);
  EXPECT_EQ(tn.nextHop(0, 4), 2);
  EXPECT_EQ(tn.nextHop(1, 4), 0);
}

}  // namespace
}  // namespace rcsim

// ---- steady-state quiescence & pacing invariants (appended suite) ----

namespace rcsim {
namespace {

using testutil::TestNet;
using namespace rcsim::literals;

TEST(BgpQuiescence, NoUpdatesInSteadyState) {
  // Once converged, BGP is change-driven: a long quiet interval must carry
  // zero BGP updates (only transport-level silence too — no retransmits).
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 2.25;
  cfg.bgp.mraiMaxSec = 3.0;
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  TestNet tn{topo, ProtocolKind::Bgp, cfg};
  tn.warmUp(200_sec);
  std::uint64_t messages = 0;
  testutil::CallbackSink sends{obs::kindBit(obs::TraceKind::ControlSend),
                               [&messages](const obs::TraceEvent&) { ++messages; }};
  tn.net().trace().addSink(&sends);
  tn.runUntil(400_sec);
  EXPECT_EQ(messages, 0u);
}

TEST(BgpQuiescence, MraiJitterStaysInConfiguredBounds) {
  ProtocolConfig cfg;
  cfg.bgp.mraiMinSec = 22.5;
  cfg.bgp.mraiMaxSec = 30.0;
  TestNet tn{testutil::ringTopology(6), ProtocolKind::Bgp, cfg};
  tn.warmUp(400_sec);
  // Force a burst of changes, then measure the spacing of consecutive
  // advertisement batches from one node to one peer.
  std::vector<Time> sends;
  tn.net().setControlPayloadTap([&sends](Time t, NodeId from, NodeId to,
                                          const ControlPayload& payload) {
    if (from != 2 || to != 1) return;
    const auto* seg = dynamic_cast<const TransportSegment*>(&payload);
    if (seg == nullptr || seg->isAck || !seg->inner) return;
    const auto* upd = dynamic_cast<const BgpUpdate*>(seg->inner.get());
    if (upd != nullptr && !upd->advertised.empty()) sends.push_back(t);
  });
  tn.net().findLink(4, 5)->fail();
  tn.runUntil(600_sec);
  for (std::size_t i = 1; i < sends.size(); ++i) {
    const double gap = (sends[i] - sends[i - 1]).toSeconds();
    if (gap < 1.0) continue;  // same batch
    EXPECT_GE(gap, 22.5);
    EXPECT_LE(gap, 31.0);  // MRAI + processing slack
  }
}

}  // namespace
}  // namespace rcsim
