// Integration tests asserting the paper's five Observations *qualitatively*
// on multi-seed means (the quantitative record lives in EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/runner.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

/// Mean over seeds 1..runs of `cfg`.
Aggregate over(const ScenarioConfig& cfg, int runs) {
  const exp::CellResult cell = testutil::executorRuns(cfg, runs);
  EXPECT_FALSE(cell.failed());
  return cell.agg;
}

Aggregate sweep(ProtocolKind kind, int degree, int runs = 8) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = degree;
  return over(cfg, runs);
}

// Observation 1: packet drops decrease as node degree increases; with
// enough connectivity the cache-keeping protocols drop virtually nothing,
// while RIP improves only modestly (it still waits for announcements).
TEST(Observation1, DropsDecreaseWithConnectivity) {
  // RIP's decrease is gradual but reliable over a dense/sparse gap.
  const auto rip3 = sweep(ProtocolKind::Rip, 3, 12);
  const auto rip16 = sweep(ProtocolKind::Rip, 16, 12);
  EXPECT_GT(rip3.dropsNoRoute, rip16.dropsNoRoute);

  // The cache-keeping protocols drop only in the sparse regime; whether a
  // *particular* degree-3 failure leaves a valid cached alternate is
  // seed-dependent, so compare means with >= and pin the dense regime to
  // (virtually) zero.
  const auto dbf3 = sweep(ProtocolKind::Dbf, 3, 16);
  const auto dbf6 = sweep(ProtocolKind::Dbf, 6, 16);
  EXPECT_GE(dbf3.dropsNoRoute, dbf6.dropsNoRoute);
  EXPECT_LT(dbf6.dropsNoRoute, 1.0);

  const auto bgp3deg3 = sweep(ProtocolKind::Bgp3, 3);
  const auto bgp3deg6 = sweep(ProtocolKind::Bgp3, 6);
  EXPECT_GE(bgp3deg3.dropsNoRoute, bgp3deg6.dropsNoRoute);
  EXPECT_LT(bgp3deg6.dropsNoRoute, 1.0);
}

TEST(Observation1, RipKeepsDroppingEvenWhenDense) {
  const auto rip6 = sweep(ProtocolKind::Rip, 6);
  const auto rip10 = sweep(ProtocolKind::Rip, 10);
  const auto dbf6 = sweep(ProtocolKind::Dbf, 6);
  // RIP's drops stay orders of magnitude above DBF's at the same degree.
  EXPECT_GT(rip6.dropsNoRoute, 30.0);
  EXPECT_GT(rip10.dropsNoRoute, 20.0);
  EXPECT_LT(dbf6.dropsNoRoute, 1.0);
}

// Observation 2: TTL expirations (loops) are a sparse-regime phenomenon;
// RIP essentially never loops (it blackholes instead); BGP loops roughly an
// MRAI-ratio more than BGP3.
TEST(Observation2, LoopRegimeIsSparseAndBgpDominated) {
  const auto rip = sweep(ProtocolKind::Rip, 4);
  const auto dbf = sweep(ProtocolKind::Dbf, 4);
  const auto bgpSparse = sweep(ProtocolKind::Bgp, 3, 12);
  const auto bgp3Sparse = sweep(ProtocolKind::Bgp3, 3, 12);

  EXPECT_EQ(rip.dropsTtl, 0.0);
  EXPECT_EQ(dbf.dropsTtl, 0.0);
  // In the sparse regime BGP's loop losses dominate BGP3's.
  EXPECT_GE(bgpSparse.dropsTtl, bgp3Sparse.dropsTtl);

  for (const auto kind : {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp,
                          ProtocolKind::Bgp3}) {
    EXPECT_EQ(sweep(kind, 8, 4).dropsTtl, 0.0) << toString(kind);
  }
}

// Observation 3: instantaneous throughput. Sparse: every protocol dips at
// the failure; RIP stays near zero until the periodic update restores
// reachability (~30 s); dense: DBF/BGP3 keep effectively full throughput.
TEST(Observation3, ThroughputDipAndRecovery) {
  const auto rip = sweep(ProtocolKind::Rip, 3);
  const int f = rip.failSec;
  // Pre-failure steady state: 20 pkt/s.
  EXPECT_NEAR(rip.throughput[static_cast<std::size_t>(f - 5)], 20.0, 0.5);
  // Just after the failure RIP delivers (almost) nothing...
  EXPECT_LT(rip.throughput[static_cast<std::size_t>(f + 3)], 5.0);
  // ...but by ~40 s the periodic announcements have restored nearly all flow.
  EXPECT_GT(rip.throughput[static_cast<std::size_t>(f + 40)], 17.0);

  const auto dbf = sweep(ProtocolKind::Dbf, 6);
  EXPECT_GT(dbf.throughput[static_cast<std::size_t>(f + 2)], 19.0);
  const auto bgp3 = sweep(ProtocolKind::Bgp3, 6);
  EXPECT_GT(bgp3.throughput[static_cast<std::size_t>(f + 10)], 19.0);
}

// Observation 4: a smaller MRAI shortens both convergence measures a lot,
// yet in dense topologies the packet-delivery difference is negligible.
TEST(Observation4, FasterConvergenceIsNotBetterDelivery) {
  const auto bgp = sweep(ProtocolKind::Bgp, 6);
  const auto bgp3 = sweep(ProtocolKind::Bgp3, 6);
  EXPECT_GT(bgp.routingConvergenceSec, 3.0 * bgp3.routingConvergenceSec);
  EXPECT_GE(bgp.forwardingConvergenceSec, bgp3.forwardingConvergenceSec);
  // ...while drops hardly differ:
  EXPECT_LT(bgp.dropsNoRoute + bgp.dropsTtl, 1.0);
  EXPECT_LT(bgp3.dropsNoRoute + bgp3.dropsTtl, 1.0);
}

// Observation 5: packets delivered during convergence ride sub-optimal
// paths, so their delay exceeds the steady-state delay.
TEST(Observation5, ConvergencePacketsTakeLongerPaths) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Dbf;
  cfg.mesh.degree = 4;
  const auto agg = over(cfg, 12);
  const int f = agg.failSec;
  const double steady = agg.meanDelay[static_cast<std::size_t>(f - 5)];
  double duringMax = 0.0;
  for (int s = f; s < f + 10; ++s) {
    duringMax = std::max(duringMax, agg.meanDelay[static_cast<std::size_t>(s)]);
  }
  EXPECT_GT(steady, 0.0);
  EXPECT_GT(duringMax, steady);
}

}  // namespace
}  // namespace rcsim
