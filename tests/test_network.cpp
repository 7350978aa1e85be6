// Network container and topology-query tests.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace_io.hpp"
#include "sim/scheduler.hpp"
#include "topo/topology.hpp"

namespace rcsim {
namespace {

TEST(Network, DenseIdsInCreationOrder) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  EXPECT_EQ(net.addNode(), 0);
  EXPECT_EQ(net.addNode(), 1);
  EXPECT_EQ(net.addNode(), 2);
  EXPECT_EQ(net.nodeCount(), 3u);
}

TEST(Network, FindLinkEitherDirection) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  net.addNode();
  net.addNode();
  Link& l = net.addLink(0, 1, LinkConfig{});
  EXPECT_EQ(net.findLink(0, 1), &l);
  EXPECT_EQ(net.findLink(1, 0), &l);
  EXPECT_EQ(net.findLink(0, 0), nullptr);
}

TEST(Network, NeighborsReflectAttachedLinks) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  for (int i = 0; i < 4; ++i) net.addNode();
  net.addLink(0, 1, LinkConfig{});
  net.addLink(0, 2, LinkConfig{});
  EXPECT_EQ(net.node(0).neighbors().size(), 2u);
  EXPECT_EQ(net.node(3).neighbors().size(), 0u);
  EXPECT_TRUE(net.node(0).neighborReachable(1));
  net.findLink(0, 1)->fail();
  EXPECT_FALSE(net.node(0).neighborReachable(1));
}

TEST(Network, ShortestPathLiveOnMesh) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  const auto topo = makeRegularMesh(MeshSpec{5, 5, 4});
  for (int i = 0; i < topo.nodeCount; ++i) net.addNode();
  for (const auto& [a, b] : topo.edges) net.addLink(a, b, LinkConfig{});
  net.finalize();
  EXPECT_EQ(net.shortestDistLive(gridId(0, 0, 5), gridId(4, 4, 5)), 8);
  // Cutting a corner link forces the detour accounting to update.
  net.findLink(gridId(0, 0, 5), gridId(0, 1, 5))->fail();
  net.findLink(gridId(0, 0, 5), gridId(1, 0, 5))->fail();
  EXPECT_EQ(net.shortestDistLive(gridId(0, 0, 5), gridId(4, 4, 5)), -1);
}

TEST(Network, HopRecordsKeepTheirIdsWhenAWiderTtlRestridesThePool) {
  // A record sized for TTL 1 is live when one for TTL 64 widens the pool's
  // stride; the first keeps its ids, both count every visit, and a record
  // holds at most one id per node.
  Scheduler sched;
  Network net{sched, Rng{1}};
  for (int i = 0; i < 6; ++i) net.addNode();
  Packet shortLived;
  shortLived.hops = net.openHopRecord(1);  // two visits
  net.recordHop(shortLived, 4);
  net.recordHop(shortLived, 2);
  Packet longLived;
  longLived.hops = net.openHopRecord(64);  // capped at six ids
  for (const NodeId n : {0, 1, 2, 3, 4, 5, 0, 1}) net.recordHop(longLived, n);
  const auto ids = [&net](const Packet& p) {
    const auto kept = net.hopRecord(p);
    return std::vector<NodeId>(kept.begin(), kept.end());
  };
  EXPECT_EQ(ids(shortLived), (std::vector<NodeId>{4, 2}));
  EXPECT_EQ(ids(longLived), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  const PacketHandle first = net.park(std::move(shortLived));
  const PacketHandle second = net.park(std::move(longLived));
  EXPECT_EQ(net.packetsInFlight(), 2u);
  net.release(first);
  net.release(second);
  EXPECT_EQ(net.packetsInFlight(), 0u);
}

TEST(Network, FibWalkTrivialCases) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  net.addNode();
  net.addNode();
  net.addLink(0, 1, LinkConfig{});
  net.finalize();
  bool loop = true;
  bool blackhole = false;
  // src == dst: a one-node path, no blackhole.
  const auto self = net.fibWalk(0, 0, &loop, &blackhole);
  EXPECT_EQ(self, (std::vector<NodeId>{0}));
  EXPECT_FALSE(loop);
  EXPECT_FALSE(blackhole);
  // No route installed: immediate blackhole.
  const auto walk = net.fibWalk(0, 1, &loop, &blackhole);
  EXPECT_TRUE(blackhole);
  EXPECT_EQ(walk, (std::vector<NodeId>{0}));
}

// A FIB entry is a one-byte neighbor slot (0..254; 0xFF is "no route"), so
// finalize() refuses a node with more neighbors than that.
TEST(Network, FinalizeRejectsDegreeAboveTheFibSlotRange) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  const NodeId hub = net.addNode();
  for (int i = 0; i < 255; ++i) net.addLink(hub, net.addNode(), LinkConfig{});
  net.finalize();  // 255 neighbors: the last one gets slot 254
  const NodeId lastLeaf = net.node(hub).neighbors().back();
  net.node(hub).setRoute(lastLeaf, lastLeaf);
  EXPECT_EQ(net.node(hub).fib().slot(lastLeaf), 254);
  EXPECT_EQ(net.node(hub).fib().nextHop(lastLeaf), lastLeaf);

  net.addLink(hub, net.addNode(), LinkConfig{});  // the 256th leaf
  try {
    net.finalize();
    FAIL() << "finalize accepted a node of degree 256";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 0 has degree 256"), std::string::npos) << what;
  }
}

TEST(Network, PacketIdsAreUnique) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  const auto a = net.nextPacketId();
  const auto b = net.nextPacketId();
  EXPECT_NE(a, b);
}

TEST(Network, TraceSinkReceivesFailureEvents) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  net.addNode();
  net.addNode();
  Link& l = net.addLink(0, 1, LinkConfig{});
  obs::MemoryTraceSink sink;
  net.trace().addSink(&sink);
  l.fail();
  l.recover();
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].kind, obs::TraceKind::LinkDown);
  EXPECT_EQ(sink.events()[1].kind, obs::TraceKind::LinkUp);
  EXPECT_EQ(sink.events()[0].a, 0);
  EXPECT_EQ(sink.events()[0].b, 1);
}

/// Records everything it is handed but asks only for `kinds`.
class AskingSink final : public obs::MemoryTraceSink {
 public:
  explicit AskingSink(std::uint32_t kinds) : kinds_{kinds} {}
  [[nodiscard]] std::uint32_t kinds() const override { return kinds_; }

 private:
  std::uint32_t kinds_;
};

TEST(Network, EmittedKindsAreUnionOfSinkKinds) {
  Scheduler sched;
  Network net{sched, Rng{1}};
  net.addNode();
  net.addNode();
  Link& l = net.addLink(0, 1, LinkConfig{});
  net.finalize();
  EXPECT_EQ(net.trace().kinds(), 0u);  // no sinks: nothing is built

  AskingSink routes{obs::kindBit(obs::TraceKind::RouteChange)};
  AskingSink downs{obs::kindBit(obs::TraceKind::LinkDown)};
  net.trace().addSink(&routes);
  net.trace().addSink(&downs);
  EXPECT_EQ(net.trace().kinds(),
            obs::kindBit(obs::TraceKind::RouteChange) | obs::kindBit(obs::TraceKind::LinkDown));

  // An emitted kind reaches only the sinks that asked for it; one nobody
  // asked for reaches none and is not counted.
  net.node(0).setRoute(1, 1);
  l.fail();
  l.recover();
  ASSERT_EQ(routes.events().size(), 1u);
  EXPECT_EQ(routes.events()[0].kind, obs::TraceKind::RouteChange);
  ASSERT_EQ(downs.events().size(), 1u);
  EXPECT_EQ(downs.events()[0].kind, obs::TraceKind::LinkDown);
  const obs::KindCounts& counts = net.trace().kindCounts();
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::TraceKind::RouteChange)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::TraceKind::LinkDown)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::TraceKind::LinkUp)], 0u);

  // Removing a sink drops its kinds from the union.
  net.trace().removeSink(&downs);
  EXPECT_EQ(net.trace().kinds(), obs::kindBit(obs::TraceKind::RouteChange));
  l.fail();
  net.node(0).setRoute(1, kInvalidNode);
  ASSERT_EQ(routes.events().size(), 2u);
  EXPECT_EQ(routes.events()[1].kind, obs::TraceKind::RouteChange);
  EXPECT_EQ(downs.events().size(), 1u);
  EXPECT_EQ(net.trace().kindCounts()[static_cast<std::size_t>(obs::TraceKind::LinkDown)], 1u);

  // A default sink asks for everything.
  obs::MemoryTraceSink all;
  net.trace().addSink(&all);
  EXPECT_EQ(net.trace().kinds(), obs::kAllKinds);
}

}  // namespace
}  // namespace rcsim
