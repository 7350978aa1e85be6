#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

/// Three nodes in a line: a - m - b, manual FIBs, no routing protocol.
struct ForwardingFixture : ::testing::Test, obs::TraceSink {
  ForwardingFixture() : net{sched, Rng{3}} {
    a = net.addNode();
    m = net.addNode();
    b = net.addNode();
    net.addLink(a, m, cfg);
    net.addLink(m, b, cfg);
    net.finalize();
    net.node(a).setRoute(b, m);
    net.node(m).setRoute(b, b);
    net.node(m).setRoute(a, a);
    net.node(b).setRoute(a, m);

    // Delivered packets come from the nodes' delivery handlers (they carry
    // the whole packet, hop record included); drops, forwards and route
    // changes from the trace.
    for (const NodeId n : {a, m, b}) {
      net.node(n).addDeliveryHandler([this, n](const Packet& p) {
        const auto hops = net.hopRecord(p);
        delivered.push_back({p.ttl, std::vector<NodeId>(hops.begin(), hops.end())});
        deliveredAt.push_back(sched.now());
        deliveredNode.push_back(n);
      });
    }
    net.trace().addSink(this);
  }

  [[nodiscard]] std::uint32_t kinds() const override {
    return obs::kindBit(obs::TraceKind::Drop) | obs::kindBit(obs::TraceKind::Forward) |
           obs::kindBit(obs::TraceKind::RouteChange);
  }
  void onTraceEvent(const obs::TraceEvent& ev) override {
    switch (ev.kind) {
      case obs::TraceKind::Drop: drops.emplace_back(ev.a, static_cast<DropReason>(ev.y)); break;
      case obs::TraceKind::Forward: forwards.emplace_back(ev.a, ev.b); break;
      case obs::TraceKind::RouteChange:
        changes.emplace_back(ev.a, static_cast<NodeId>(ev.x), static_cast<NodeId>(ev.y),
                             static_cast<NodeId>(ev.z));
        break;
      default: break;
    }
  }

  Packet makePacket(NodeId src, NodeId dst, int ttl = 64) {
    Packet p;
    p.id = net.nextPacketId();
    p.src = src;
    p.dst = dst;
    p.ttl = ttl;
    p.sizeBytes = 1000;
    p.kind = PacketKind::Data;
    p.sendTime = sched.now();
    p.hops = net.openHopRecord(ttl);
    return p;
  }

  Scheduler sched;
  LinkConfig cfg;
  Network net;
  NodeId a{}, m{}, b{};
  struct Delivered {
    int ttl;
    std::vector<NodeId> hops;
  };
  std::vector<Delivered> delivered;
  std::vector<Time> deliveredAt;
  std::vector<NodeId> deliveredNode;
  std::vector<std::pair<NodeId, DropReason>> drops;
  std::vector<std::pair<NodeId, NodeId>> forwards;
  std::vector<std::tuple<NodeId, NodeId, NodeId, NodeId>> changes;
};

TEST_F(ForwardingFixture, EndToEndDelivery) {
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(deliveredNode[0], b);
  ASSERT_EQ(forwards.size(), 2u);
  EXPECT_EQ(forwards[0], std::make_pair(a, m));
  EXPECT_EQ(forwards[1], std::make_pair(m, b));
}

TEST_F(ForwardingFixture, TraceRecordsVisitedNodes) {
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].hops, (std::vector<NodeId>{a, m, b}));
}

TEST_F(ForwardingFixture, RecycledHopRecordStartsEmpty) {
  // m bounces the first packet back to a until its route is repaired at
  // 5 ms: a m a m b escaped a loop. The second, loop-free packet reuses the
  // span the first released and must report its own three hops.
  std::vector<std::pair<std::int64_t, std::int64_t>> deliveries;  // (repeated, hops)
  testutil::CallbackSink sink{obs::kindBit(obs::TraceKind::Deliver),
                              [&](const obs::TraceEvent& ev) {
                                deliveries.emplace_back(ev.b, ev.z);
                              }};
  net.trace().addSink(&sink);
  net.node(m).setRoute(b, a);
  net.node(a).originate(makePacket(a, b));
  sched.scheduleAt(5_ms, [this] { net.node(m).setRoute(b, b); });
  sched.scheduleAt(20_ms, [this] { net.node(a).originate(makePacket(a, b)); });
  sched.run();
  ASSERT_EQ(delivered.size(), 2u);
  // A record keeps as many ids as there are nodes; five visits of three
  // nodes repeat one even without the rest.
  EXPECT_EQ(delivered[0].hops, (std::vector<NodeId>{a, m, a}));
  EXPECT_EQ(delivered[1].hops, (std::vector<NodeId>{a, m, b}));
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], std::make_pair(std::int64_t{1}, std::int64_t{5}));
  EXPECT_EQ(deliveries[1], std::make_pair(std::int64_t{0}, std::int64_t{3}));
  EXPECT_EQ(net.packetsInFlight(), 0u);
}

TEST_F(ForwardingFixture, CopyingAPacketThatHoldsAHopRecordThrows) {
  Packet p = makePacket(a, b);
  ASSERT_TRUE(p.hops.held());
  EXPECT_THROW({ [[maybe_unused]] Packet copy = p; }, std::logic_error);
  Packet other;
  EXPECT_THROW(other = p, std::logic_error);
  // Moving hands the record on and leaves none behind.
  Packet moved = std::move(p);
  EXPECT_TRUE(moved.hops.held());
  EXPECT_FALSE(p.hops.held());  // NOLINT(bugprone-use-after-move)
  Packet copy = p;
  EXPECT_FALSE(copy.hops.held());
}

TEST_F(ForwardingFixture, TtlDecrementedPerTransitHop) {
  net.node(a).originate(makePacket(a, b, 64));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  // Decremented at m only (origination and delivery don't decrement).
  EXPECT_EQ(delivered[0].ttl, 63);
}

TEST_F(ForwardingFixture, TtlExpiryDropsAtTransit) {
  net.node(a).originate(makePacket(a, b, 1));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(m, DropReason::TtlExpired));
}

TEST_F(ForwardingFixture, NoRouteDropsAtBlackholeNode) {
  net.node(m).setRoute(b, kInvalidNode);
  net.node(a).originate(makePacket(a, b));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(m, DropReason::NoRoute));
}

TEST_F(ForwardingFixture, NoRouteAtOriginDropsImmediately) {
  net.node(a).setRoute(b, kInvalidNode);
  net.node(a).originate(makePacket(a, b));
  sched.run();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0], std::make_pair(a, DropReason::NoRoute));
}

TEST_F(ForwardingFixture, DeliveryToSelf) {
  net.node(a).originate(makePacket(a, a));
  sched.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(deliveredNode[0], a);
  EXPECT_TRUE(forwards.empty());
}

TEST_F(ForwardingFixture, TwoNodeForwardingLoopExpiresTtl) {
  // Misconfigure: a and m point at each other for dst b.
  net.node(m).setRoute(b, a);
  net.node(a).originate(makePacket(a, b, 10));
  sched.run();
  EXPECT_TRUE(delivered.empty());
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].second, DropReason::TtlExpired);
}

TEST_F(ForwardingFixture, RouteChangeHookFires) {
  net.node(a).setRoute(b, m);  // unchanged: no event
  EXPECT_TRUE(changes.empty());
  net.node(a).setRoute(b, kInvalidNode);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0], std::make_tuple(a, b, m, kInvalidNode));
}

TEST_F(ForwardingFixture, RouteViaAnUnattachedNodeThrowsAndKeepsTheFib) {
  // a's only neighbor is m: b and a itself are not next hops it can use.
  EXPECT_THROW(net.node(a).setRoute(b, b), std::logic_error);
  EXPECT_THROW(net.node(a).setRoute(b, a), std::logic_error);
  EXPECT_THROW(net.node(a).setRoute(m, 42), std::logic_error);
  const NodeId badAlternate[] = {m, b};
  EXPECT_THROW(net.node(a).setRoutes(b, badAlternate, 2), std::logic_error);
  const NodeId badPrimary[] = {a};
  EXPECT_THROW(net.node(a).setRoutes(b, badPrimary, 1), std::logic_error);
  EXPECT_EQ(net.node(a).fib().nextHop(b), m);
  EXPECT_EQ(net.node(a).fib().nextHop(m), kInvalidNode);
  EXPECT_TRUE(changes.empty());
  // The route still forwards.
  net.node(a).originate(makePacket(a, b));
  sched.run();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(ForwardingFixture, FibWalkReportsPathLoopAndBlackhole) {
  bool loop = false, blackhole = false;
  auto path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_EQ(path, (std::vector<NodeId>{a, m, b}));
  EXPECT_FALSE(loop);
  EXPECT_FALSE(blackhole);

  net.node(m).setRoute(b, kInvalidNode);
  path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_TRUE(blackhole);
  EXPECT_EQ(path, (std::vector<NodeId>{a, m}));

  net.node(m).setRoute(b, a);
  path = net.fibWalk(a, b, &loop, &blackhole);
  EXPECT_TRUE(loop);
}

TEST_F(ForwardingFixture, ShortestPathLiveRespectsLinkState) {
  EXPECT_EQ(net.shortestDistLive(a, b), 2);
  net.findLink(m, b)->fail();
  EXPECT_EQ(net.shortestDistLive(a, b), -1);
  EXPECT_TRUE(net.shortestPathLive(a, b).empty());
}

TEST_F(ForwardingFixture, ControlPacketGoesToProtocolNotFib) {
  // A node with no protocol silently consumes control payloads.
  struct Dummy final : ControlPayload {
    std::uint32_t sizeBytes() const override { return 8; }
    std::string describe() const override { return "dummy"; }
  };
  net.node(a).sendControl(m, std::make_shared<Dummy>());
  sched.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(drops.empty());
}

}  // namespace
}  // namespace rcsim
