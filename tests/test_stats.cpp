#include "stats/collector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hpp"
#include "core/options.hpp"
#include "core/scenario.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "obs/anatomy.hpp"
#include "obs/path_walk.hpp"
#include "obs/trace.hpp"
#include "stats/route_log.hpp"
#include "stats/timeseries.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

TEST(TimeSeries, BucketsBySecond) {
  TimeSeries ts{3_sec};
  ts.recordDelivery(Time::milliseconds(500), 0.01);
  ts.recordDelivery(Time::milliseconds(900), 0.03);
  ts.recordDelivery(Time::milliseconds(1100), 0.05);
  EXPECT_EQ(ts.throughputAt(0), 2.0);
  EXPECT_EQ(ts.throughputAt(1), 1.0);
  EXPECT_EQ(ts.throughputAt(2), 0.0);
  EXPECT_DOUBLE_EQ(ts.meanDelayAt(0), 0.02);
  EXPECT_DOUBLE_EQ(ts.meanDelayAt(1), 0.05);
}

TEST(TimeSeries, OutOfRangeBucketsAreEmpty) {
  TimeSeries ts{Time::seconds(2.5)};  // buckets 0, 1 and 2
  // Deliveries outside [0, end) are not bucketed: a corrupt trace time
  // cannot grow the series.
  ts.recordDelivery(Time::seconds(2.9), 0.01);
  ts.recordDelivery(3_sec, 0.01);
  ts.recordDelivery(Time::seconds(1e9), 0.01);
  ts.recordDelivery(Time::seconds(-1.0), 0.01);
  EXPECT_EQ(ts.throughputAt(2), 1.0);
  EXPECT_EQ(ts.throughputAt(3), 0.0);
  EXPECT_EQ(ts.throughputAt(-1), 0.0);
  EXPECT_EQ(ts.throughputAt(1000), 0.0);
  EXPECT_EQ(ts.meanDelayAt(5), 0.0);
}

TEST(RouteChangeLog, ConvergenceSecondsFromWatermark) {
  RouteChangeLog log;
  log.setWatermark(10_sec);
  log.record(5_sec);  // pre-failure
  log.record(12_sec);  // post-failure
  log.record(Time::seconds(13.5));
  EXPECT_DOUBLE_EQ(log.convergenceSeconds(), 3.5);
  EXPECT_EQ(log.changesAfterWatermark(), 2u);
}

TEST(RouteChangeLog, NoChangeAfterWatermarkIsZero) {
  RouteChangeLog log;
  log.setWatermark(10_sec);
  log.record(5_sec);
  EXPECT_DOUBLE_EQ(log.convergenceSeconds(), 0.0);
  EXPECT_EQ(log.changesAfterWatermark(), 0u);
}

struct TracerFixture : ::testing::Test {
  TracerFixture() : net{sched, Rng{1}} {
    for (int i = 0; i < 4; ++i) net.addNode();  // 0-1-2-3 line
    net.addLink(0, 1, cfg);
    net.addLink(1, 2, cfg);
    net.addLink(2, 3, cfg);
    net.finalize();
  }
  Scheduler sched;
  LinkConfig cfg;
  Network net;
};

TEST_F(TracerFixture, CollectorWiresEverythingTogether) {
  StatsCollector stats{net.nodeCount(), StatsCollector::Config{0, 3, 1_sec}};
  net.trace().addSink(&stats);
  stats.setFailureWatermark(10_sec);

  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);

  // A delivered data packet.
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.ttl = 64;
  p.sizeBytes = 1000;
  p.kind = PacketKind::Data;
  p.sendTime = Time::zero();
  p.hops = net.openHopRecord(p.ttl);
  net.node(0).originate(std::move(p));
  sched.run();

  EXPECT_EQ(stats.data().delivered, 1u);
  EXPECT_EQ(stats.data().forwarded, 3u);
  EXPECT_EQ(stats.loopEscapedDeliveries(), 0u);
  EXPECT_EQ(stats.routeLog().changesAfterWatermark(), 0u);  // all before the watermark
  ASSERT_TRUE(stats.pathWalker().walkable());
  EXPECT_EQ(stats.pathWalker().currentPath(), (std::vector<NodeId>{0, 1, 2, 3}));
  // Delivered in bucket 0 with ~hops*(tx+prop) delay.
  EXPECT_EQ(stats.series().throughputAt(0), 1.0);
  EXPECT_GT(stats.series().meanDelayAt(0), 0.0);
}

TEST_F(TracerFixture, CollectorCountsLoopEscapees) {
  // A delivery's hop record that repeats a node, adjacent or not, escaped
  // a loop; a record without repeats, or no record, did not.
  StatsCollector stats{net.nodeCount(), StatsCollector::Config{0, 3}};
  net.trace().addSink(&stats);
  const auto deliver = [&](const std::vector<NodeId>& hops) {
    Packet p;
    p.kind = PacketKind::Data;
    p.dst = 3;
    if (!hops.empty()) p.hops = net.openHopRecord(64);
    for (const NodeId hop : hops) net.recordHop(p, hop);
    const PacketHandle h = net.park(std::move(p));
    net.notifyDeliver(1_sec, 3, net.packet(h));
    net.release(h);
  };
  deliver({0, 1, 2, 3});
  deliver({});
  EXPECT_EQ(stats.loopEscapedDeliveries(), 0u);
  deliver({0, 1, 0, 1, 2, 3});
  deliver({0, 1, 2, 1, 3});
  deliver({0, 1, 2, 3});  // marks from earlier records do not leak
  EXPECT_EQ(stats.data().delivered, 5u);
  EXPECT_EQ(stats.loopEscapedDeliveries(), 2u);
}

TEST_F(TracerFixture, CollectorSeparatesDataFromControl) {
  StatsCollector stats{net.nodeCount(), StatsCollector::Config{0, 3}};
  net.trace().addSink(&stats);
  struct Dummy final : ControlPayload {
    std::uint32_t sizeBytes() const override { return 8; }
    std::string describe() const override { return "dummy"; }
  };
  // Control toward a down link: counted as a control drop, not data.
  net.findLink(0, 1)->fail();
  net.node(0).sendControl(1, std::make_shared<Dummy>());
  sched.run();
  EXPECT_EQ(stats.control().dropLinkDown, 1u);
  EXPECT_EQ(stats.data().totalDropped(), 0u);
}

TEST_F(TracerFixture, WatermarkSplitsDropCounters) {
  StatsCollector stats{net.nodeCount(), StatsCollector::Config{0, 3}};
  net.trace().addSink(&stats);
  stats.setFailureWatermark(5_sec);
  net.node(0).setRoute(3, 1);
  net.node(1).setRoute(3, 2);
  net.node(2).setRoute(3, 3);

  auto emit = [&](Time at) {
    sched.scheduleAt(at, [&] {
      Packet p;
      p.id = net.nextPacketId();
      p.src = 0;
      p.dst = 3;
      p.ttl = 1;  // dies at node 1
      p.sizeBytes = 100;
      p.kind = PacketKind::Data;
      p.sendTime = sched.now();
      net.node(0).originate(std::move(p));
    });
  };
  emit(1_sec);
  emit(6_sec);
  sched.run();
  EXPECT_EQ(stats.data().dropTtl, 2u);
  EXPECT_EQ(stats.dataAfterWatermark().dropTtl, 1u);
}

// ------------------------------------------------------------- path walk

// The walker is fed synthetic (t, node, dst, newNh) route changes on a
// 4-node id space; src 0, dst 3.
TEST(PathWalk, RecordsDistinctPathsOnly) {
  obs::PathWalker walker{0, 3, 4};
  ASSERT_NE(walker.onRouteChange(1_sec, 2, 3, 3), nullptr);  // 0 has no route yet
  EXPECT_EQ(walker.onRouteChange(1_sec, 1, 3, 2), nullptr);  // still stuck at 0
  ASSERT_NE(walker.onRouteChange(1_sec, 0, 3, 1), nullptr);
  EXPECT_EQ(walker.onRouteChange(2_sec, 2, 3, 3), nullptr);  // unchanged route
  EXPECT_EQ(walker.onRouteChange(2_sec, 1, 0, 0), nullptr);  // other column
  ASSERT_EQ(walker.events().size(), 2u);
  EXPECT_EQ(walker.events()[0].path, (std::vector<NodeId>{0}));
  EXPECT_TRUE(walker.events()[0].blackhole);
  EXPECT_EQ(walker.events()[1].path, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_FALSE(walker.events()[1].loop);
  EXPECT_FALSE(walker.events()[1].blackhole);

  const obs::ReplayPathEvent* e = walker.onRouteChange(3_sec, 1, 3, kInvalidNode);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->t, 3_sec);
  EXPECT_EQ(e->path, (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(e->blackhole);
  EXPECT_EQ(walker.events().size(), 3u);
  EXPECT_EQ(walker.currentPath(), (std::vector<NodeId>{0, 1}));
}

TEST(PathWalk, DetectsLoops) {
  obs::PathWalker walker{0, 3, 4};
  walker.onRouteChange(1_sec, 0, 3, 1);
  walker.onRouteChange(1_sec, 1, 3, 0);
  ASSERT_EQ(walker.events().size(), 2u);
  EXPECT_EQ(walker.events()[1].path, (std::vector<NodeId>{0, 1, 0}));
  EXPECT_TRUE(walker.events()[1].loop);
  EXPECT_FALSE(walker.events()[1].blackhole);
}

TEST(PathWalk, FirstRouteChangeAlwaysWalks) {
  // Even a change outside the receiver's column records the opening path
  // (the full-FIB replay's dedup list is empty then); later ones do not.
  obs::PathWalker walker{0, 3, 4};
  EXPECT_TRUE(walker.currentPath().empty());
  const obs::ReplayPathEvent* e = walker.onRouteChange(1_sec, 2, 1, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->path, (std::vector<NodeId>{0}));
  EXPECT_TRUE(e->blackhole);
  EXPECT_EQ(walker.onRouteChange(2_sec, 1, 2, 2), nullptr);
  EXPECT_EQ(walker.events().size(), 1u);
}

TEST(PathWalk, UnusableEndpointsRecordNothing) {
  struct Endpoints {
    NodeId src;
    NodeId dst;
    std::size_t nodeCount;
  };
  for (const auto& [src, dst, nodeCount] :
       {Endpoints{kInvalidNode, 3, 4}, Endpoints{0, kInvalidNode, 4}, Endpoints{0, 4, 4},
        Endpoints{0, 3, 0}}) {
    obs::PathWalker walker{src, dst, nodeCount};
    EXPECT_FALSE(walker.walkable());
    EXPECT_EQ(walker.onRouteChange(1_sec, 0, 3, 1), nullptr);
    EXPECT_EQ(walker.onRouteChange(1_sec, 9, 9, 1), nullptr);  // not even range-checked
    EXPECT_TRUE(walker.events().empty());
    EXPECT_TRUE(walker.currentPath().empty());
  }
  // A usable walker treats an out-of-range node as a corrupt stream.
  obs::PathWalker walker{0, 3, 4};
  EXPECT_THROW(walker.onRouteChange(1_sec, 4, 3, 1), std::runtime_error);
  EXPECT_THROW(walker.onRouteChange(1_sec, 0, 7, 1), std::runtime_error);
  EXPECT_THROW(walker.onRouteChange(1_sec, 0, 3, 4), std::runtime_error);  // next hop
}

// ------------------------------------------- stats walker vs the live FIB

/// At every RouteChange, the stats walker's current path (and its loop /
/// black-hole flags) must be Network::fibWalk over the real FIBs. The
/// walker reads only RouteChange events, so this pins its column shadow to
/// the tables it stands in for. The stats collector is the first sink and
/// this oracle the last, so the walker has already seen the change being
/// checked.
class LiveFibOracle final : public obs::TraceSink {
 public:
  explicit LiveFibOracle(Scenario& sc) : sc_{sc} {}

  void onTraceEvent(const obs::TraceEvent& ev) override {
    if (ev.kind != obs::TraceKind::RouteChange) return;
    ++checks;
    bool loop = false;
    bool blackhole = false;
    const auto live = sc_.network().fibWalk(sc_.sender(), sc_.receiver(), &loop, &blackhole);
    const auto& events = sc_.stats().pathWalker().events();
    const bool same = !events.empty() && events.back().path == live &&
                      events.back().loop == loop && events.back().blackhole == blackhole;
    if (!same && mismatches++ == 0) firstMismatchAt = ev.t;
  }

  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  Time firstMismatchAt{};

 private:
  Scenario& sc_;
};

void expectWalkerTracksLiveFib(const ScenarioConfig& cfg, const char* label) {
  Scenario sc{cfg};
  LiveFibOracle oracle{sc};
  sc.attachTraceSink(&oracle);
  sc.run();
  EXPECT_GT(oracle.checks, 0u) << label;
  EXPECT_EQ(oracle.mismatches, 0u) << label << ": first mismatch at t="
                                   << oracle.firstMismatchAt.toSeconds();
}

TEST(Stats, WalkerTracksLiveFibOnGoldenConfigs) {
  // The 20 pinned golden scenarios (tests/test_perf_gate.cpp).
  for (const ProtocolKind kind :
       {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ScenarioConfig cfg;
      cfg.protocol = kind;
      cfg.mesh.degree = 4;
      cfg.seed = seed;
      const std::string label = std::string{toString(kind)} + " seed " + std::to_string(seed);
      expectWalkerTracksLiveFib(cfg, label.c_str());
    }
  }
}

TEST(Stats, WalkerTracksLiveFibUnderEcmp) {
  // Alternates never reach the walk: both sides follow primaries only.
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Dbf;
  cfg.mesh.degree = 4;
  cfg.seed = 3;
  cfg.ecmp = true;
  expectWalkerTracksLiveFib(cfg, "dbf ecmp=on");
}

TEST(Stats, WalkerTracksLiveFibThroughCrashAndRestart) {
  // A crash wipes the node's FIB through Node::clearRoutes, one route
  // change per entry; the restart rebuilds it from scratch.
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Dbf;
  cfg.seed = 2;
  cfg.injectFailure = false;
  cfg.faultPlan = fault::FaultPlan::parse("400:crash:24;460:restart:24");
  expectWalkerTracksLiveFib(cfg, "crash/restart");
}

// ------------------------------------------- one tally, cut into episodes

/// The collector is the run's only counter and the analyzer only cuts its
/// tally into episodes: the summary's drop attribution partitions the
/// data-plane drops by reason, its delivered and control counts are the
/// RunResult's, and the episodes together never bill more than the run
/// counted. Returns the run's loop drops.
std::uint64_t expectTallyPartitionsAnatomy(const ScenarioConfig& cfg, const std::string& label) {
  Scenario sc{cfg};
  sc.run();
  const RunResult r = summarizeRun(sc);
  const obs::AnatomySummary& a = r.anatomy;
  const PacketCounters& d = r.data;
  EXPECT_EQ(a.dropsLoop + a.dropsTtl, d.dropTtl) << label;
  EXPECT_EQ(a.dropsBlackhole, d.dropNoRoute) << label;
  EXPECT_EQ(a.dropsQueue, d.dropQueue) << label;
  EXPECT_EQ(a.dropsOther, d.dropLinkDown + d.dropInFlightCut + d.dropLoss + d.dropCorrupt)
      << label;
  EXPECT_EQ(a.delivered, d.delivered) << label;
  EXPECT_EQ(a.controlMessages, r.controlMessages) << label;
  EXPECT_EQ(a.controlBytes, r.controlBytes) << label;

  const obs::ConvergenceAnalyzer* analyzer = sc.convergenceAnalyzer();
  EXPECT_NE(analyzer, nullptr) << label;
  if (analyzer == nullptr) return 0;
  const obs::AnatomyReport& report = analyzer->report();
  EXPECT_FALSE(report.episodes.empty()) << label;
  obs::ConvergenceEpisode sum;
  for (const obs::ConvergenceEpisode& e : report.episodes) {
    sum.dropsLoop += e.dropsLoop;
    sum.dropsBlackhole += e.dropsBlackhole;
    sum.dropsTtl += e.dropsTtl;
    sum.dropsQueue += e.dropsQueue;
    sum.dropsOther += e.dropsOther;
    sum.delivered += e.delivered;
    sum.controlMessages += e.controlMessages;
    sum.controlBytes += e.controlBytes;
    sum.mraiDeferred += e.mraiDeferred;
    sum.dvTriggered += e.dvTriggered;
  }
  EXPECT_LE(sum.dropsLoop, a.dropsLoop) << label;
  EXPECT_LE(sum.dropsBlackhole, a.dropsBlackhole) << label;
  EXPECT_LE(sum.dropsTtl, a.dropsTtl) << label;
  EXPECT_LE(sum.dropsQueue, a.dropsQueue) << label;
  EXPECT_LE(sum.dropsOther, a.dropsOther) << label;
  EXPECT_LE(sum.delivered, a.delivered) << label;
  EXPECT_LE(sum.controlMessages, a.controlMessages) << label;
  EXPECT_LE(sum.controlBytes, a.controlBytes) << label;
  EXPECT_LE(sum.mraiDeferred, a.mraiArmed) << label;
  EXPECT_LE(sum.dvTriggered, a.dvTriggered) << label;
  return a.dropsLoop;
}

TEST(Stats, TallyPartitionsAnatomy) {
  std::uint64_t loopDrops = 0;
  // The 20 pinned golden scenarios (tests/test_perf_gate.cpp).
  for (const ProtocolKind kind :
       {ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp, ProtocolKind::Bgp3}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ScenarioConfig cfg;
      cfg.protocol = kind;
      cfg.mesh.degree = 4;
      cfg.seed = seed;
      loopDrops += expectTallyPartitionsAnatomy(
          cfg, std::string{toString(kind)} + " seed " + std::to_string(seed));
    }
  }
  // Hello detection and a fault plan: adjacency-driven episodes, a repair
  // episode, and hellos in the per-node control counts.
  ScenarioConfig hello;
  for (const char* opt : {"protocol=BGP3", "seed=2", "hello.enabled=1",
                          "fault-plan=420:fail:path:30"}) {
    applyOptionString(hello, opt);
  }
  loopDrops += expectTallyPartitionsAnatomy(hello, "BGP3 hello + fault plan");
  EXPECT_EQ(loopDrops, 0u);  // no golden path loops long enough to kill a packet
  // RIP on a degree-3 mesh loops transiently after the failure: the loop
  // kills 7 of the run's 8 TTL drops.
  ScenarioConfig loop;
  loop.protocol = ProtocolKind::Rip;
  loop.mesh.degree = 3;
  loop.seed = 2;
  EXPECT_EQ(expectTallyPartitionsAnatomy(loop, "RIP degree 3 seed 2"), 7u);
}

}  // namespace
}  // namespace rcsim
