#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fingerprint.hpp"
#include "core/options.hpp"
#include "core/scenario.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "routing/factory.hpp"
#include "sim/random.hpp"
#include "sim/watchdog.hpp"
#include "test_util.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;
using fault::FaultPlan;

// ---------------------------------------------------------------- plan DSL

TEST(FaultPlan, RoundTripsEveryKind) {
  const std::string text =
      "395:loss:*:0.02;395:corrupt:24-25:0.01;396:reorder:*:0.1:50;"
      "397:ctrl-loss:*:0.2;397:ctrl-delay:24-25:250;398:ctrl-dup:*:0.5;"
      "399:detect:24-25:2000;400:fail:24-25;400:crash:24;400:partition:0,1,2;"
      "390:churn:120:10:790;400:partition:dst;405:fail:dst-3;410:crash:dst;"
      "420:flapburst:24-25:3:10;400:fail:path;405:fail:path/3;410:fail:path/1:0.5;"
      "460:heal:0,1,2;460:restart:24;460:recover:24-25";
  const FaultPlan p = FaultPlan::parse(text);
  ASSERT_EQ(p.events.size(), 21u);
  EXPECT_EQ(p.format(), text);               // input was already canonical
  EXPECT_EQ(FaultPlan::parse(p.format()), p);  // and the form is stable
  EXPECT_EQ(FaultPlan::parse("400:fail:path/0").format(), "400:fail:path");
}

TEST(FaultPlan, EmptyAndTrailingSemicolon) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_EQ(FaultPlan{}.format(), "");
  const FaultPlan p = FaultPlan::parse("400:fail:1-2;");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.format(), "400:fail:1-2");
}

TEST(FaultPlan, RejectsMalformedEvents) {
  const std::vector<std::string> bad{
      "400",                    // too few fields
      "400:fail",               // missing endpoints
      "400:explode:1-2",        // unknown kind
      "400:fail:12",            // endpoints need a dash
      "400:fail:a-b",           // non-numeric node
      "x:fail:1-2",             // non-numeric time
      "-1:fail:1-2",            // negative time
      "400:loss:*:1.5",         // rate out of range
      "400:loss:*",             // missing rate
      "400:reorder:*:0.1",      // missing jitter
      "400:reorder:*:0.1:-5",   // negative jitter
      "400:detect:1-2:-1",      // negative detect delay
      "400:partition:",         // empty group
      "400:fail:1-2:extra",     // too many fields for the kind
      "400:fail:dest-2",        // only 'dst' is a node token
      "400:ctrl-loss:*",        // missing rate
      "400:ctrl-loss:*:1.5",    // rate out of range
      "400:ctrl-dup:1-2:-0.1",  // rate out of range
      "400:ctrl-delay:1-2:-5",  // negative delay
      "400:flapburst:*:3:10",   // star endpoints not allowed
      "400:flapburst:1-2:0:10", // count < 1
      "400:flapburst:1-2:2.5:10",  // non-integer count
      "400:flapburst:1-2:3:0",  // period must be > 0
      "400:flapburst:1-2:3",    // missing period
      "400:churn:0:10:790",     // mtbf must be > 0
      "400:churn:-5:10:790",    // mtbf must be > 0
      "400:churn:120:0:790",    // mttr must be > 0
      "400:churn:120:-1:790",   // mttr must be > 0
      "400:churn:inf:10:790",   // mtbf must be finite (and <= 1e6 s)
      "400:churn:120:2e6:790",  // mttr must be <= 1e6 s
      "400:churn:120:10:399",   // stop before start
      "400:churn:120:10",       // missing stop
      "400:churn:120:10:790:1", // too many fields
      "400:churn:*:10:790",     // mtbf is a number, not endpoints
      "400:fail:path/",         // missing flow index
      "400:fail:path/x",        // non-numeric flow index
      "400:fail:path/-1",       // negative flow index
      "400:fail:paths",         // not a path target
      "400:recover:path",       // only a failure picks its link
      "400:fail:path:-1",       // negative repair delay
      "400:fail:path:inf",      // "never" is the absent field
      "400:fail:path:60:1",     // too many fields
      "400:fail:1-2:60",        // repair delays belong to path targets
      "nan:fail:1-2",           // every number is finite ...
      "inf:fail:1-2",
      "400:loss:*:nan",
      "400:reorder:*:0.1:inf",
      "400:flapburst:1-2:3:nan",
      "1e10:fail:1-2",          // ... and within +-1e9
      "400:detect:1-2:1e13",
      "400:churn:120:10:1e12",
  };
  for (const auto& text : bad) {
    EXPECT_THROW((void)FaultPlan::parse(text), std::invalid_argument) << text;
  }
}

// ------------------------------------------------- plan DSL property fuzz

/// Draw one random-but-valid fault event. Rates and times are raw random
/// doubles, so the round-trip property below covers the printer's full
/// precision, not just pretty values.
fault::FaultEvent randomFaultEvent(Rng& rng) {
  fault::FaultEvent ev;
  ev.at = Time::nanoseconds(rng.uniformInt(0, 2'000'000'000'000LL));
  switch (rng.uniformInt(0, 14)) {
    case 0: ev.kind = fault::FaultKind::LinkFail; break;
    case 1: ev.kind = fault::FaultKind::LinkRecover; break;
    case 2: ev.kind = fault::FaultKind::NodeCrash; break;
    case 3: ev.kind = fault::FaultKind::NodeRestart; break;
    case 4: ev.kind = fault::FaultKind::LinkLoss; break;
    case 5: ev.kind = fault::FaultKind::LinkCorrupt; break;
    case 6: ev.kind = fault::FaultKind::LinkReorder; break;
    case 7: ev.kind = fault::FaultKind::DetectDelay; break;
    case 8: ev.kind = fault::FaultKind::Partition; break;
    case 9: ev.kind = fault::FaultKind::CtrlLoss; break;
    case 10: ev.kind = fault::FaultKind::CtrlDelay; break;
    case 11: ev.kind = fault::FaultKind::CtrlDup; break;
    case 12: ev.kind = fault::FaultKind::FlapBurst; break;
    case 13: ev.kind = fault::FaultKind::Churn; break;
    default: ev.kind = fault::FaultKind::Heal; break;
  }
  switch (ev.kind) {
    case fault::FaultKind::LinkFail:
    case fault::FaultKind::LinkRecover:
    case fault::FaultKind::DetectDelay:
      ev.a = static_cast<NodeId>(rng.uniformInt(0, 9999));
      ev.b = static_cast<NodeId>(rng.uniformInt(0, 9999));
      if (ev.kind == fault::FaultKind::DetectDelay) {
        ev.detect = Time::milliseconds(rng.uniformInt(0, 100000));
      }
      break;
    case fault::FaultKind::NodeCrash:
    case fault::FaultKind::NodeRestart:
      ev.a = static_cast<NodeId>(rng.uniformInt(0, 9999));
      break;
    case fault::FaultKind::LinkLoss:
    case fault::FaultKind::LinkCorrupt:
    case fault::FaultKind::LinkReorder:
    case fault::FaultKind::CtrlLoss:
    case fault::FaultKind::CtrlDup:
    case fault::FaultKind::CtrlDelay:
      ev.allLinks = rng.uniform01() < 0.5;
      if (!ev.allLinks) {
        ev.a = static_cast<NodeId>(rng.uniformInt(0, 9999));
        ev.b = static_cast<NodeId>(rng.uniformInt(0, 9999));
      }
      if (ev.kind == fault::FaultKind::CtrlDelay) {
        ev.jitter = Time::milliseconds(rng.uniformInt(0, 100000));
      } else {
        ev.rate = rng.uniform01();
      }
      if (ev.kind == fault::FaultKind::LinkReorder) {
        ev.jitter = Time::milliseconds(rng.uniformInt(0, 100000));
      }
      break;
    case fault::FaultKind::FlapBurst:
      ev.a = static_cast<NodeId>(rng.uniformInt(0, 9999));
      ev.b = static_cast<NodeId>(rng.uniformInt(0, 9999));
      ev.count = static_cast<int>(rng.uniformInt(1, 1000));
      ev.period = Time::seconds(static_cast<double>(rng.uniformInt(1, 3600)));
      break;
    case fault::FaultKind::Churn:
      ev.mtbf = rng.uniform(0.001, 1000.0);
      ev.mttr = rng.uniform(0.001, 1000.0);
      ev.stop = ev.at + Time::nanoseconds(rng.uniformInt(0, 2'000'000'000'000LL));
      break;
    case fault::FaultKind::Partition:
    case fault::FaultKind::Heal: {
      const auto size = rng.uniformInt(1, 12);
      for (std::int64_t i = 0; i < size; ++i) {
        ev.group.push_back(static_cast<NodeId>(rng.uniformInt(0, 9999)));
      }
      break;
    }
  }
  // Sprinkle the `dst` token over node references.
  if (ev.a != kInvalidNode && rng.uniform01() < 0.1) ev.a = fault::kFlowDst;
  if (!ev.group.empty() && rng.uniform01() < 0.1) ev.group.front() = fault::kFlowDst;
  // Turn a third of the failures into path targets, from values already
  // drawn (no extra draws, so the rest of the stream is unchanged).
  if (ev.kind == fault::FaultKind::LinkFail && ev.b % 3 == 0) {
    ev.pathFlow = ev.b % 7;
    if (ev.b % 2 == 0) ev.repair = Time::nanoseconds(ev.b * 1'000'003LL);
    ev.a = kInvalidNode;
    ev.b = kInvalidNode;
  }
  return ev;
}

TEST(FaultPlan, PropertyRandomValidPlansRoundTripByteIdentically) {
  Rng rng{0xFA17'F1A9ULL};
  for (int round = 0; round < 200; ++round) {
    FaultPlan plan;
    const auto count = rng.uniformInt(1, 8);
    for (std::int64_t i = 0; i < count; ++i) plan.events.push_back(randomFaultEvent(rng));
    const std::string text = plan.format();
    const FaultPlan back = FaultPlan::parse(text);
    EXPECT_EQ(back, plan) << "round " << round << ": " << text;
    EXPECT_EQ(back.format(), text) << "round " << round;
  }
}

TEST(FaultPlan, PropertyRandomBytesNeverCrashTheParser) {
  // Random strings over the DSL's own alphabet (plus junk) must either
  // parse or throw invalid_argument — nothing else, and no UB for the
  // sanitizer job to find. Seeded, so a failure replays exactly.
  static constexpr char kAlphabet[] = "0123456789:;-*,.eE+ \tabchlrfpxz\\\"\x01\x7f";
  Rng rng{0xDEAD'BEEFULL};
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const auto len = rng.uniformInt(0, 48);
    for (std::int64_t i = 0; i < len; ++i) {
      text += kAlphabet[rng.uniformInt(0, static_cast<std::int64_t>(sizeof(kAlphabet)) - 2)];
    }
    try {
      (void)FaultPlan::parse(text);
    } catch (const std::invalid_argument&) {
      // the only contract-approved escape
    }
  }
}

TEST(FaultPlan, PropertyMutatedValidPlansThrowCleanlyOrParse) {
  // Single-character corruptions of a canonical plan: the parser must
  // accept or reject each one cleanly, never crash or loop.
  const std::string canon =
      "395:loss:*:0.02;399:detect:24-25:2000;400:partition:0,1,2;460:recover:24-25";
  Rng rng{77};
  static constexpr char kReplacements[] = "0:;-*,.x ";
  for (int round = 0; round < 500; ++round) {
    std::string text = canon;
    const auto pos = rng.uniformInt(0, static_cast<std::int64_t>(text.size()) - 1);
    text[static_cast<std::size_t>(pos)] =
        kReplacements[rng.uniformInt(0, static_cast<std::int64_t>(sizeof(kReplacements)) - 2)];
    try {
      const FaultPlan p = FaultPlan::parse(text);
      EXPECT_EQ(FaultPlan::parse(p.format()), p) << text;  // survivors still round-trip
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(FaultPlan, RoundTripsThroughScenarioOptions) {
  ScenarioConfig cfg;
  cfg.faultPlan = FaultPlan::parse("400:crash:24;460:restart:24");
  ScenarioConfig again;
  again.faultPlan = FaultPlan::parse(cfg.faultPlan.format());
  EXPECT_EQ(cfg.faultPlan, again.faultPlan);
}

// ------------------------------------------------------------- injection

ScenarioConfig faultBase(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.injectFailure = false;  // the plan is the whole fault schedule
  return cfg;
}

TEST(FaultInjector, CrashAndRestartRecover) {
  ScenarioConfig cfg = faultBase(2);
  cfg.faultPlan = FaultPlan::parse("400:crash:24;460:restart:24");
  Scenario sc{cfg};
  sc.run();

  const auto* inj = sc.faultInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->nodeCrashes(), 1u);
  EXPECT_EQ(inj->nodeRestarts(), 1u);
  EXPECT_FALSE(inj->nodeDown(24));

  // The restarted node runs a live protocol again and its links came back.
  Network& net = sc.network();
  EXPECT_NE(net.node(24).protocol(), nullptr);
  for (const NodeId nb : net.node(24).neighbors()) {
    EXPECT_TRUE(net.findLink(24, nb)->isUp()) << "link 24-" << nb;
  }
  // Plenty of post-restart time: the network reconverged to a usable path.
  bool loop = false;
  bool blackhole = false;
  const auto path = net.fibWalk(sc.sender(), sc.receiver(), &loop, &blackhole);
  EXPECT_FALSE(loop);
  EXPECT_FALSE(blackhole);
  EXPECT_GE(path.size(), 2u);
}

TEST(FaultInjector, PartitionCutsAndHealRestores) {
  ScenarioConfig cfg = faultBase(3);
  // Rows 0-2 of the 7x7 mesh vs the rest: sender (row 0) loses the
  // receiver (row 6) for 60 s.
  std::string group;
  for (int n = 0; n <= 20; ++n) {
    if (n != 0) group += ',';
    group += std::to_string(n);
  }
  cfg.faultPlan = FaultPlan::parse("400:partition:" + group + ";460:heal:" + group);
  Scenario sc{cfg};
  sc.run();

  const auto* inj = sc.faultInjector();
  ASSERT_NE(inj, nullptr);
  // Degree-4 mesh: exactly the 7 vertical row2-row3 links cross the cut.
  EXPECT_EQ(inj->linkFailures(), 7u);
  EXPECT_EQ(inj->linkRecoveries(), 7u);
  for (const auto& link : sc.network().links()) {
    EXPECT_TRUE(link->isUp());
  }
  // The outage cost real deliveries but traffic resumed after the heal.
  const auto& d = sc.stats().data();
  EXPECT_GT(d.delivered, 0u);
  EXPECT_LT(d.delivered, sc.packetsSent());
}

TEST(FaultInjector, CorruptionDropsAreAccounted) {
  ScenarioConfig cfg = faultBase(4);
  cfg.faultPlan = FaultPlan::parse("395:corrupt:*:0.05;500:corrupt:*:0");
  Scenario sc{cfg};
  sc.run();

  const auto& d = sc.stats().data();
  EXPECT_GT(d.dropCorrupt, 0u);
  EXPECT_EQ(d.dropLoss, 0u);
  // Corrupted packets are dropped, not lost from the books.
  EXPECT_EQ(sc.packetsSent(), d.delivered + d.totalDropped());
}

TEST(FaultInjector, DetectDelayReschedulesPendingDetection) {
  // Regression: a detect event landing while the link is already down (and
  // its detection pending) used to only update the config — the in-flight
  // notification kept its old deadline. Shortening the delay after the
  // failure must pull detection (and thus reconvergence) forward.
  ScenarioConfig slow = faultBase(8);
  slow.protocol = ProtocolKind::LinkState;
  // Pin the flow across the link the plan fails, so detection timing is
  // on the forwarding path (faultBase draws random endpoints otherwise).
  slow.pinSrc = 24;
  slow.pinDst = 25;
  slow.trafficStart = 390_sec;
  slow.trafficStop = 460_sec;
  slow.endAt = 480_sec;
  slow.faultPlan =
      FaultPlan::parse("399:detect:24-25:30000;400:fail:24-25");  // notice at 430
  ScenarioConfig quick = slow;
  quick.faultPlan = FaultPlan::parse(
      "399:detect:24-25:30000;400:fail:24-25;405:detect:24-25:100");  // pulled to 405.0001

  Scenario slowSc{slow};
  slowSc.run();
  Scenario quickSc{quick};
  quickSc.run();

  // ~25 s less black-holing at 20 pps: the rescheduled run delivers
  // hundreds more packets. Far more than noise for one seed.
  const auto& sd = slowSc.stats().data();
  const auto& qd = quickSc.stats().data();
  EXPECT_GT(qd.delivered, sd.delivered + 200);
  EXPECT_LT(qd.dropLinkDown, sd.dropLinkDown);
}

TEST(FaultInjector, FlapBurstCountsFailuresAndRecoveries) {
  ScenarioConfig cfg = faultBase(9);
  cfg.trafficStart = 390_sec;
  cfg.trafficStop = 440_sec;
  cfg.endAt = 460_sec;
  cfg.faultPlan = FaultPlan::parse("400:flapburst:24-25:4:8");
  Scenario sc{cfg};
  sc.run();
  const auto* inj = sc.faultInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->linkFailures(), 4u);
  EXPECT_EQ(inj->linkRecoveries(), 4u);
  EXPECT_TRUE(sc.network().findLink(24, 25)->isUp());
}

TEST(FaultInjector, DstTokenIsolatesTheReceiver) {
  ScenarioConfig cfg = faultBase(6);
  cfg.faultPlan = FaultPlan::parse("400:partition:dst;460:heal:dst");
  Scenario sc{cfg};
  sc.run();
  const auto* inj = sc.faultInjector();
  ASSERT_NE(inj, nullptr);
  // Every link of the receiver's router (degree 4, or fewer on the mesh
  // border) is cut, and the matching heal restores exactly those.
  const auto degree = sc.network().node(sc.receiver()).neighbors().size();
  EXPECT_EQ(inj->linkFailures(), degree);
  EXPECT_EQ(inj->linkRecoveries(), degree);
  for (const auto& link : sc.network().links()) EXPECT_TRUE(link->isUp());
}

TEST(FaultInjector, DanglingLinkReferenceThrowsAtEventTime) {
  ScenarioConfig cfg = faultBase(5);
  cfg.faultPlan = FaultPlan::parse("400:fail:0-48");  // not an edge of the mesh
  Scenario sc{cfg};
  EXPECT_THROW(sc.run(), std::runtime_error);
}

// ---------------------------------------------------------- path failures

RunResult runWith(const std::vector<std::string>& options) {
  ScenarioConfig cfg;
  for (const auto& opt : options) applyOptionString(cfg, opt);
  return runScenario(cfg);
}

/// Everything a replica reports: the pinned RunResult digest plus the
/// anatomy rollup and the FIB snapshots, which that digest leaves out.
std::string fullDigest(const RunResult& r) {
  return runResultDigest(r) + "/" + anatomyDigest(r.anatomy) + "/" + r.fibDigestBefore + "/" +
         r.fibDigestAfter;
}

// The config's failure fields are shorthand for `path` plan events: the
// paper's default run and its explicit plan are the same run, bit for bit.
TEST(PathFailure, DefaultFailureEqualsExplicitPathPlan) {
  for (const char* protocol : {"RIP", "DBF", "BGP", "BGP3"}) {
    for (const char* seed : {"seed=1", "seed=2", "seed=3"}) {
      const std::string proto = std::string{"protocol="} + protocol;
      const RunResult sugar = runWith({proto, seed});
      const RunResult plan = runWith({proto, seed, "no-failure=1", "fault-plan=400:fail:path"});
      EXPECT_EQ(fullDigest(sugar), fullDigest(plan)) << protocol << " " << seed;
      EXPECT_EQ(sugar.anatomy.triggers, plan.anatomy.triggers);
    }
  }
}

TEST(PathFailure, MultiFailureAndRepairSugarEqualExplicitPlans) {
  EXPECT_EQ(fullDigest(runWith({"protocol=BGP3", "seed=2", "flows=4", "failures=3",
                                "fail-spacing=5"})),
            fullDigest(runWith({"protocol=BGP3", "seed=2", "flows=4", "no-failure=1",
                                "fault-plan=400:fail:path;405:fail:path/1;410:fail:path/2"})));
  EXPECT_EQ(fullDigest(runWith({"protocol=DBF", "degree=3", "repair-after=60"})),
            fullDigest(runWith({"protocol=DBF", "degree=3", "no-failure=1",
                                "fault-plan=400:fail:path:60"})));
}

TEST(PathFailure, DesugarsAheadOfThePlan) {
  ScenarioConfig cfg;
  cfg.flows = 2;
  cfg.failureCount = 3;
  cfg.repairAfter = 30_sec;
  cfg.faultPlan = FaultPlan::parse("300:crash:5");
  EXPECT_EQ(cfg.effectiveFaultPlan().format(),
            "400:fail:path:30;405:fail:path/1:30;410:fail:path:30;300:crash:5");
  EXPECT_EQ(cfg.failureWatermark(), 300_sec);
  cfg.injectFailure = false;
  EXPECT_EQ(cfg.effectiveFaultPlan(), cfg.faultPlan);
  cfg.faultPlan = {};
  EXPECT_EQ(cfg.failureWatermark(), Time::infinity());
}

TEST(PathFailure, FaultApplyNamesTheCutLink) {
  ScenarioConfig cfg;
  std::vector<obs::TraceEvent> applied;
  testutil::CallbackSink sink{obs::kindBit(obs::TraceKind::FaultApply),
                              [&](const obs::TraceEvent& ev) { applied.push_back(ev); }};
  Scenario sc{cfg};
  sc.attachTraceSink(&sink);
  sc.run();
  ASSERT_EQ(applied.size(), 1u);
  ASSERT_EQ(sc.faultInjector()->pathCuts().size(), 1u);
  const Link* cut = sc.faultInjector()->pathCuts().front();
  EXPECT_EQ(applied[0].t, 400_sec);
  EXPECT_EQ(applied[0].a, cut->endpointA());
  EXPECT_EQ(applied[0].b, cut->endpointB());
  EXPECT_EQ(applied[0].x, static_cast<std::int64_t>(fault::FaultKind::LinkFail));
  EXPECT_EQ(sc.faultInjector()->linkFailures(), 1u);
  const auto& report = sc.convergenceAnalyzer()->report();
  EXPECT_EQ(report.kindCounts[static_cast<std::size_t>(obs::TraceKind::FaultApply)], 1u);
}

// Pre-failure path stats belong to flow 0's first path failure; a path
// failure of another flow, even an earlier one, neither takes them nor
// stops the FIB snapshot from being taken at the first fault.
TEST(PathFailure, PreFailureStatsWaitForFlowZero) {
  ScenarioConfig cfg;
  cfg.flows = 2;
  cfg.injectFailure = false;
  cfg.faultPlan = FaultPlan::parse("395:fail:path/1");
  const RunResult other = runScenario(cfg);
  EXPECT_EQ(other.preFailurePathHops, 0);
  EXPECT_FALSE(other.fibDigestBefore.empty());

  cfg.faultPlan = FaultPlan::parse("395:fail:path/1;400:fail:path");
  const RunResult both = runScenario(cfg);
  EXPECT_GE(both.preFailurePathHops, 6);  // at least the row distance
  EXPECT_EQ(both.fibDigestBefore, other.fibDigestBefore);
}

/// Two nodes, one link, traffic from 10 s: the smallest world a path
/// failure can empty.
ScenarioConfig singleLink(const std::string& plan) {
  ScenarioConfig cfg;
  cfg.topology = TopologyKind::Inline;
  cfg.inlineTopo.nodes = 2;
  cfg.inlineTopo.edges = {{0, 1}};
  cfg.injectFailure = false;
  cfg.trafficStart = 10_sec;
  cfg.trafficStop = 40_sec;
  cfg.endAt = 50_sec;
  cfg.faultPlan = FaultPlan::parse(plan);
  return cfg;
}

TEST(PathFailure, LaterFailureWithNothingToCutIsANoop) {
  std::size_t applied = 0;
  testutil::CallbackSink sink{obs::kindBit(obs::TraceKind::FaultApply),
                              [&](const obs::TraceEvent&) { ++applied; }};
  Scenario sc{singleLink("20:fail:path;25:fail:path")};
  sc.attachTraceSink(&sink);
  sc.run();
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(sc.faultInjector()->pathCuts().size(), 1u);
  EXPECT_EQ(sc.faultInjector()->linkFailures(), 1u);
}

TEST(PathFailure, FirstFailureWithNothingToCutThrows) {
  Scenario sc{singleLink("15:fail:0-1;20:fail:path")};
  EXPECT_THROW(sc.run(), std::runtime_error);
}

TEST(PathFailure, RepairRecoversTheCutLink) {
  Scenario sc{singleLink("20:fail:path:5")};
  sc.run();
  ASSERT_EQ(sc.faultInjector()->pathCuts().size(), 1u);
  EXPECT_TRUE(sc.faultInjector()->pathCuts().front()->isUp());
  EXPECT_EQ(sc.faultInjector()->linkRecoveries(), 1u);
}

TEST(PathFailure, UnknownFlowThrowsAtEventTime) {
  ScenarioConfig cfg = singleLink("20:fail:path/3");
  Scenario sc{cfg};
  EXPECT_THROW(sc.run(), std::runtime_error);
}

// ------------------------------------------------------------------ churn

ScenarioConfig churnBase(std::uint64_t seed, const std::string& plan) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::LinkState;  // fastest to reconverge
  cfg.mesh.degree = 6;
  cfg.seed = seed;
  cfg.injectFailure = false;
  cfg.trafficStart = 50_sec;
  cfg.trafficStop = 250_sec;
  cfg.endAt = 300_sec;
  cfg.faultPlan = FaultPlan::parse(plan);
  return cfg;
}

TEST(Churn, InjectsFailuresAndRepairs) {
  Scenario sc{churnBase(3, "50:churn:30:5:250")};
  sc.run();
  const auto* inj = sc.faultInjector();
  ASSERT_NE(inj, nullptr);
  EXPECT_GT(inj->linkFailures(), 10u);
  // Every failure before the stop gets a repair eventually (repairs may lag
  // the last failures by one MTTR, still inside the 50 s drain window).
  EXPECT_GE(inj->linkRecoveries() + 5, inj->linkFailures());
}

TEST(Churn, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Scenario sc{churnBase(seed, "50:churn:120:10:250")};
    sc.run();
    return std::make_pair(sc.faultInjector()->linkFailures(), sc.stats().data().delivered);
  };
  EXPECT_EQ(run(5), run(5));
  // The churn stream derives from the scenario seed.
  EXPECT_NE(run(5), run(6));
}

TEST(Churn, NoNewFailuresAfterStop) {
  Scenario sc{churnBase(7, "50:churn:20:2:150")};
  sc.run();
  // After stop + repairs drain, every link must be up again.
  for (const auto& link : sc.network().links()) {
    EXPECT_TRUE(link->isUp());
  }
  const auto* inj = sc.faultInjector();
  EXPECT_GT(inj->linkFailures(), 0u);
  EXPECT_EQ(inj->linkFailures(), inj->linkRecoveries());
}

// Stop boundary: `at >= stop` gates new failures, so a zero-length churn
// window (stop == start) must inject nothing at all — including a draw
// landing exactly on the boundary.
TEST(Churn, ZeroWindowInjectsNothing) {
  Scenario sc{churnBase(11, "50:churn:120:10:50")};
  sc.run();
  EXPECT_EQ(sc.faultInjector()->linkFailures(), 0u);
  EXPECT_EQ(sc.faultInjector()->linkRecoveries(), 0u);
}

// When another fault touched a link first, churn's already-down /
// already-up paths must re-arm rather than end churn for that link. One
// link between two nodes: the plan holds it down across [10 s, 60 s), and
// from 60 s recovers it every half second, so some recover lands while a
// churn repair is pending.
TEST(Churn, SurvivesExternalInterference) {
  ScenarioConfig cfg;
  cfg.topology = TopologyKind::Inline;
  cfg.inlineTopo.nodes = 2;
  cfg.inlineTopo.edges = {{0, 1}};
  cfg.injectFailure = false;
  cfg.trafficStart = 5_sec;
  cfg.trafficStop = 300_sec;
  cfg.endAt = 400_sec;
  std::string plan = "0:churn:5:1:300;10:fail:0-1";
  for (int half = 120; half < 200; ++half) {
    plan += ';';
    plan += std::to_string(half / 2.0);
    plan += ":recover:0-1";
  }
  cfg.faultPlan = FaultPlan::parse(plan);
  Scenario sc{cfg};
  sc.run();
  // Mean cycle ~6 s over a 300 s window: dozens of failures only if churn
  // kept running past the collisions.
  const auto* inj = sc.faultInjector();
  EXPECT_GT(inj->linkFailures(), 30u);
  EXPECT_EQ(inj->linkFailures(), inj->linkRecoveries());
  EXPECT_TRUE(sc.network().findLink(0, 1)->isUp());
}

TEST(Churn, PacketConservationHolds) {
  const RunResult r = runScenario(churnBase(9, "50:churn:120:10:250"));
  EXPECT_EQ(r.residual(), 0);
  EXPECT_GT(r.data.delivered, 0u);
}

// -------------------------------------------------------- invariant checker

TEST(InvariantChecker, CleanOnPaperScenario) {
  ScenarioConfig cfg;  // default config = the paper's single-failure run
  cfg.checkInvariants = true;
  Scenario sc{cfg};
  sc.run();  // would throw on any violation
  const auto* checker = sc.invariantChecker();
  ASSERT_NE(checker, nullptr);
  EXPECT_TRUE(checker->clean());
  EXPECT_GT(checker->originated(), 0u);
  EXPECT_GT(checker->delivered(), 0u);
}

TEST(InvariantChecker, CleanUnderCrashAndImpairments) {
  ScenarioConfig cfg = faultBase(6);
  cfg.checkInvariants = true;
  cfg.faultPlan = FaultPlan::parse(
      "395:loss:*:0.02;400:crash:24;460:restart:24;500:loss:*:0");
  Scenario sc{cfg};
  sc.run();
  EXPECT_TRUE(sc.invariantChecker()->clean());
}

/// A 0-1-2 line for feeding the checker synthetic events: node 1 runs
/// DBF (for the loop attribution), the others run nothing.
struct InvariantCheckerSynthetic : ::testing::Test {
  InvariantCheckerSynthetic() : net{sched, Rng{1}} {
    for (int i = 0; i < 3; ++i) net.addNode();
    net.addLink(0, 1, LinkConfig{});
    net.addLink(1, 2, LinkConfig{});
    net.finalize();
    net.node(1).setProtocol(makeProtocol(ProtocolKind::Dbf, net.node(1), ProtocolConfig{}));
  }

  /// Feed one event at t = `sec` through the network's tracer.
  obs::TraceEvent feed(double sec, obs::TraceKind kind, NodeId a, NodeId b, std::int64_t x = 0,
                       std::int64_t y = 0, std::int64_t z = 0) {
    const obs::TraceEvent ev{Time::seconds(sec), kind, a, b, x, y, z};
    net.trace().emit(ev);
    return ev;
  }

  Scheduler sched;
  Network net;
  fault::InvariantChecker checker{net};
};

TEST_F(InvariantCheckerSynthetic, FlagsPacketConservation) {
  net.trace().addSink(&checker);
  const auto dataDrop = static_cast<std::int64_t>(DropReason::QueueOverflow);
  const auto orig = feed(1.0, obs::TraceKind::Originate, 0, 2, 7);
  const auto del = feed(2.0, obs::TraceKind::Deliver, 2, 0, 7);
  const auto ctrl = feed(3.0, obs::TraceKind::Drop, 1, kInvalidNode, 8, dataDrop, 0);  // not data
  EXPECT_TRUE(checker.clean());
  feed(4.0, obs::TraceKind::Drop, 1, kInvalidNode, 7, dataDrop, 1);  // data #7 twice
  ASSERT_EQ(checker.violations().size(), 1u);
  const auto& v = checker.violations()[0];
  EXPECT_EQ(v.invariant, "packet-conservation");
  EXPECT_EQ(v.at, Time::seconds(4.0));
  EXPECT_EQ(v.trail, (std::vector<obs::TraceEvent>{orig, del, ctrl}));
  EXPECT_EQ(checker.originated(), 1u);
  EXPECT_EQ(checker.delivered(), 1u);
  EXPECT_EQ(checker.dropped(), 1u);
}

TEST_F(InvariantCheckerSynthetic, FlagsTtlExhaustedForward) {
  net.trace().addSink(&checker);
  const auto live = feed(1.0, obs::TraceKind::Forward, 0, 1, 5, 1, 2);
  EXPECT_TRUE(checker.clean());
  feed(2.0, obs::TraceKind::Forward, 1, 2, 5, 0, 2);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "ttl-exhausted-forward");
  EXPECT_EQ(checker.violations()[0].node, 1);
  EXPECT_EQ(checker.violations()[0].trail, (std::vector<obs::TraceEvent>{live}));
}

TEST_F(InvariantCheckerSynthetic, FlagsFibNextHopAtSelfAndAtNonNeighbor) {
  net.trace().addSink(&checker);
  feed(1.0, obs::TraceKind::RouteChange, 0, kInvalidNode, 2, kInvalidNode, 1);  // neighbor: fine
  feed(1.0, obs::TraceKind::RouteChange, 0, kInvalidNode, 2, 1, kInvalidNode);  // withdrawal: fine
  EXPECT_TRUE(checker.clean());
  feed(2.0, obs::TraceKind::RouteChange, 0, kInvalidNode, 2, kInvalidNode, 0);  // itself
  feed(3.0, obs::TraceKind::RouteChange, 0, kInvalidNode, 2, 0, 2);  // 0 and 2 share no link
  ASSERT_EQ(checker.violations().size(), 2u);
  for (const auto& v : checker.violations()) {
    EXPECT_EQ(v.invariant, "fib-invalid-nexthop");
    EXPECT_EQ(v.node, 0);
  }
  EXPECT_NE(checker.violations()[0].detail.find("itself"), std::string::npos);
  EXPECT_NE(checker.violations()[1].detail.find("not an attached neighbor"), std::string::npos);
  EXPECT_EQ(checker.violations()[1].trail.size(), 3u);  // both clean changes + the self route
}

TEST_F(InvariantCheckerSynthetic, FlagsTransmitOnDownLink) {
  net.trace().addSink(&checker);
  const auto down = feed(1.0, obs::TraceKind::LinkDown, 0, 1);
  feed(1.5, obs::TraceKind::ControlSend, 0, 1, 40);  // not a checker kind: not in the trail
  feed(2.0, obs::TraceKind::DownLinkTransmit, 0, 1);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "transmit-on-down-link");
  EXPECT_EQ(checker.violations()[0].node, 0);
  EXPECT_EQ(checker.violations()[0].trail, (std::vector<obs::TraceEvent>{down}));
  EXPECT_NE(checker.summary().find("link 0-1 down"), std::string::npos);
}

TEST_F(InvariantCheckerSynthetic, AttributesTtlDropsToTheDroppingNodesProtocol) {
  net.trace().addSink(&checker);
  const auto ttl = static_cast<std::int64_t>(DropReason::TtlExpired);
  for (std::int64_t id = 1; id <= 3; ++id) feed(1.0, obs::TraceKind::Originate, 0, 2, id);
  feed(2.0, obs::TraceKind::Drop, 1, kInvalidNode, 1, ttl, 1);
  feed(2.0, obs::TraceKind::Drop, 1, kInvalidNode, 2, ttl, 1);
  feed(2.0, obs::TraceKind::Drop, 0, kInvalidNode, 3, ttl, 1);
  feed(2.0, obs::TraceKind::Drop, 1, kInvalidNode, 4, ttl, 0);  // control: not a loop kill
  EXPECT_TRUE(checker.clean());  // loops are legal transients
  EXPECT_EQ(checker.loopsByProtocol(),
            (std::map<std::string, std::uint64_t>{{"(no protocol)", 1}, {"DBF", 2}}));
}

TEST_F(InvariantCheckerSynthetic, TrailKeepsTheLastSixteenEventsOldestFirst) {
  net.trace().addSink(&checker);
  std::vector<obs::TraceEvent> fed;
  for (int i = 0; i < 20; ++i) {
    fed.push_back(feed(i, i % 2 == 0 ? obs::TraceKind::LinkDown : obs::TraceKind::LinkUp, 1, 2));
  }
  feed(20.0, obs::TraceKind::DownLinkTransmit, 1, 2);
  feed(21.0, obs::TraceKind::DownLinkTransmit, 2, 1);
  ASSERT_EQ(checker.violations().size(), 2u);
  const auto& first = checker.violations()[0].trail;
  ASSERT_EQ(first.size(), fault::InvariantChecker::kTrailLength);
  EXPECT_EQ(first, (std::vector<obs::TraceEvent>(fed.end() - 16, fed.end())));
  // The first trigger is now the second one's predecessor.
  const auto& second = checker.violations()[1].trail;
  ASSERT_EQ(second.size(), fault::InvariantChecker::kTrailLength);
  EXPECT_EQ(second.front(), fed[fed.size() - 15]);
  EXPECT_EQ(second.back().kind, obs::TraceKind::DownLinkTransmit);
  EXPECT_EQ(second.back().t, Time::seconds(20.0));
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, PollThrowsOnceAfterDeadline) {
  EXPECT_NO_THROW(watchdog::poll());  // disarmed: free
  {
    watchdog::Scope scope{0.0};  // <= 0 keeps it disarmed
    EXPECT_NO_THROW(watchdog::poll());
  }
  watchdog::arm(1e-9);
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
  EXPECT_THROW(watchdog::poll(), watchdog::Timeout);
  EXPECT_NO_THROW(watchdog::poll());  // the throw disarmed it
}

// ------------------------------------------------------- hardened executor

/// A quick spec: small traffic window, LinkState (fastest protocol), one
/// cell per entry in `throwingSeeds` deliberately exploding.
ScenarioConfig quickConfig() {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::LinkState;
  cfg.injectFailure = false;
  cfg.trafficStart = 50_sec;
  cfg.trafficStop = 80_sec;
  cfg.failAt = 60_sec;  // watermark only
  cfg.endAt = 100_sec;
  return cfg;
}

exp::ExperimentSpec quickSpec(bool withThrowingCell) {
  exp::ExperimentSpec spec;
  spec.name = "test_quick";
  spec.title = "test";
  spec.description = "test";
  for (int i = 0; i < 3; ++i) {
    exp::CellSpec cell;
    cell.id = "cell" + std::to_string(i);
    cell.label = cell.id;
    cell.config = quickConfig();
    cell.config.mesh.degree = 4 + i;
    spec.cells.push_back(std::move(cell));
  }
  if (withThrowingCell) {
    exp::CellSpec cell;
    cell.id = "bomb";
    cell.label = "bomb";
    cell.config = quickConfig();
    cell.run = [](const ScenarioConfig& cfg) -> RunResult {
      if (cfg.seed == 2) throw std::runtime_error("deliberate test explosion");
      return runScenario(cfg);
    };
    spec.cells.push_back(std::move(cell));
  }
  spec.render = [](const exp::ExperimentSpec&, const exp::ExperimentResult&) {};
  return spec;
}

TEST(SweepExecutor, FailedCellIsIsolatedAndReported) {
  const exp::ExperimentSpec withBomb = quickSpec(true);
  const exp::ExperimentSpec healthy = quickSpec(false);
  exp::SweepExecutor executor{2};
  const exp::ExperimentResult got = executor.execute(withBomb, 3);
  const exp::ExperimentResult want = executor.execute(healthy, 3);

  ASSERT_EQ(got.cells.size(), 4u);
  // The bomb cell carries a failure report naming the seed that threw...
  const exp::CellResult& bomb = got.cells[3];
  ASSERT_TRUE(bomb.failed());
  ASSERT_EQ(bomb.failures.size(), 1u);
  EXPECT_EQ(bomb.failures[0].seed, 2u);
  EXPECT_EQ(bomb.failures[0].error, "deliberate test explosion");
  // ...and no misleading partial aggregate.
  EXPECT_EQ(bomb.totals.sent, 0.0);
  EXPECT_EQ(bomb.agg.runs, 0);

  // Every healthy cell matches a bomb-free sweep bit for bit.
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_FALSE(got.cells[c].failed());
    EXPECT_EQ(got.cells[c].totals.sent, want.cells[c].totals.sent);
    EXPECT_EQ(got.cells[c].totals.delivered, want.cells[c].totals.delivered);
    EXPECT_EQ(got.cells[c].totals.dropNoRoute, want.cells[c].totals.dropNoRoute);
    EXPECT_EQ(got.cells[c].agg.routingConvergenceSec, want.cells[c].agg.routingConvergenceSec);
    EXPECT_EQ(got.cells[c].agg.delivered, want.cells[c].agg.delivered);
  }
}

TEST(SweepExecutor, InvariantViolationEquivalentErrorsFailOnlyTheirCell) {
  // A dangling fault-plan reference throws inside Scenario::run — the
  // executor must turn that into a per-cell report, not a sweep abort.
  exp::ExperimentSpec spec = quickSpec(false);
  spec.cells[1].config.faultPlan = FaultPlan::parse("60:fail:0-48");
  exp::SweepExecutor executor{2};
  const exp::ExperimentResult res = executor.execute(spec, 2);
  ASSERT_EQ(res.cells.size(), 3u);
  EXPECT_FALSE(res.cells[0].failed());
  EXPECT_TRUE(res.cells[1].failed());
  EXPECT_EQ(res.cells[1].failures.size(), 2u);  // every replica hits it
  EXPECT_FALSE(res.cells[2].failed());
}

// ----------------------------------------------------------- artifact I/O

TEST(Artifact, FailedCellsCarryFailureReports) {
  const exp::ExperimentSpec spec = quickSpec(true);
  exp::SweepExecutor executor{2};
  const exp::ExperimentResult res = executor.execute(spec, 3);
  const std::string json = dumpJson(exp::buildArtifact(spec, res));
  EXPECT_NE(json.find("\"failed_cells\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("deliberate test explosion"), std::string::npos);
  // The failed cell has failures instead of totals; healthy cells keep
  // their aggregates (4 cells, 3 healthy).
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("\"transport_session_resets\""), std::string::npos);
}

TEST(Artifact, WritesAtomicallyAndLeavesNoTempFiles) {
  const exp::ExperimentSpec spec = quickSpec(false);
  exp::SweepExecutor executor{2};
  const exp::ExperimentResult res = executor.execute(spec, 1);

  const auto dir = std::filesystem::temp_directory_path() / "rcsim_test_artifacts";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "quick.json").string();
  exp::writeArtifact(spec, res, path);
  // Overwrite in place — the rename replaces the old document whole.
  exp::writeArtifact(spec, res, path);

  ASSERT_TRUE(std::filesystem::exists(path));
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << "leftover temp file " << e.path();
  }
  EXPECT_EQ(entries, 1u);

  std::ifstream in{path};
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"schema\": \"rcsim-experiment-v1\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rcsim
