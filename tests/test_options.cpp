#include "core/options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rcsim {
namespace {

TEST(Options, AppliesScenarioKeys) {
  ScenarioConfig cfg;
  applyOption(cfg, "protocol", "RIP");
  applyOption(cfg, "degree", "9");
  applyOption(cfg, "seed", "77");
  applyOption(cfg, "flows", "3");
  applyOption(cfg, "traffic", "tcp");
  applyOption(cfg, "rate", "12.5");
  applyOption(cfg, "failures", "2");
  applyOption(cfg, "fail-at", "123.5");
  applyOption(cfg, "no-failure", "0");
  EXPECT_EQ(cfg.protocol, ProtocolKind::Rip);
  EXPECT_EQ(cfg.mesh.degree, 9);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.flows, 3);
  EXPECT_EQ(cfg.traffic, TrafficKind::Tcp);
  EXPECT_DOUBLE_EQ(cfg.packetsPerSecond, 12.5);
  EXPECT_EQ(cfg.failureCount, 2);
  EXPECT_DOUBLE_EQ(cfg.failAt.toSeconds(), 123.5);
  EXPECT_TRUE(cfg.injectFailure);
}

TEST(Options, AppliesProtocolKnobs) {
  ScenarioConfig cfg;
  applyOption(cfg, "dv.periodic", "15");
  applyOption(cfg, "dv.infinity", "32");
  applyOption(cfg, "dv.poison", "off");
  applyOption(cfg, "bgp.mrai-min", "2.25");
  applyOption(cfg, "bgp.per-dest-mrai", "1");
  applyOption(cfg, "bgp.rfd", "true");
  applyOption(cfg, "ls.spf-delay-ms", "25");
  EXPECT_DOUBLE_EQ(cfg.protoCfg.dv.periodicInterval.toSeconds(), 15.0);
  EXPECT_EQ(cfg.protoCfg.dv.infinityMetric, 32);
  EXPECT_EQ(cfg.protoCfg.dv.splitHorizon, SplitHorizonMode::None);
  EXPECT_DOUBLE_EQ(cfg.protoCfg.bgp.mraiMinSec, 2.25);
  EXPECT_TRUE(cfg.protoCfg.bgp.perDestMrai);
  EXPECT_TRUE(cfg.protoCfg.bgp.flapDampingEnabled);
  EXPECT_DOUBLE_EQ(cfg.protoCfg.ls.spfDelay.toSeconds(), 0.025);
}

TEST(Options, AppliesLinkKnobs) {
  ScenarioConfig cfg;
  applyOption(cfg, "bandwidth", "1e6");
  applyOption(cfg, "prop-delay-ms", "2.5");
  applyOption(cfg, "queue", "50");
  applyOption(cfg, "detect-ms", "100");
  EXPECT_DOUBLE_EQ(cfg.link.bandwidthBps, 1e6);
  EXPECT_DOUBLE_EQ(cfg.link.propDelay.toSeconds(), 0.0025);
  EXPECT_EQ(cfg.link.queueCapacity, 50u);
  EXPECT_DOUBLE_EQ(cfg.link.detectDelay.toSeconds(), 0.1);
}

TEST(Options, TopologySelection) {
  ScenarioConfig cfg;
  applyOption(cfg, "topology", "random");
  applyOption(cfg, "random.nodes", "64");
  applyOption(cfg, "random.avg-degree", "5.5");
  EXPECT_EQ(cfg.topology, TopologyKind::Random);
  EXPECT_EQ(cfg.random.nodes, 64);
  EXPECT_DOUBLE_EQ(cfg.random.avgDegree, 5.5);
  applyOption(cfg, "topology", "mesh");
  EXPECT_EQ(cfg.topology, TopologyKind::RegularMesh);
}

TEST(Options, FileAndNamedTopologySelection) {
  ScenarioConfig cfg;
  applyOption(cfg, "topology", "named");
  applyOption(cfg, "named.graph", "nsfnet");
  EXPECT_EQ(cfg.topology, TopologyKind::Named);
  EXPECT_EQ(cfg.named.graph, "nsfnet");
  applyOption(cfg, "topology", "file");
  applyOption(cfg, "file.path", "graphs/backbone.topo");
  EXPECT_EQ(cfg.topology, TopologyKind::File);
  EXPECT_EQ(cfg.file.path, "graphs/backbone.topo");
  EXPECT_THROW(applyOption(cfg, "topology", "zoo"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "file.path", ""), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "named.graph", ""), std::invalid_argument);
}

// Artifact configs replay through describeOptions: the active topology
// kind's keys must survive the describe -> apply cycle verbatim.
TEST(Options, DescribeRoundTripsFileAndNamedTopologies) {
  ScenarioConfig named;
  applyOption(named, "topology", "named");
  applyOption(named, "named.graph", "abilene");
  ScenarioConfig rebuiltNamed;
  for (const auto& opt : describeOptions(named)) applyOptionString(rebuiltNamed, opt);
  EXPECT_EQ(rebuiltNamed.topology, TopologyKind::Named);
  EXPECT_EQ(rebuiltNamed.named.graph, "abilene");
  EXPECT_EQ(describeOptions(rebuiltNamed), describeOptions(named));

  ScenarioConfig file;
  applyOption(file, "topology", "file");
  applyOption(file, "file.path", "/tmp/x.topo");
  ScenarioConfig rebuiltFile;
  for (const auto& opt : describeOptions(file)) applyOptionString(rebuiltFile, opt);
  EXPECT_EQ(rebuiltFile.topology, TopologyKind::File);
  EXPECT_EQ(rebuiltFile.file.path, "/tmp/x.topo");
  EXPECT_EQ(describeOptions(rebuiltFile), describeOptions(file));
}

TEST(Options, InlineTopologyAndPinnedEndpoints) {
  ScenarioConfig cfg;
  applyOption(cfg, "topology", "inline");
  applyOption(cfg, "inline.nodes", "4");
  applyOption(cfg, "inline.edges", "0-1,1-2,2-3,3-0");
  applyOption(cfg, "pin.src", "0");
  applyOption(cfg, "pin.dst", "2");
  EXPECT_EQ(cfg.topology, TopologyKind::Inline);
  EXPECT_EQ(cfg.inlineTopo.nodes, 4);
  ASSERT_EQ(cfg.inlineTopo.edges.size(), 4u);
  EXPECT_EQ(cfg.inlineTopo.edges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(cfg.pinSrc, 0);
  EXPECT_EQ(cfg.pinDst, 2);

  ScenarioConfig rebuilt;
  for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
  EXPECT_EQ(rebuilt.inlineTopo, cfg.inlineTopo);
  EXPECT_EQ(rebuilt.pinSrc, 0);
  EXPECT_EQ(rebuilt.pinDst, 2);
  EXPECT_EQ(describeOptions(rebuilt), describeOptions(cfg));

  // pin.src/pin.dst default to -1 (unset) and then stay out of describe
  // output so existing config digests are untouched.
  ScenarioConfig plain;
  for (const auto& opt : describeOptions(plain)) {
    EXPECT_EQ(opt.find("pin."), std::string::npos) << opt;
  }
  applyOption(plain, "pin.src", "-1");
  EXPECT_EQ(plain.pinSrc, kInvalidNode);

  EXPECT_THROW(applyOption(cfg, "inline.edges", "0-"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "inline.edges", "0:1"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "inline.edges", "a-b"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "pin.src", "-2"), std::invalid_argument);
}

TEST(Options, AnatomyToggleRoundTrips) {
  ScenarioConfig cfg;
  EXPECT_TRUE(cfg.anatomy);  // profiler is on by default
  applyOption(cfg, "anatomy", "0");
  EXPECT_FALSE(cfg.anatomy);
  applyOption(cfg, "anatomy", "true");
  EXPECT_TRUE(cfg.anatomy);
  EXPECT_THROW(applyOption(cfg, "anatomy", "maybe"), std::invalid_argument);

  cfg.anatomy = false;
  ScenarioConfig rebuilt;
  for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
  EXPECT_FALSE(rebuilt.anatomy);
  EXPECT_EQ(describeOptions(rebuilt), describeOptions(cfg));
}

TEST(Options, RandomUniformModeKnobs) {
  ScenarioConfig cfg;
  applyOption(cfg, "topology", "random");
  applyOption(cfg, "random.tree", "0");
  applyOption(cfg, "random.ensure-connected", "1");
  EXPECT_FALSE(cfg.random.spanningTree);
  EXPECT_TRUE(cfg.random.ensureConnected);

  ScenarioConfig rebuilt;
  for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
  EXPECT_FALSE(rebuilt.random.spanningTree);
  EXPECT_TRUE(rebuilt.random.ensureConnected);
  EXPECT_EQ(describeOptions(rebuilt), describeOptions(cfg));
}

TEST(Options, OptionStringFormats) {
  ScenarioConfig cfg;
  applyOptionString(cfg, "degree=11");
  EXPECT_EQ(cfg.mesh.degree, 11);
  applyOptionString(cfg, "--degree=12");
  EXPECT_EQ(cfg.mesh.degree, 12);
}

TEST(Options, RejectsMalformedInput) {
  ScenarioConfig cfg;
  EXPECT_THROW(applyOption(cfg, "unknown-key", "1"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "degree", "abc"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "degree", "4x"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "rate", ""), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "protocol", "OSPFv9"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "traffic", "udp"), std::invalid_argument);
  EXPECT_THROW(applyOption(cfg, "dv.poison", "maybe"), std::invalid_argument);
  EXPECT_THROW(applyOptionString(cfg, "no-equals-sign"), std::invalid_argument);
}

// Every time-valued key rejects NaN, infinities and magnitudes past 1e9 s,
// where Time::seconds' cast to int64 nanoseconds would be undefined;
// repair-after alone keeps "inf" as "never". Negative times are rejected
// too, except fail-spacing, which spaces later failures earlier.
TEST(Options, RejectsNonFiniteAndOutOfRangeTimes) {
  const std::vector<std::string> keys{
      "traffic-start",  "traffic-stop",    "fail-at",      "fail-spacing",  "repair-after",
      "end-at",         "prop-delay-ms",   "detect-ms",    "hello.interval", "hello.dead",
      "dv.periodic",    "dv.timeout",      "ls.spf-delay-ms", "ls.refresh",  "dual.sia-timeout"};
  for (const auto& key : keys) {
    for (const std::string value :
         {"nan", "-nan", "inf", "-inf", "1e13", "-1e13", "1e300", "-5", "-1e-9"}) {
      if (key == "repair-after" && value == "inf") continue;
      if (key == "fail-spacing" && (value == "-5" || value == "-1e-9")) continue;
      ScenarioConfig cfg;
      EXPECT_THROW(applyOption(cfg, key, value), std::invalid_argument) << key << "=" << value;
    }
    ScenarioConfig cfg;
    EXPECT_NO_THROW(applyOption(cfg, key, "1e6")) << key;
    EXPECT_NO_THROW(applyOption(cfg, key, "0")) << key;
  }
  ScenarioConfig cfg;
  applyOption(cfg, "repair-after", "inf");
  EXPECT_EQ(cfg.repairAfter, Time::infinity());
  applyOption(cfg, "end-at", "1e9");
  EXPECT_EQ(cfg.endAt, Time::seconds(1e9));
  applyOption(cfg, "fail-spacing", "-5");
  EXPECT_EQ(cfg.failureSpacing, Time::seconds(-5.0));
  try {
    applyOption(cfg, "fail-at", "-5");
    ADD_FAILURE() << "fail-at=-5 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option fail-at: '-5' must be >= 0");
  }
}

// describeOptions must emit every knob a spec can set, so that replaying
// an artifact's config list reproduces the scenario exactly. Twist every
// family of knobs away from its default and compare canonical renderings
// after a full describe -> apply cycle.
TEST(Options, DescribeCoversEveryKnob) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::Bgp3;
  cfg.mesh.degree = 7;
  cfg.seed = 42;
  cfg.flows = 3;
  cfg.traffic = TrafficKind::Tcp;
  cfg.tcpWindow = 16;
  cfg.packetsPerSecond = 55.5;
  cfg.failureCount = 2;
  cfg.failureSpacing = Time::seconds(5.0);
  cfg.failAt = Time::seconds(123.5);
  cfg.trafficStart = Time::seconds(80.0);
  cfg.trafficStop = Time::seconds(140.0);
  cfg.endAt = Time::seconds(222.0);
  cfg.tracePackets = false;
  cfg.ecmp = true;
  cfg.link.bandwidthBps = 2e6;
  cfg.link.propDelay = Time::milliseconds(3);
  cfg.link.queueCapacity = 33;
  cfg.link.detectDelay = Time::milliseconds(500);
  cfg.protoCfg.dv.periodicInterval = Time::seconds(17.0);
  cfg.protoCfg.dv.infinityMetric = 32;
  cfg.protoCfg.dv.maxEntriesPerMessage = 5;
  cfg.protoCfg.dv.splitHorizon = SplitHorizonMode::SplitHorizon;
  cfg.protoCfg.dv.triggerDampMinSec = 2.0;
  cfg.protoCfg.dv.triggerDampMaxSec = 6.0;
  cfg.protoCfg.bgp.mraiMinSec = 2.5;
  cfg.protoCfg.bgp.perDestMrai = true;
  cfg.protoCfg.bgp.withdrawalsExemptFromMrai = false;
  cfg.protoCfg.bgp.consistencyAssertions = true;
  cfg.protoCfg.bgp.flapDampingEnabled = true;
  cfg.protoCfg.bgp.rfdPenaltyPerFlap = 1999.0;
  cfg.protoCfg.ls.spfDelay = Time::milliseconds(25);
  cfg.protoCfg.ls.spfOracle = true;
  cfg.protoCfg.dual.siaTimeout = Time::seconds(20.0);

  ScenarioConfig rebuilt;
  for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
  EXPECT_EQ(describeOptions(rebuilt), describeOptions(cfg));
  EXPECT_EQ(rebuilt.traffic, TrafficKind::Tcp);
  EXPECT_EQ(rebuilt.tcpWindow, 16);
  EXPECT_EQ(rebuilt.protoCfg.dv.splitHorizon, SplitHorizonMode::SplitHorizon);
  EXPECT_DOUBLE_EQ(rebuilt.protoCfg.bgp.rfdPenaltyPerFlap, 1999.0);
  EXPECT_FALSE(rebuilt.tracePackets);
  EXPECT_TRUE(rebuilt.ecmp);
  EXPECT_TRUE(rebuilt.protoCfg.ls.spfOracle);
}

// An infinite repair time must describe as "inf" and re-apply cleanly
// (casting an infinite double through Time::seconds would be UB).
TEST(Options, DescribeRoundTripsInfiniteRepair) {
  ScenarioConfig cfg;
  applyOption(cfg, "repair-after", "inf");
  EXPECT_EQ(cfg.repairAfter, Time::infinity());
  ScenarioConfig rebuilt;
  for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
  EXPECT_EQ(rebuilt.repairAfter, Time::infinity());
}

TEST(Options, DescribeRoundTrips) {
  ScenarioConfig cfg;
  applyOption(cfg, "protocol", "BGP3");
  applyOption(cfg, "degree", "5");
  applyOption(cfg, "flows", "2");
  const auto described = describeOptions(cfg);
  ScenarioConfig rebuilt;
  for (const auto& opt : described) applyOptionString(rebuilt, opt);
  EXPECT_EQ(rebuilt.protocol, cfg.protocol);
  EXPECT_EQ(rebuilt.mesh.degree, cfg.mesh.degree);
  EXPECT_EQ(rebuilt.flows, cfg.flows);
  EXPECT_EQ(rebuilt.failAt, cfg.failAt);
}

}  // namespace
}  // namespace rcsim
