#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"

namespace rcsim {
namespace {

using namespace rcsim::literals;

/// A compressed timeline so scenario tests stay quick.
ScenarioConfig quickConfig(ProtocolKind kind, int degree, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = degree;
  cfg.seed = seed;
  cfg.trafficStart = 90_sec;
  cfg.trafficStop = 150_sec;
  cfg.failAt = 100_sec;
  cfg.endAt = 200_sec;
  return cfg;
}

TEST(Scenario, EndpointsOnFirstAndLastRow) {
  Scenario sc{quickConfig(ProtocolKind::Dbf, 4, 3)};
  EXPECT_LT(sc.sender(), 7);                   // row 0
  EXPECT_GE(sc.receiver(), 42);                // row 6
  EXPECT_LT(sc.receiver(), 49);
  EXPECT_EQ(sc.network().nodeCount(), 49u);
}

TEST(Scenario, FailedLinkWasOnForwardingPath) {
  ScenarioConfig cfg = quickConfig(ProtocolKind::Dbf, 4, 5);
  Scenario sc{cfg};
  sc.run();
  ASSERT_NE(sc.failedLink(), nullptr);
  EXPECT_FALSE(sc.failedLink()->isUp());
  EXPECT_TRUE(sc.preFailurePathShortest());
  EXPECT_GE(sc.preFailurePathHops(), 6);  // at least the row distance
}

TEST(Scenario, SeedReproducibility) {
  const ScenarioConfig cfg = quickConfig(ProtocolKind::Bgp3, 5, 11);
  const RunResult a = runScenario(cfg);
  const RunResult b = runScenario(cfg);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.data.delivered, b.data.delivered);
  EXPECT_EQ(a.data.dropNoRoute, b.data.dropNoRoute);
  EXPECT_EQ(a.routingConvergenceSec, b.routingConvergenceSec);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(a.throughput, b.throughput);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const RunResult a = runScenario(quickConfig(ProtocolKind::Dbf, 4, 1));
  const RunResult b = runScenario(quickConfig(ProtocolKind::Dbf, 4, 2));
  // Different sender/receiver columns or failed link with high probability;
  // the executed event counts virtually never coincide.
  EXPECT_NE(a.eventsExecuted, b.eventsExecuted);
}

TEST(Scenario, NoFailureMeansNoDropsAfterWarmup) {
  ScenarioConfig cfg = quickConfig(ProtocolKind::Dbf, 4, 7);
  cfg.injectFailure = false;
  const RunResult r = runScenario(cfg);
  EXPECT_EQ(r.sent, 1200u);  // 60 s * 20 pkt/s
  EXPECT_EQ(r.data.delivered, r.sent);
  EXPECT_EQ(r.data.totalDropped(), 0u);
  EXPECT_EQ(r.residual(), 0);
}

TEST(Scenario, SentMatchesRateAndWindow) {
  const RunResult r = runScenario(quickConfig(ProtocolKind::Rip, 4, 9));
  EXPECT_EQ(r.sent, 1200u);
}

TEST(Scenario, ThroughputSeriesShapedByTrafficWindow) {
  const RunResult r = runScenario(quickConfig(ProtocolKind::Dbf, 6, 13));
  EXPECT_EQ(r.throughput[80], 0.0);    // before traffic
  EXPECT_EQ(r.throughput[95], 20.0);   // steady state
  EXPECT_EQ(r.throughput[170], 0.0);   // after traffic stop
}

TEST(Scenario, FractionalEndTimeKeepsFinalBucket) {
  // Regression: endSec was truncated (static_cast<int> of 120.5 -> 120), so
  // a run ending mid-second silently dropped the final throughput/delay
  // bucket — deliveries at endAt - 0.1 s vanished from the series.
  ScenarioConfig cfg = quickConfig(ProtocolKind::Dbf, 4, 7);
  cfg.injectFailure = false;
  cfg.trafficStop = Time::seconds(120.5);
  cfg.endAt = Time::seconds(120.5);
  const RunResult r = runScenario(cfg);
  ASSERT_EQ(r.throughput.size(), 121u);  // ceil(120.5) buckets
  ASSERT_EQ(r.meanDelay.size(), 121u);
  // Traffic runs through the fractional last second; packets sent in
  // [120.0, 120.4] deliver well before 120.5 and must be counted.
  EXPECT_GT(r.throughput[120], 0.0);
}

TEST(Scenario, RunnerAggregatesMeans) {
  ScenarioConfig cfg = quickConfig(ProtocolKind::Dbf, 6, 1);
  const auto results = runMany(cfg, 4, /*startSeed=*/1, /*threads=*/2);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].seed, 1u + i);
  }
  const auto agg = Aggregate::over(results);
  EXPECT_EQ(agg.runs, 4);
  EXPECT_DOUBLE_EQ(agg.sent, 1200.0);
  EXPECT_GT(agg.delivered, 1100.0);
  EXPECT_EQ(agg.failSec, 100);
}

TEST(Scenario, AggregateTakesFailSecFromFirstRun) {
  // failSec is a property of the batch's shared config; Aggregate::over
  // reads it from the first run (and asserts the rest agree) instead of
  // whichever run iterates last.
  RunResult a;
  a.failSec = 77;
  a.throughput = {1.0, 2.0};
  RunResult b;
  b.failSec = 77;
  const auto agg = Aggregate::over({a, b});
  EXPECT_EQ(agg.failSec, 77);
  EXPECT_EQ(agg.throughput.size(), 2u);
}

TEST(Scenario, ParallelRunnerMatchesSerial) {
  ScenarioConfig cfg = quickConfig(ProtocolKind::Rip, 5, 1);
  const auto serial = runMany(cfg, 3, 1, /*threads=*/1);
  const auto parallel = runMany(cfg, 3, 1, /*threads=*/3);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].data.delivered, parallel[i].data.delivered);
    EXPECT_EQ(serial[i].eventsExecuted, parallel[i].eventsExecuted);
  }
}

TEST(Scenario, ParallelRunnerRethrowsReplicaError) {
  // A replica that throws on a worker thread must surface as an exception
  // from runMany once the pool has joined, not terminate the process.
  ScenarioConfig cfg = quickConfig(ProtocolKind::Rip, 5, 1);
  cfg.flows = 0;
  EXPECT_THROW((void)runMany(cfg, 4, 1, /*threads=*/2), std::invalid_argument);
}

TEST(Scenario, LinkStateProtocolRunsEndToEnd) {
  const RunResult r = runScenario(quickConfig(ProtocolKind::LinkState, 4, 3));
  EXPECT_GT(r.data.delivered, r.sent - 10);
  EXPECT_TRUE(r.finalPathShortest);
}

// A fault-plan failure that lands exactly on a CBR tick instant fires after
// the tick, because the source reserved the tick's sequence number at
// install, before the injector scheduled the failure. The tick's packet is
// already on the wire (an in-flight cut), not refused by a down link. The
// counters are the ones the simulator gave when every tick was scheduled
// up front; a failure one nanosecond earlier changes them.
TEST(Scenario, FailureOnTickInstantFiresAfterTheTick) {
  auto run = [](const std::string& plan) {
    ScenarioConfig cfg;
    for (const char* opt : {"topology=inline", "inline.nodes=6",
                            "inline.edges=0-1,1-2,2-3,3-4,4-5,5-0", "pin.src=0", "pin.dst=2",
                            "no-failure=1"}) {
      applyOptionString(cfg, opt);
    }
    applyOption(cfg, "fault-plan", plan);
    return runScenario(cfg);
  };
  const RunResult tie = run("400:fail:0-1");  // 390 s + 200 ticks of 50 ms
  EXPECT_EQ(tie.sent, 3200u);
  EXPECT_EQ(tie.data.delivered, 2789u);
  EXPECT_EQ(tie.data.dropNoRoute, 409u);
  EXPECT_EQ(tie.data.dropLinkDown, 1u);
  EXPECT_EQ(tie.data.dropInFlightCut, 1u);
  const RunResult before = run("399.999999999:fail:0-1");
  EXPECT_EQ(before.data.dropNoRoute, 410u);
  EXPECT_EQ(before.data.dropInFlightCut, 0u);
}

}  // namespace
}  // namespace rcsim
