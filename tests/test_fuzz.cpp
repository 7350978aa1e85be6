#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/options.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutate.hpp"

namespace rcsim::fuzz {
namespace {

/// A tiny, fast, known-clean scenario for harness tests.
ScenarioConfig tinyConfig() {
  ScenarioConfig cfg;
  cfg.mesh = MeshSpec{3, 3, 4};
  cfg.injectFailure = false;
  cfg.trafficStart = Time::seconds(5.0);
  cfg.trafficStop = Time::seconds(15.0);
  cfg.endAt = Time::seconds(25.0);
  cfg.faultPlan = fault::FaultPlan::parse("8:fail:0-1;14:recover:0-1");
  return cfg;
}

TEST(FuzzHarness, CleanRunProducesDigests) {
  const RunOutcome out = runScenarioOnce(tinyConfig(), 30.0);
  EXPECT_EQ(out.status, RunStatus::Clean);
  EXPECT_FALSE(out.resultDigest.empty());
  EXPECT_FALSE(out.traceDigest.empty());
  EXPECT_FALSE(out.trace.empty());
  EXPECT_GT(out.eventsExecuted, 0u);
  EXPECT_EQ(findingKey(out), "clean");
}

TEST(FuzzHarness, RunStatusNamesRoundTrip) {
  // The banked-reproducer '# expect:' line stores these names; every
  // enumerator (including anatomy-divergence) must survive the round trip.
  for (const RunStatus s :
       {RunStatus::Clean, RunStatus::InvariantViolation, RunStatus::Exception, RunStatus::Timeout,
        RunStatus::Nondeterministic, RunStatus::AnatomyDivergence}) {
    EXPECT_EQ(runStatusFromString(toString(s)), s);
  }
  EXPECT_STREQ(toString(RunStatus::AnatomyDivergence), "anatomy-divergence");
  EXPECT_THROW((void)runStatusFromString("anatomy"), std::invalid_argument);
}

TEST(FuzzHarness, SameConfigSameDigests) {
  const RunOutcome a = runScenarioOnce(tinyConfig(), 30.0);
  const RunOutcome b = runScenarioOnce(tinyConfig(), 30.0);
  EXPECT_EQ(a.traceDigest, b.traceDigest);
  EXPECT_EQ(a.resultDigest, b.resultDigest);
  const RunOutcome checked = checkDeterminism(tinyConfig(), 30.0);
  EXPECT_EQ(checked.status, RunStatus::Clean);
}

TEST(FuzzHarness, WatchdogTimeoutIsClassified) {
  ScenarioConfig cfg = tinyConfig();
  cfg.endAt = Time::seconds(100000.0);  // far more work than the budget allows
  cfg.protoCfg.dv.periodicInterval = Time::seconds(1.0);
  const RunOutcome out = runScenarioOnce(cfg, 1e-6);
  EXPECT_EQ(out.status, RunStatus::Timeout);
}

TEST(FuzzHarness, DanglingPlanLinkClassifiesAsException) {
  ScenarioConfig cfg = tinyConfig();
  // 0-8 is not an edge of the 3x3 grid; the injector throws at t=8.
  cfg.faultPlan = fault::FaultPlan::parse("8:fail:0-8");
  const RunOutcome out = runScenarioOnce(cfg, 30.0);
  EXPECT_EQ(out.status, RunStatus::Exception);
  EXPECT_NE(out.detail.find("no link"), std::string::npos);
  EXPECT_EQ(findingKey(out), "exception/fault-plan: no link ");
}

TEST(FuzzHarness, ConstructFailureIsCaught) {
  ScenarioConfig cfg = tinyConfig();
  cfg.topology = TopologyKind::Inline;
  cfg.inlineTopo.nodes = 1;  // too small for a flow
  const RunOutcome out = runScenarioOnce(cfg, 30.0);
  EXPECT_EQ(out.status, RunStatus::Exception);
  EXPECT_NE(out.detail.find("construct:"), std::string::npos);
}

TEST(FuzzGenerator, ThirtySeedsConstructAndReferenceRealEdges) {
  Rng rng{2024};
  for (int i = 0; i < 30; ++i) {
    const ScenarioConfig cfg = generateScenario(rng);
    const Topology topo = scenarioTopology(cfg);
    EXPECT_GE(topo.nodeCount, 2);
    for (const auto& ev : cfg.faultPlan.events) {
      const bool namedLink =
          ev.kind == fault::FaultKind::LinkFail || ev.kind == fault::FaultKind::LinkRecover ||
          ev.kind == fault::FaultKind::DetectDelay ||
          ((ev.kind == fault::FaultKind::LinkLoss ||
            ev.kind == fault::FaultKind::LinkCorrupt ||
            ev.kind == fault::FaultKind::LinkReorder) &&
           !ev.allLinks);
      if (namedLink) {
        EXPECT_TRUE(topo.hasEdge(ev.a, ev.b))
            << "seed round " << i << ": plan names missing link " << ev.a << "-" << ev.b;
      }
      for (const auto n : ev.group) EXPECT_LT(n, topo.nodeCount);
    }
    // Every generated scenario must survive the options round-trip, or
    // banked reproducers could drift from what actually ran.
    ScenarioConfig rebuilt;
    for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
    EXPECT_EQ(scenarioDigest(rebuilt), scenarioDigest(cfg));
  }
}

TEST(FuzzGenerator, EmitsShortChurnWindows) {
  Rng rng{99};
  const Topology topo = makeRegularMesh(MeshSpec{4, 4, 4});
  int churns = 0;
  int events = 0;
  for (int i = 0; i < 300; ++i) {
    const fault::FaultPlan plan = generateFaultPlan(rng, topo, 10.0, 50.0);
    for (const auto& ev : plan.events) {
      ++events;
      if (ev.kind != fault::FaultKind::Churn) continue;
      ++churns;
      EXPECT_GE(ev.mtbf, 5.0);
      EXPECT_LE(ev.mtbf, 60.0);
      EXPECT_GE(ev.mttr, 1.0);
      EXPECT_LE(ev.mttr, 10.0);
      EXPECT_GE(ev.stop, ev.at);
      EXPECT_LE(ev.stop - ev.at, Time::seconds(60.0));
      EXPECT_EQ(ev.a, kInvalidNode);
    }
    EXPECT_EQ(fault::FaultPlan::parse(plan.format()), plan);
  }
  // A small share: present, but far from dominating the plans.
  EXPECT_GT(churns, 0);
  EXPECT_LT(churns * 10, events);
}

TEST(FuzzGenerator, SameSeedSameStream) {
  Rng a{7};
  Rng b{7};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scenarioDigest(generateScenario(a)), scenarioDigest(generateScenario(b)));
  }
}

TEST(FuzzMutate, MutantsStayValid) {
  Rng rng{11};
  ScenarioConfig cfg = generateScenario(rng);
  for (int i = 0; i < 40; ++i) {
    cfg = mutateScenario(cfg, rng);
    const Topology topo = scenarioTopology(cfg);  // throws if invalid
    EXPECT_GE(topo.nodeCount, 2);
    ScenarioConfig rebuilt;
    for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
    EXPECT_EQ(scenarioDigest(rebuilt), scenarioDigest(cfg));
  }
}

TEST(FuzzMutate, ChurnWindowMovesAsOneEvent) {
  ScenarioConfig base = tinyConfig();
  base.faultPlan = fault::FaultPlan::parse("6:churn:10:2:20");
  Rng rng{5};
  int retimed = 0;
  for (int i = 0; i < 80; ++i) {
    const ScenarioConfig cfg = mutateScenario(base, rng);
    const auto& ev = cfg.faultPlan.events.front();
    ASSERT_EQ(ev.kind, fault::FaultKind::Churn);
    EXPECT_EQ(ev.stop - ev.at, Time::seconds(14.0));
    if (ev.at != base.faultPlan.events.front().at) ++retimed;
    // A stop before the start would not parse back.
    ScenarioConfig rebuilt;
    for (const auto& opt : describeOptions(cfg)) applyOptionString(rebuilt, opt);
    EXPECT_EQ(scenarioDigest(rebuilt), scenarioDigest(cfg));
  }
  EXPECT_GT(retimed, 0);
}

TEST(FuzzCoverage, BigramFeaturesAreDeterministicAndBucketed) {
  const RunOutcome out = runScenarioOnce(tinyConfig(), 30.0);
  const auto a = runFeatures(out);
  const auto b = runFeatures(out);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const auto f : a) EXPECT_LT(f, CoverageMap::kFeatureSpace);

  CoverageMap map;
  EXPECT_EQ(map.add(a), a.size());
  EXPECT_EQ(map.add(a), 0u);  // replay adds nothing
  EXPECT_EQ(map.size(), a.size());
}

TEST(FuzzCorpus, ScenarioFileRoundTrips) {
  ScenarioDoc doc;
  doc.config = tinyConfig();
  doc.expect = RunStatus::InvariantViolation;
  doc.expectDetail = "packet-conservation";
  doc.note = "example note";
  const std::string text = formatScenarioFile(doc);
  const ScenarioDoc back = parseScenarioFile(text);
  EXPECT_EQ(back.expect, RunStatus::InvariantViolation);
  EXPECT_EQ(back.expectDetail, "packet-conservation");
  EXPECT_EQ(back.note, "example note");
  EXPECT_EQ(scenarioDigest(back.config), scenarioDigest(doc.config));
  EXPECT_EQ(formatScenarioFile(back), text);  // canonical fixed point
}

TEST(FuzzCorpus, ParserRejectsGarbage) {
  EXPECT_THROW((void)parseScenarioFile(""), std::invalid_argument);
  EXPECT_THROW((void)parseScenarioFile("protocol=DBF\n"), std::invalid_argument);
  EXPECT_THROW((void)parseScenarioFile("# rcsim-scenario-v1\n# expect: weird\n"),
               std::invalid_argument);
  EXPECT_THROW((void)parseScenarioFile("# rcsim-scenario-v1\nnot-an-option\n"),
               std::invalid_argument);
  EXPECT_THROW((void)loadScenarioFile("/nonexistent/path.scenario"), std::runtime_error);
}

TEST(FuzzMinimize, DropsIrrelevantEventsAndShrinksTopology) {
  // The 0-8 reference does not exist, so the run dies at t=8 with a
  // deterministic exception; everything else in the plan is noise the
  // minimizer must strip, and the 3x3 mesh should shrink around it.
  ScenarioConfig cfg = tinyConfig();
  cfg.faultPlan = fault::FaultPlan::parse(
      "6:loss:*:0.1;7:crash:4;8:fail:0-8;9.25:detect:0-1:500;12:partition:0,1");
  const RunOutcome original = runScenarioOnce(cfg, 30.0);
  ASSERT_EQ(original.status, RunStatus::Exception);

  MinimizeOptions opts;
  opts.wallLimitSec = 30.0;
  const MinimizeResult res = minimizeFinding(cfg, original, opts);
  EXPECT_TRUE(res.changed);
  EXPECT_EQ(res.config.faultPlan.events.size(), 1u);
  EXPECT_EQ(res.config.faultPlan.events[0].kind, fault::FaultKind::LinkFail);
  EXPECT_EQ(res.config.topology, TopologyKind::Inline);
  EXPECT_LT(res.config.inlineTopo.nodes, 9);
  // The minimized config still reproduces the identical finding key.
  const RunOutcome replay = runScenarioOnce(res.config, 30.0);
  EXPECT_EQ(findingKey(replay), findingKey(original));
}

TEST(FuzzMinimize, DstTokenSurvivesTopologyShrinking) {
  // "dst-dst" names no link, so the run dies at t=8 whatever the receiver
  // is; the minimizer freezes and shrinks the mesh around the token
  // without renumbering it.
  ScenarioConfig cfg = tinyConfig();
  cfg.faultPlan = fault::FaultPlan::parse("6:churn:5:1:12;7:crash:4;8:fail:dst-dst");
  const RunOutcome original = runScenarioOnce(cfg, 30.0);
  ASSERT_EQ(original.status, RunStatus::Exception);

  MinimizeOptions opts;
  opts.wallLimitSec = 30.0;
  const MinimizeResult res = minimizeFinding(cfg, original, opts);
  EXPECT_EQ(res.config.faultPlan.format(), "8:fail:dst-dst");
  EXPECT_EQ(res.config.topology, TopologyKind::Inline);
  EXPECT_LT(res.config.inlineTopo.nodes, 9);
  EXPECT_EQ(findingKey(runScenarioOnce(res.config, 30.0)), findingKey(original));
}

TEST(FuzzMinimize, PathTargetSurvivesRemapAndMinimization) {
  // path/1 names a flow this one-flow scenario lacks, so the run dies at
  // t=8. A path target names a flow, not a link: remapping onto another
  // topology and shrinking the mesh must both leave it as it is.
  ScenarioConfig cfg = tinyConfig();
  cfg.faultPlan = fault::FaultPlan::parse(
      "6:loss:*:0.1;7:crash:4;8:fail:path/1;9.25:detect:0-1:500");
  Rng rng{3};
  const fault::FaultPlan remapped =
      remapPlanToTopology(cfg.faultPlan, makeRegularMesh(MeshSpec{4, 4, 4}), rng);
  EXPECT_EQ(remapped.events[2], cfg.faultPlan.events[2]);

  const RunOutcome original = runScenarioOnce(cfg, 30.0);
  ASSERT_EQ(original.status, RunStatus::Exception);
  EXPECT_NE(original.detail.find("no flow 1"), std::string::npos);
  MinimizeOptions opts;
  opts.wallLimitSec = 30.0;
  const MinimizeResult res = minimizeFinding(cfg, original, opts);
  EXPECT_EQ(res.config.faultPlan.format(), "8:fail:path/1");
  EXPECT_EQ(res.config.topology, TopologyKind::Inline);
  EXPECT_LT(res.config.inlineTopo.nodes, 9);
  EXPECT_EQ(findingKey(runScenarioOnce(res.config, 30.0)), findingKey(original));
}

TEST(FuzzCampaign, SameSeedSameCorpusDigestAndBank) {
  FuzzOptions opts;
  opts.seed = 99;
  opts.budget = 12;
  opts.wallLimitSec = 30.0;
  const FuzzReport a = runFuzzCampaign(opts, nullptr);
  const FuzzReport b = runFuzzCampaign(opts, nullptr);
  EXPECT_EQ(a.corpusDigest, b.corpusDigest);
  EXPECT_EQ(a.executions, 12);
  EXPECT_EQ(a.findings.size(), b.findings.size());
  EXPECT_GT(a.corpusEntries, 0);
  EXPECT_GT(a.coverageFeatures, 0u);
}

}  // namespace
}  // namespace rcsim::fuzz
