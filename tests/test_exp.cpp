// Experiment engine tests: registry integrity, barrier-free executor
// determinism against a serial per-cell runScenario loop, and the JSON
// artifact schema round-trip.

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/json_lite.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "exp/journal.hpp"
#include "exp/registry.hpp"
#include "exp/spec.hpp"
#include "sim/watchdog.hpp"
#include "test_util.hpp"

namespace rcsim::exp {
namespace {

/// A scenario small enough to simulate dozens of times in a test, but
/// still crossing the failure with live traffic.
ScenarioConfig shortConfig(ProtocolKind kind, int degree) {
  ScenarioConfig cfg;
  cfg.protocol = kind;
  cfg.mesh.degree = degree;
  cfg.trafficStart = Time::seconds(80.0);
  cfg.failAt = Time::seconds(100.0);
  cfg.trafficStop = Time::seconds(140.0);
  cfg.endAt = Time::seconds(200.0);
  return cfg;
}

TEST(ExperimentRegistry, HasEveryBuiltinInRegenerationOrder) {
  registerBuiltinExperiments();
  const std::vector<std::string> expected{
      "fig3_drops",        "fig4_ttl",          "fig5_throughput",
      "fig6_convergence",  "fig7_delay",        "headline_table",
      "ablation_mrai",     "ablation_msgsize",  "ablation_damping",
      "ablation_flap_damping", "ablation_infinity", "ablation_splithorizon",
      "ext_tcp",           "ext_multifailure",  "ext_random_topo",
      "ext_assertions",    "ext_dual",          "ext_churn",
      "ext_faultplan",     "ext_realtopo",      "ext_detection",
      "appendix_overhead", "appendix_load",
  };
  const auto& all = allExperiments();
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_FALSE(all[i].cells.empty()) << expected[i];
    EXPECT_TRUE(static_cast<bool>(all[i].render)) << expected[i];
    EXPECT_GT(all[i].defaultRuns, 0) << expected[i];
    EXPECT_GE(all[i].paperRuns, all[i].defaultRuns) << expected[i];
    // One run path: every cell goes through runScenario, so its config
    // alone reproduces it; `run` is only a test seam.
    for (const auto& cell : all[i].cells) {
      EXPECT_FALSE(static_cast<bool>(cell.run)) << expected[i] << " " << cell.id;
    }
  }
  EXPECT_NE(findExperiment("fig3_drops"), nullptr);
  EXPECT_EQ(findExperiment("no_such_experiment"), nullptr);
}

// E6 churn and E4 Tdown are fault-plan cells. These numbers were recorded
// before they were, when each had its own cell runner; the plan path must
// reproduce them exactly.
TEST(ExperimentRegistry, ChurnAndTdownPlansReproducePinnedNumbers) {
  registerBuiltinExperiments();
  auto cellConfig = [](const char* experiment, const std::string& id) {
    const ExperimentSpec* spec = findExperiment(experiment);
    EXPECT_NE(spec, nullptr);
    for (const auto& cell : spec->cells) {
      if (cell.id == id) return cell.config;
    }
    ADD_FAILURE() << "no cell " << id << " in " << experiment;
    return ScenarioConfig{};
  };

  ScenarioConfig churn = cellConfig("ext_churn", "DBF/degree=3");
  EXPECT_EQ(churn.faultPlan.format(), "390:churn:120:10:790");
  const std::uint64_t delivered[] = {6696, 5453};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    churn.seed = seed;
    const RunResult r = runScenario(churn);
    EXPECT_EQ(r.sent, 8000u) << "seed " << seed;
    EXPECT_EQ(r.data.delivered, delivered[seed - 1]) << "seed " << seed;
  }

  ScenarioConfig tdown = cellConfig("ext_assertions", "Tdown/BGP3/degree=4");
  EXPECT_EQ(tdown.faultPlan.format(), "400:partition:dst");
  const double convergence[] = {23.942739965, 26.062781244};
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    tdown.seed = seed;
    EXPECT_EQ(runScenario(tdown).routingConvergenceSec, convergence[seed - 1])
        << "seed " << seed;
  }
}

TEST(ExperimentRegistry, RejectsBadSpecs) {
  registerBuiltinExperiments();
  ExperimentSpec unnamed;
  EXPECT_THROW(registerExperiment(std::move(unnamed)), std::invalid_argument);

  ExperimentSpec duplicate;
  duplicate.name = "fig3_drops";
  EXPECT_THROW(registerExperiment(std::move(duplicate)), std::invalid_argument);

  ExperimentSpec clashing;
  clashing.name = "test_clashing_cells";
  CellSpec a;
  a.id = "same";
  CellSpec b;
  b.id = "same";
  clashing.cells.push_back(std::move(a));
  clashing.cells.push_back(std::move(b));
  EXPECT_THROW(registerExperiment(std::move(clashing)), std::invalid_argument);
}

TEST(Aggregate, RejectsMixedFailureTimes) {
  RunResult a;
  a.failSec = 400;
  RunResult b;
  b.failSec = 401;
  EXPECT_THROW((void)Aggregate::over({a, b}), std::invalid_argument);
}

// The tentpole guarantee: flattening every (cell, seed) replica into one
// shared queue must not change any aggregate bit. Compare full-precision
// digests against a serial per-cell runScenario loop.
TEST(SweepExecutor, MatchesSerialLoopBitForBit) {
  const int runs = 4;
  ExperimentSpec spec;
  spec.name = "determinism_grid";
  for (const ProtocolKind kind : {ProtocolKind::Rip, ProtocolKind::Bgp3}) {
    for (const int degree : {3, 4, 5}) {
      CellSpec cell;
      cell.id = std::string{toString(kind)} + "/degree=" + std::to_string(degree);
      cell.label = toString(kind);
      cell.config = shortConfig(kind, degree);
      spec.cells.push_back(std::move(cell));
    }
  }

  SweepExecutor executor{4};
  const ExperimentResult result = executor.execute(spec, runs);
  ASSERT_EQ(result.cells.size(), spec.cells.size());
  EXPECT_EQ(result.runs, runs);

  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    const auto serial = testutil::serialRuns(spec.cells[c].config, runs, spec.cells[c].startSeed);
    const Aggregate expected = Aggregate::over(serial);
    EXPECT_EQ(aggregateDigest(result.cells[c].agg), aggregateDigest(expected))
        << spec.cells[c].id;
    const CellStats totals = CellStats::over(serial);
    EXPECT_EQ(result.cells[c].totals.sent, totals.sent) << spec.cells[c].id;
    EXPECT_EQ(result.cells[c].totals.delivered, totals.delivered) << spec.cells[c].id;
    EXPECT_EQ(result.cells[c].totals.controlMessages, totals.controlMessages)
        << spec.cells[c].id;
    // The convergence-anatomy fold must be seed-ordered too: pooled ==
    // serial bit for bit, pinned through the same digest machinery.
    obs::AnatomySummary serialConvergence;
    for (const RunResult& rr : serial) serialConvergence += rr.anatomy;
    EXPECT_GT(serialConvergence.episodes, 0u) << spec.cells[c].id;
    EXPECT_EQ(anatomyDigest(result.cells[c].convergence), anatomyDigest(serialConvergence))
        << spec.cells[c].id;
  }
}

// An artifact depends on the experiment, not on how many workers ran it:
// outside its wall-time fields (and the worker count itself) the bytes at
// 1 and at 3 or 4 threads are identical, the metrics block included.
TEST(SweepExecutor, ArtifactBytesIndependentOfThreadCount) {
  registerBuiltinExperiments();
  const ExperimentSpec* spec = findExperiment("fig4_ttl");
  ASSERT_NE(spec, nullptr);
  const auto artifact = [&](int threads) {
    SweepExecutor executor{threads};
    JsonValue doc = buildArtifact(*spec, executor.execute(*spec, 2));
    doc.object.erase("wall_seconds");
    doc.object.erase("threads");
    doc.object.at("metrics").object.at("histograms").object.erase("replica.wall_sec");
    return dumpJson(doc);
  };
  const std::string serial = artifact(1);
  EXPECT_NE(serial.find("anatomy.convergence_sec"), std::string::npos);
  // Completion order varies from run to run; several pooled runs make a
  // completion-order dependence show.
  for (const int threads : {4, 3, 4}) EXPECT_EQ(artifact(threads), serial) << threads;
}

// Several experiments in flight at once (the rcsim_bench --all path):
// FIFO completion, each one still bit-identical to its serial baseline.
TEST(SweepExecutor, PipelinesMultipleJobs) {
  ExperimentSpec first;
  first.name = "pipeline_first";
  CellSpec cell;
  cell.id = "RIP/degree=3";
  cell.config = shortConfig(ProtocolKind::Rip, 3);
  first.cells.push_back(cell);

  ExperimentSpec second;
  second.name = "pipeline_second";
  cell.id = "DBF/degree=4";
  cell.config = shortConfig(ProtocolKind::Dbf, 4);
  second.cells.push_back(cell);

  SweepExecutor executor{2};
  auto jobA = executor.submit(first, 3);
  auto jobB = executor.submit(second, 3);
  const ExperimentResult resA = executor.finish(jobA);
  const ExperimentResult resB = executor.finish(jobB);

  EXPECT_EQ(aggregateDigest(resA.cells[0].agg),
            aggregateDigest(Aggregate::over(testutil::serialRuns(first.cells[0].config, 3))));
  EXPECT_EQ(aggregateDigest(resB.cells[0].agg),
            aggregateDigest(Aggregate::over(testutil::serialRuns(second.cells[0].config, 3))));
}

// CellSpec::run is the executor's test seam: synthetic replicas must fold
// in seed order like runScenario results. No registered cell uses it.
TEST(SweepExecutor, RunsCustomCellRunners) {
  ExperimentSpec spec;
  spec.name = "custom_runner";
  CellSpec cell;
  cell.id = "synthetic";
  cell.startSeed = 10;
  cell.run = [](const ScenarioConfig& cfg) {
    RunResult r;
    r.seed = cfg.seed;
    r.routingConvergenceSec = static_cast<double>(cfg.seed);
    r.failSec = 7;
    return r;
  };
  spec.cells.push_back(std::move(cell));

  SweepExecutor executor{2};
  const ExperimentResult result = executor.execute(spec, 3);
  ASSERT_EQ(result.cells.size(), 1u);
  // Seeds 10, 11, 12 -> mean 11; failSec carried through unchanged.
  EXPECT_DOUBLE_EQ(result.cells[0].agg.routingConvergenceSec, 11.0);
  EXPECT_EQ(result.cells[0].agg.failSec, 7);
  EXPECT_EQ(result.cells[0].agg.runs, 3);
}

TEST(Artifact, RoundTripsThroughJsonLite) {
  ExperimentSpec spec;
  spec.name = "artifact_demo";
  spec.title = "Artifact demo";
  spec.description = "round-trip test";
  spec.jsonSeries = true;
  CellSpec cell;
  cell.id = "BGP3/degree=4";
  cell.label = "BGP3";
  cell.config = shortConfig(ProtocolKind::Bgp3, 4);
  spec.cells.push_back(std::move(cell));

  SweepExecutor executor{2};
  const ExperimentResult result = executor.execute(spec, 2);

  const JsonValue doc = buildArtifact(spec, result);
  const JsonValue parsed = parseJson(dumpJson(doc));

  EXPECT_EQ(parsed.stringAt("schema"), kArtifactSchema);
  EXPECT_EQ(parsed.stringAt("experiment"), "artifact_demo");
  EXPECT_DOUBLE_EQ(parsed.numberAt("runs_per_cell"), 2.0);
  ASSERT_EQ(parsed.at("cells").array.size(), 1u);
  const JsonValue& c = parsed.at("cells").array[0];
  EXPECT_EQ(c.stringAt("id"), "BGP3/degree=4");

  // The embedded config is the canonical key=value list — applying it to
  // a fresh ScenarioConfig must reproduce the cell's scenario exactly.
  ScenarioConfig rebuilt;
  for (const auto& opt : c.at("config").array) applyOptionString(rebuilt, opt.str);
  EXPECT_EQ(rebuilt.protocol, ProtocolKind::Bgp3);
  EXPECT_EQ(rebuilt.mesh.degree, 4);
  EXPECT_EQ(rebuilt.failAt, Time::seconds(100.0));
  EXPECT_EQ(rebuilt.endAt, Time::seconds(200.0));
  EXPECT_EQ(describeOptions(rebuilt), describeOptions(spec.cells[0].config));

  // Aggregate numbers survive dump -> parse exactly.
  const Aggregate& agg = result.cells[0].agg;
  const JsonValue& jagg = c.at("aggregate");
  EXPECT_EQ(jagg.numberAt("delivered"), agg.delivered);
  EXPECT_EQ(jagg.numberAt("routing_convergence_sec"), agg.routingConvergenceSec);
  ASSERT_EQ(jagg.at("throughput").array.size(), agg.throughput.size());
  for (std::size_t i = 0; i < agg.throughput.size(); ++i) {
    EXPECT_EQ(jagg.at("throughput").array[i].number, agg.throughput[i]) << i;
  }
}

TEST(Artifact, DumpJsonNumbersRoundTripExactly) {
  JsonValue arr = JsonValue::makeArray();
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -0.0, 123456789.123456789,
                         9007199254740993.0, 1e-17}) {
    arr.array.push_back(JsonValue::makeNumber(v));
  }
  const JsonValue parsed = parseJson(dumpJson(arr));
  ASSERT_EQ(parsed.array.size(), arr.array.size());
  for (std::size_t i = 0; i < arr.array.size(); ++i) {
    EXPECT_EQ(parsed.array[i].number, arr.array[i].number) << i;
  }
}

TEST(WallLimit, ParserRejectsNonFiniteAndNonPositiveBudgets) {
  using cli::parseWallLimitSeconds;
  // strtod happily parses "nan"/"inf", and NaN slips past a `<= 0` guard
  // — the parser must reject non-finite budgets explicitly.
  EXPECT_EQ(parseWallLimitSeconds("nan"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("-nan"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("inf"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("infinity"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("-1"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("0"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("banana"), 0.0);
  EXPECT_EQ(parseWallLimitSeconds(""), 0.0);
  EXPECT_EQ(parseWallLimitSeconds(nullptr), 0.0);
  EXPECT_EQ(parseWallLimitSeconds("2.5"), 2.5);
  EXPECT_EQ(parseWallLimitSeconds("1e-3"), 1e-3);
}

// A replica that blows its wall-clock budget is aborted by the watchdog
// and lands in the cell's failure report like any other thrown error —
// the sweep itself survives.
TEST(SweepExecutor, WatchdogTimeoutQuarantinesTheReplica) {
  ExperimentSpec spec;
  spec.name = "watchdog_demo";
  CellSpec cell;
  cell.id = "stuck";
  cell.config = shortConfig(ProtocolKind::Rip, 3);
  cell.run = [](const ScenarioConfig&) -> RunResult {
    // Emulate a pathological replica: spin (bounded, in case the watchdog
    // is broken) polling the deadline exactly like the scheduler does.
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
      watchdog::poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return RunResult{};
  };
  spec.cells.push_back(std::move(cell));

  SweepExecutor executor{1};
  executor.setReplicaWallLimit(0.05);
  JobOptions opts;
  opts.retry.maxAttempts = 1;  // no point re-running a deterministic hang
  const ExperimentResult result = executor.finish(executor.submit(spec, 1, opts));
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].failed());
  ASSERT_EQ(result.cells[0].failures.size(), 1u);
  EXPECT_NE(result.cells[0].failures[0].error.find("watchdog"), std::string::npos);
  EXPECT_NE(result.cells[0].failures[0].error.find("wall-clock budget"), std::string::npos);
  ASSERT_EQ(result.cells[0].failures[0].attempts.size(), 1u);
}

// A failed cell's artifact entry carries the full failure report — seed,
// final error, and per-attempt trail — while healthy cells additionally
// publish their aggregate_digest for resume verification.
TEST(Artifact, CarriesFailureReportAndAggregateDigest) {
  ExperimentSpec spec;
  spec.name = "failure_artifact_demo";
  CellSpec healthy;
  healthy.id = "healthy";
  healthy.config = shortConfig(ProtocolKind::Rip, 3);
  spec.cells.push_back(std::move(healthy));
  CellSpec broken;
  broken.id = "broken";
  broken.config = shortConfig(ProtocolKind::Rip, 4);
  broken.run = [](const ScenarioConfig& cfg) -> RunResult {
    throw std::runtime_error("synthetic fault seed=" + std::to_string(cfg.seed));
  };
  spec.cells.push_back(std::move(broken));

  SweepExecutor executor{2};
  JobOptions opts;
  opts.retry.maxAttempts = 2;
  opts.retry.backoffBaseSec = 0.001;
  const ExperimentResult result = executor.finish(executor.submit(spec, 2, opts));

  const JsonValue parsed = parseJson(dumpJson(buildArtifact(spec, result)));
  EXPECT_DOUBLE_EQ(parsed.numberAt("failed_cells"), 1.0);
  ASSERT_EQ(parsed.at("cells").array.size(), 2u);

  const JsonValue& ok = parsed.at("cells").array[0];
  EXPECT_EQ(ok.stringAt("id"), "healthy");
  EXPECT_EQ(ok.object.count("failures"), 0u);
  EXPECT_EQ(ok.stringAt("aggregate_digest"), aggregateDigest(result.cells[0].agg));
  // Healthy cells publish the convergence-anatomy block with its digest;
  // the block round-trips through the journal serializer bit-exactly.
  ASSERT_TRUE(ok.has("convergence"));
  EXPECT_EQ(ok.stringAt("convergence_digest"), anatomyDigest(result.cells[0].convergence));
  EXPECT_GT(result.cells[0].convergence.episodes, 0u);
  EXPECT_EQ(anatomySummaryFromJson(ok.at("convergence")), result.cells[0].convergence);

  const JsonValue& bad = parsed.at("cells").array[1];
  EXPECT_EQ(bad.stringAt("id"), "broken");
  EXPECT_EQ(bad.object.count("aggregate"), 0u) << "failed cells must not publish aggregates";
  EXPECT_EQ(bad.object.count("aggregate_digest"), 0u);
  EXPECT_EQ(bad.object.count("convergence"), 0u);
  const JsonValue& failures = bad.at("failures");
  ASSERT_EQ(failures.array.size(), 2u);
  for (std::size_t i = 0; i < failures.array.size(); ++i) {
    const JsonValue& f = failures.array[i];
    EXPECT_DOUBLE_EQ(f.numberAt("seed"), static_cast<double>(i + 1));
    EXPECT_NE(f.stringAt("error").find("synthetic fault"), std::string::npos);
    // Both attempts' errors survive into the artifact, newest last.
    ASSERT_EQ(f.at("attempts").array.size(), 2u);
    EXPECT_EQ(f.at("attempts").array.back().str, f.stringAt("error"));
  }
}

}  // namespace
}  // namespace rcsim::exp
