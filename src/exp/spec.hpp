#pragma once

// Declarative experiment descriptions. An ExperimentSpec is data: a name,
// a grid of cells (each one ScenarioConfig to be replicated over seeds)
// and a render function that prints the paper-style console tables. The
// SweepExecutor (exp/executor.hpp) runs specs; the registry
// (exp/registry.hpp) makes them discoverable by name; exp/artifact.hpp
// turns results into machine-readable JSON.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/json_lite.hpp"
#include "core/runner.hpp"

namespace rcsim::exp {

/// One grid cell: a fully-specified scenario replicated over seeds
/// startSeed .. startSeed+runs-1, each through runScenario. Faults beyond
/// the path-targeted failure belong in config.faultPlan, so the config
/// alone reproduces the cell. `run` replaces runScenario for callers that
/// keep each replica's RunResult (rcsim's CSV rows) and for executor tests
/// (synthetic or throwing replicas); no registered cell sets it.
struct CellSpec {
  std::string id;     ///< unique within the experiment, e.g. "RIP/degree=3"
  std::string label;  ///< short column/row label for console tables
  ScenarioConfig config;
  std::uint64_t startSeed = 1;
  std::function<RunResult(const ScenarioConfig&)> run;  ///< empty = runScenario
};

/// Exact sums over a cell's replicas for the counters Aggregate does not
/// carry. Sums (not means) so renderers can reproduce the historical
/// bench output bit-for-bit regardless of how they normalize.
struct CellStats {
  double sent = 0.0;                         ///< whole-run packets originated
  double delivered = 0.0;                    ///< whole-run data.delivered
  double dropNoRoute = 0.0;                  ///< whole-run data.dropNoRoute
  double dropQueue = 0.0;                    ///< whole-run data.dropQueue
  double controlMessages = 0.0;
  double controlBytes = 0.0;
  double controlMessagesAfterFailure = 0.0;
  double tcpGoodputPackets = 0.0;
  double tcpRetransmissions = 0.0;
  double transportRetransmissions = 0.0;
  double transportSessionResets = 0.0;

  [[nodiscard]] static CellStats over(const std::vector<RunResult>& results);

  friend bool operator==(const CellStats&, const CellStats&) = default;
};

/// CellStats' field table (core/fields.hpp). Each row's last argument is
/// its projection from one RunResult, which CellStats::over sums as
/// doubles. No fingerprint covers these totals.
template <FieldsOf<CellStats> S, class V>
void forEachField(S& s, V&& v) {
  using R = const RunResult&;
  v("sent", s.sent, kUnpinned, [](R r) { return r.sent; });
  v("delivered", s.delivered, kUnpinned, [](R r) { return r.data.delivered; });
  v("dropNoRoute", s.dropNoRoute, kUnpinned, [](R r) { return r.data.dropNoRoute; });
  v("dropQueue", s.dropQueue, kUnpinned, [](R r) { return r.data.dropQueue; });
  v("controlMessages", s.controlMessages, kUnpinned, [](R r) { return r.controlMessages; });
  v("controlBytes", s.controlBytes, kUnpinned, [](R r) { return r.controlBytes; });
  v("controlMessagesAfterFailure", s.controlMessagesAfterFailure, kUnpinned,
    [](R r) { return r.controlMessagesAfterFailure; });
  v("tcpGoodputPackets", s.tcpGoodputPackets, kUnpinned,
    [](R r) { return r.tcpGoodputPackets; });
  v("tcpRetransmissions", s.tcpRetransmissions, kUnpinned,
    [](R r) { return r.tcpRetransmissions; });
  v("transportRetransmissions", s.transportRetransmissions, kUnpinned,
    [](R r) { return r.transportRetransmissions; });
  v("transportSessionResets", s.transportSessionResets, kUnpinned,
    [](R r) { return r.transportSessionResets; });
}

/// One replica that exhausted every retry attempt without producing a
/// RunResult: the seed it simulated, the final exception text, and the
/// full per-attempt error trail. Carried in the cell's failure report so
/// the artifact records exactly which replicas died, how often they were
/// retried, and why each attempt failed.
struct ReplicaFailure {
  std::uint64_t seed = 0;
  std::string error;                  ///< last attempt's error
  std::vector<std::string> attempts;  ///< error per attempt, oldest first
};

/// Route-table snapshot digests of one replica (RunResult::fibDigestBefore/
/// After), kept per seed so the artifact can show whether the network
/// reconverged to the pre-fault tables or settled on different routes.
struct SnapshotDigests {
  std::uint64_t seed = 0;
  std::string before;  ///< empty on fault-free runs
  std::string after;
};

/// A replica that failed at least once but succeeded on a retry. Its
/// RunResult folds into the aggregate exactly like a first-try success;
/// only the error trail of the failed attempts is kept for the artifact.
struct ReplicaRetry {
  std::uint64_t seed = 0;
  std::vector<std::string> attempts;  ///< errors of the failed attempts
};

/// Everything one executed cell produced, aggregated. Raw RunResults are
/// folded in seed order (bit-identical to a serial runScenario loop over
/// the same seeds) and released as
/// soon as the cell completes, so a 100-replica sweep never holds more
/// than the in-flight cells' worth of per-second series.
///
/// If any replica threw, `failures` is non-empty and agg/totals are left
/// default-constructed: a partial aggregate over surviving seeds would
/// silently skew every mean, so a failed cell carries diagnostics only.
struct CellResult {
  Aggregate agg;
  CellStats totals;
  std::vector<ReplicaFailure> failures;  ///< seed order; empty = healthy cell
  std::vector<ReplicaRetry> retries;     ///< seed order; retried-then-successful replicas
  std::vector<SnapshotDigests> snapshots;  ///< seed order; per-replica FIB digests
  /// Convergence-anatomy rollup summed over replicas in seed order (so
  /// serial == pooled execution is bit-identical; anatomyDigest pins it).
  /// All-zero when the cell's runs carried no analyzer.
  obs::AnatomySummary convergence;

  [[nodiscard]] bool failed() const { return !failures.empty(); }
};

/// A finished experiment: one CellResult per CellSpec, in spec order.
struct ExperimentResult {
  int runs = 0;
  int threads = 0;
  double wallSeconds = 0.0;
  std::vector<CellResult> cells;
  /// Sweep profile published by the executor (obs::MetricsRegistry JSON:
  /// replica wall time, journal fsync latency, scheduler totals). Null
  /// when the result did not come from a SweepExecutor job.
  JsonValue metrics;
};

struct ExperimentSpec {
  std::string name;         ///< registry key and artifact basename, e.g. "fig3_drops"
  std::string title;        ///< banner headline, e.g. "Figure 3: packet drops due to no route"
  std::string description;  ///< one line for `rcsim_bench --list`
  int defaultRuns = 10;     ///< replicas when RCSIM_RUNS/--runs are absent
  int paperRuns = 100;      ///< replicas the checked-in results/ tables use
  bool jsonSeries = false;  ///< include per-second series in the JSON artifact
  std::vector<CellSpec> cells;
  /// Print the experiment's console tables from the aggregates — stdout
  /// only, byte-compatible with the pre-registry bench binaries.
  std::function<void(const ExperimentSpec&, const ExperimentResult&)> render;
};

}  // namespace rcsim::exp
