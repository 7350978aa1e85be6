#include "exp/artifact.hpp"

#include <string>
#include <utility>

#include "core/durable_io.hpp"
#include "core/fingerprint.hpp"
#include "core/options.hpp"
#include "exp/journal.hpp"

namespace rcsim::exp {

namespace {

JsonValue attemptsJson(const std::vector<std::string>& attempts) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(attempts.size());
  for (const auto& a : attempts) arr.array.push_back(JsonValue::makeString(a));
  return arr;
}

JsonValue failuresJson(const std::vector<ReplicaFailure>& failures) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(failures.size());
  for (const auto& f : failures) {
    JsonValue o = JsonValue::makeObject();
    o.object["seed"] = JsonValue::makeNumber(static_cast<double>(f.seed));
    o.object["error"] = JsonValue::makeString(f.error);
    o.object["attempts"] = attemptsJson(f.attempts);
    arr.array.push_back(std::move(o));
  }
  return arr;
}

JsonValue snapshotsJson(const std::vector<SnapshotDigests>& snapshots) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(snapshots.size());
  for (const auto& s : snapshots) {
    JsonValue o = JsonValue::makeObject();
    o.object["seed"] = JsonValue::makeNumber(static_cast<double>(s.seed));
    o.object["fib_before"] = JsonValue::makeString(s.before);
    o.object["fib_after"] = JsonValue::makeString(s.after);
    arr.array.push_back(std::move(o));
  }
  return arr;
}

JsonValue retriesJson(const std::vector<ReplicaRetry>& retries) {
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(retries.size());
  for (const auto& r : retries) {
    JsonValue o = JsonValue::makeObject();
    o.object["seed"] = JsonValue::makeNumber(static_cast<double>(r.seed));
    o.object["attempts"] = attemptsJson(r.attempts);
    arr.array.push_back(std::move(o));
  }
  return arr;
}

}  // namespace

JsonValue buildArtifact(const ExperimentSpec& spec, const ExperimentResult& result) {
  JsonValue doc = JsonValue::makeObject();
  doc.object["schema"] = JsonValue::makeString(kArtifactSchema);
  doc.object["experiment"] = JsonValue::makeString(spec.name);
  doc.object["title"] = JsonValue::makeString(spec.title);
  doc.object["description"] = JsonValue::makeString(spec.description);
  doc.object["runs_per_cell"] = JsonValue::makeNumber(result.runs);
  doc.object["threads"] = JsonValue::makeNumber(result.threads);
  doc.object["wall_seconds"] = JsonValue::makeNumber(result.wallSeconds);
  // Sweep profile from the executor (replica wall time, journal fsync
  // latency, scheduler totals). Absent when the result did not come from
  // a SweepExecutor job, so legacy artifact consumers are unaffected.
  if (result.metrics.kind == JsonValue::Kind::Object && !result.metrics.object.empty()) {
    doc.object["metrics"] = result.metrics;
  }

  JsonValue cells = JsonValue::makeArray();
  cells.array.reserve(spec.cells.size());
  int failedCells = 0;
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const CellSpec& cs = spec.cells[i];
    JsonValue cell = JsonValue::makeObject();
    cell.object["id"] = JsonValue::makeString(cs.id);
    cell.object["label"] = JsonValue::makeString(cs.label);
    cell.object["start_seed"] = JsonValue::makeNumber(static_cast<double>(cs.startSeed));
    cell.object["custom_runner"] = JsonValue::makeBool(static_cast<bool>(cs.run));
    JsonValue config = JsonValue::makeArray();
    for (auto& opt : describeOptions(cs.config)) {
      config.array.push_back(JsonValue::makeString(std::move(opt)));
    }
    cell.object["config"] = std::move(config);
    if (i < result.cells.size()) {
      // A failed cell carries its per-replica failure report in place of
      // aggregate/totals — a partial aggregate would read like a clean
      // (but skewed) result to downstream plotting.
      if (result.cells[i].failed()) {
        cell.object["failures"] = failuresJson(result.cells[i].failures);
        ++failedCells;
      } else {
        JsonValue aggregate = fieldsToJson(result.cells[i].agg);
        if (!spec.jsonSeries) {
          aggregate.object.erase("throughput");
          aggregate.object.erase("mean_delay");
        }
        cell.object["aggregate"] = std::move(aggregate);
        // Full-precision identity of the fold, so a resumed run can be
        // proven bit-identical to an uninterrupted one by comparing one
        // string per cell (scripts/chaos_resume_test.sh does exactly that).
        cell.object["aggregate_digest"] =
            JsonValue::makeString(aggregateDigest(result.cells[i].agg));
        cell.object["totals"] = fieldsToJson(result.cells[i].totals);
        // Per-replica route-table digests around the first fault; proves
        // whether reconvergence restored the pre-fault tables.
        if (!result.cells[i].snapshots.empty()) {
          cell.object["snapshots"] = snapshotsJson(result.cells[i].snapshots);
        }
        // Convergence-anatomy rollup (episodes, detection/convergence
        // latency, window seconds, per-cause drops, control accounting),
        // summed over replicas in seed order. The digest pins the exact
        // fold the same way aggregate_digest pins the aggregate.
        cell.object["convergence"] = fieldsToJson(result.cells[i].convergence);
        cell.object["convergence_digest"] =
            JsonValue::makeString(anatomyDigest(result.cells[i].convergence));
      }
      if (!result.cells[i].retries.empty()) {
        cell.object["retries"] = retriesJson(result.cells[i].retries);
      }
    }
    cells.array.push_back(std::move(cell));
  }
  doc.object["failed_cells"] = JsonValue::makeNumber(failedCells);
  doc.object["cells"] = std::move(cells);
  return doc;
}

void writeArtifact(const ExperimentSpec& spec, const ExperimentResult& result,
                   const std::string& path) {
  // Temp + fsync + rename + directory fsync: readers see either the old
  // document or the complete new one, and a crash right after "success"
  // cannot roll the artifact back to a truncated or zero-length file
  // (rename alone orders metadata, not data).
  atomicWriteFile(path, dumpJson(buildArtifact(spec, result)));
}

}  // namespace rcsim::exp
