#include "fuzz/harness.hpp"

#include <memory>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/fingerprint.hpp"
#include "obs/trace_io.hpp"
#include "sim/watchdog.hpp"

namespace rcsim::fuzz {

const char* toString(RunStatus status) {
  switch (status) {
    case RunStatus::Clean: return "clean";
    case RunStatus::InvariantViolation: return "invariant-violation";
    case RunStatus::Exception: return "exception";
    case RunStatus::Timeout: return "timeout";
    case RunStatus::Nondeterministic: return "nondeterministic";
    case RunStatus::AnatomyDivergence: return "anatomy-divergence";
  }
  return "?";
}

RunStatus runStatusFromString(const std::string& name) {
  for (const RunStatus s : {RunStatus::Clean, RunStatus::InvariantViolation,
                            RunStatus::Exception, RunStatus::Timeout,
                            RunStatus::Nondeterministic, RunStatus::AnatomyDivergence}) {
    if (name == toString(s)) return s;
  }
  throw std::invalid_argument("unknown run status '" + name + "'");
}

RunOutcome runScenarioOnce(const ScenarioConfig& cfg, double wallLimitSec) {
  RunOutcome out;
  ScenarioConfig checked = cfg;
  checked.checkInvariants = true;
  // The online anatomy analyzer is forced on, like the invariant checker:
  // every execution cross-checks it against the offline replay below.
  checked.anatomy = true;

  // Construction failures (a mutation produced a config the scenario
  // builder rejects) classify like any other escape — the campaign treats
  // them as generator bugs worth banking, not reasons to abort.
  std::unique_ptr<Scenario> scenario;
  try {
    scenario = std::make_unique<Scenario>(checked);
  } catch (const std::exception& e) {
    out.status = RunStatus::Exception;
    out.detail = std::string{"construct: "} + e.what();
    return out;
  }

  obs::MemoryTraceSink sink;
  // Beside the anatomy analyzer on the same tracer: it asks for every
  // kind, so the recorded trace is the full stream the analyzer saw.
  scenario->attachTraceSink(&sink);

  bool threw = false;
  try {
    const watchdog::Scope guard{wallLimitSec};
    scenario->run();
  } catch (const watchdog::Timeout& e) {
    out.status = RunStatus::Timeout;
    out.detail = e.what();
    threw = true;
  } catch (const std::exception& e) {
    // Scenario::run throws a plain runtime_error for invariant failures;
    // the checker below reclassifies those with the invariant's name.
    out.status = RunStatus::Exception;
    out.detail = e.what();
    threw = true;
  }

  const auto* checker = scenario->invariantChecker();
  if (checker != nullptr && !checker->clean()) {
    out.status = RunStatus::InvariantViolation;
    // First line = the violated invariant's name, the stable dedup key.
    out.detail = checker->violations().front().invariant + "\n" + checker->summary();
  }

  out.trace = sink.events();
  out.traceDigest = obs::traceDigest(out.trace);
  out.eventsExecuted = scenario->scheduler().executedEvents();
  if (!threw && out.status == RunStatus::Clean) {
    out.resultDigest = runResultDigest(summarizeRun(*scenario));
    // Cross-check the streaming analyzer against the offline replayer over
    // the exact events the run just produced. They are independent
    // implementations of the same reconstruction; any disagreement is a
    // simulator-observability bug worth banking.
    if (const auto* anatomy = scenario->convergenceAnalyzer()) {
      const auto& live = anatomy->report();
      const obs::ReplayOptions opts{scenario->sender(), scenario->receiver(),
                                    scenario->network().nodeCount()};
      std::string field;
      try {
        const obs::ReplayResult replay = obs::replayTrace(out.trace, opts);
        if (live.pathEvents != replay.pathEvents) {
          field = "pathEvents";
        } else if (live.loopWindows != replay.loopWindows) {
          field = "loopWindows";
        } else if (live.blackholeWindows != replay.blackholeWindows) {
          field = "blackholeWindows";
        } else if (live.kindCounts != replay.kindCounts) {
          field = "kindCounts";
        } else if (live.delivered != replay.delivered || live.dropped != replay.dropped) {
          field = "planeCounters";
        } else if (live.episodes != obs::analyzeTrace(out.trace, opts).episodes) {
          // Same analyzer over the recorded stream: catches a live-vs-
          // recorded event mismatch (a tracer fan-out bug) at episode level.
          field = "episodes";
        }
      } catch (const std::exception&) {
        field = "replayThrew";
      }
      if (!field.empty()) {
        out.status = RunStatus::AnatomyDivergence;
        out.detail = field + "\nonline analyzer vs offline replay disagree on " + field;
      }
    }
  }
  scenario->attachTraceSink(nullptr);
  return out;
}

RunOutcome checkDeterminism(const ScenarioConfig& cfg, double wallLimitSec) {
  RunOutcome first = runScenarioOnce(cfg, wallLimitSec);
  // A timeout races the wall clock, so a second execution legitimately
  // stops at a different event — replaying it can only produce noise.
  if (first.status == RunStatus::Timeout) return first;
  const RunOutcome second = runScenarioOnce(cfg, wallLimitSec);
  if (second.status == RunStatus::Timeout) return first;
  if (first.status != second.status || first.traceDigest != second.traceDigest ||
      first.resultDigest != second.resultDigest) {
    first.detail = std::string{"two runs of one config diverged: "} + toString(first.status) +
                   "/" + first.traceDigest + "/" + first.resultDigest + " vs " +
                   toString(second.status) + "/" + second.traceDigest + "/" +
                   second.resultDigest;
    first.status = RunStatus::Nondeterministic;
  }
  return first;
}

std::string findingKey(const RunOutcome& outcome) {
  std::string key = toString(outcome.status);
  if (outcome.status == RunStatus::InvariantViolation ||
      outcome.status == RunStatus::AnatomyDivergence) {
    key += '/';
    key += outcome.detail.substr(0, outcome.detail.find('\n'));
  } else if (outcome.status == RunStatus::Exception) {
    // Exception texts carry scenario-specific numbers; key on the prefix.
    key += '/';
    key += outcome.detail.substr(0, outcome.detail.find_first_of("0123456789\n"));
  }
  return key;
}

}  // namespace rcsim::fuzz
