#include "fuzz/fuzzer.hpp"

#include <filesystem>
#include <map>
#include <ostream>
#include <set>

#include "core/digest.hpp"
#include "core/options.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutate.hpp"
#include "sim/random.hpp"

namespace rcsim::fuzz {
namespace {

/// Filesystem-safe slug of a finding key.
std::string slugify(const std::string& key) {
  std::string slug;
  for (const char c : key) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    slug += keep ? c : '-';
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

}  // namespace

FuzzReport runFuzzCampaign(const FuzzOptions& options, std::ostream* log) {
  Rng rng{options.seed};
  CoverageMap coverage;

  struct Entry {
    ScenarioConfig cfg;
    std::string digest;
  };
  std::vector<Entry> corpus;
  std::set<std::string> corpusSeen;
  std::map<std::string, std::size_t> knownKeys;  ///< finding key -> index

  FuzzReport report;
  std::string corpusDigestInput;

  if (!options.bankDir.empty()) {
    std::filesystem::create_directories(options.bankDir);
  }

  for (int exec = 0; exec < options.budget; ++exec) {
    if (options.shouldStop && options.shouldStop()) {
      report.interrupted = true;
      if (log != nullptr) *log << "[fuzz] interrupted after " << exec << " executions\n";
      break;
    }
    ScenarioConfig cfg;
    if (corpus.empty() || rng.uniform01() < 0.3) {
      cfg = generateScenario(rng);
    } else {
      const auto pick =
          rng.uniformInt(0, static_cast<std::int64_t>(corpus.size()) - 1);
      cfg = mutateScenario(corpus[static_cast<std::size_t>(pick)].cfg, rng);
    }
    // Hello-focused campaigns: the drawn timers (when the generator rolled
    // them) survive; only the enable bit is forced.
    if (options.forceHello) cfg.hello.enabled = true;

    RunOutcome out = runScenarioOnce(cfg, options.wallLimitSec);
    ++report.executions;
    const std::size_t fresh = coverage.add(runFeatures(out));

    if (out.status == RunStatus::Clean) {
      if (fresh == 0) continue;
      // New coverage earns a corpus slot — but only a replay-stable run is
      // worth mutating, and an unstable one is itself a top-tier finding.
      const RunOutcome again = runScenarioOnce(cfg, options.wallLimitSec);
      if (again.traceDigest != out.traceDigest || again.resultDigest != out.resultDigest) {
        out.status = RunStatus::Nondeterministic;
        out.detail = "two runs of one config diverged: " + out.traceDigest + "/" +
                     out.resultDigest + " vs " + again.traceDigest + "/" + again.resultDigest;
      } else {
        const std::string digest = scenarioDigest(cfg);
        if (corpusSeen.insert(digest).second) {
          corpus.push_back(Entry{cfg, digest});
          corpusDigestInput += digest;
          corpusDigestInput += '\n';
          if (log != nullptr) {
            *log << "[fuzz] exec " << exec << ": corpus += " << digest << " (+" << fresh
                 << " features, " << coverage.size() << " total)\n";
          }
        }
        continue;
      }
    } else if (out.status != RunStatus::Timeout) {
      // Confirm the failure replays before crying wolf; a shifting failure
      // is a nondeterminism finding, strictly more alarming.
      const RunOutcome again = runScenarioOnce(cfg, options.wallLimitSec);
      if (again.status != out.status || again.traceDigest != out.traceDigest) {
        out.detail = std::string{"failure did not replay: "} + toString(out.status) + "/" +
                     out.traceDigest + " vs " + toString(again.status) + "/" +
                     again.traceDigest;
        out.status = RunStatus::Nondeterministic;
      }
    }

    const std::string key = findingKey(out);
    if (knownKeys.contains(key)) continue;
    if (static_cast<int>(report.findings.size()) >= options.maxFindings) continue;

    FuzzFinding finding;
    finding.status = out.status;
    finding.key = key;
    finding.detail = out.detail;
    finding.config = cfg;
    finding.foundAtExecution = exec;
    if (log != nullptr) {
      *log << "[fuzz] exec " << exec << ": FINDING " << key << "\n";
    }
    if (options.minimize) {
      MinimizeOptions mopts;
      mopts.wallLimitSec = options.wallLimitSec;
      mopts.maxRuns = options.minimizeRunBudget;
      const MinimizeResult mres = minimizeFinding(cfg, out, mopts);
      finding.config = mres.config;
      finding.minimized = true;
      if (log != nullptr) {
        *log << "[fuzz]   minimized in " << mres.runsUsed << " runs ("
             << (mres.changed ? "shrunk" : "already minimal") << ")\n";
      }
    }
    finding.digest = scenarioDigest(finding.config);

    if (!options.bankDir.empty()) {
      ScenarioDoc doc;
      doc.config = finding.config;
      doc.expect = finding.status;
      // The key minus its "status/" prefix is the stable detail the replay
      // must still contain (invariant name / exception prefix).
      const auto slash = key.find('/');
      if (slash != std::string::npos) doc.expectDetail = key.substr(slash + 1);
      doc.note = "campaign seed=" + std::to_string(options.seed) + " execution=" +
                 std::to_string(exec);
      const std::string path = options.bankDir + "/" + slugify(key) + "-" +
                               finding.digest.substr(0, 8) + ".scenario";
      saveScenarioFile(path, doc);
      finding.bankedPath = path;
      if (log != nullptr) *log << "[fuzz]   banked " << path << "\n";
    }

    knownKeys.emplace(key, report.findings.size());
    report.findings.push_back(std::move(finding));
  }

  report.corpusEntries = static_cast<int>(corpus.size());
  report.coverageFeatures = coverage.size();
  report.corpusDigest = fnv1aHexDigest(corpusDigestInput);
  if (log != nullptr) {
    *log << "[fuzz] done: " << report.executions << " executions, " << report.corpusEntries
         << " corpus entries, " << report.coverageFeatures << " features, "
         << report.findings.size() << " finding(s), corpus digest "
         << report.corpusDigest << "\n";
  }
  return report;
}

}  // namespace rcsim::fuzz
