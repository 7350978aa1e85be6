// The one bench binary: every registered experiment (figures, ablations,
// extensions, appendix) behind --list / --only / --all. All selected
// experiments are submitted to a single SweepExecutor up front, so their
// (cell, seed) replicas share one work queue and one persistent thread
// pool — no fork/join barrier between cells or between experiments.
//
// Console tables are byte-compatible with the historical one-binary-per-
// figure benches (banners and progress go to stderr now, tables stay on
// stdout); each experiment additionally writes a JSON artifact under
// --out (default results/).

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "exp/artifact.hpp"
#include "exp/executor.hpp"
#include "exp/journal.hpp"
#include "exp/registry.hpp"

namespace {

using rcsim::exp::ExperimentResult;
using rcsim::exp::ExperimentSpec;

/// Exit code for an interrupted-but-drained run: the conventional
/// 128 + SIGINT. See usage() for the full precedence.
constexpr int kExitInterrupted = 130;

/// Set from the SIGINT/SIGTERM handler; everything else (cancelling the
/// executor, flushing, exiting) happens on normal threads — a handler may
/// only touch a sig_atomic_t.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void onSignal(int sig) { g_signal = sig; }

void installSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = onSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: rcsim_bench [--list] [--all | --only=NAME ...] [options]\n"
               "\n"
               "Each experiment's tables include a convergence-anatomy section\n"
               "(episodes, detection/convergence latency, loop/black-hole windows,\n"
               "per-cause drops) when any cell recorded a convergence episode.\n"
               "\n"
               "selection:\n"
               "  --list            list registered experiments and exit\n"
               "  --all             run every registered experiment\n"
               "  --only=NAME       run one experiment (repeatable)\n"
               "\n"
               "options:\n"
               "  --runs=N          replicas per cell (else env RCSIM_RUNS, else the\n"
               "                    experiment default; see --list)\n"
               "  --paper-runs      use each experiment's checked-in-results replica count\n"
               "  --threads=K       worker threads (else env RCSIM_THREADS, else cores)\n"
               "  --out=DIR         artifact directory (default: results)\n"
               "  --txt             write each experiment's tables to DIR/NAME.txt\n"
               "                    instead of stdout\n"
               "  --no-json         skip the JSON artifacts\n"
               "  --check-invariants\n"
               "                    run every replica under the runtime invariant\n"
               "                    checker (violations fail the cell)\n"
               "  --watchdog=SEC    wall-clock budget per replica; an overrunning\n"
               "                    replica fails its cell instead of hanging the sweep\n"
               "                    (else env RCSIM_REPLICA_WATCHDOG_SEC)\n"
               "  --journal=DIR     durable run journal: append one CRC-guarded JSONL\n"
               "                    record per completed (cell, seed) replica to\n"
               "                    DIR/journal.jsonl (fsynced, survives SIGKILL/crash)\n"
               "  --resume=DIR      fold completed replicas from DIR/journal.jsonl\n"
               "                    instead of re-running them; failed/quarantined\n"
               "                    replicas re-run. Implies --journal=DIR unless\n"
               "                    --journal is given separately\n"
               "  --retries=N       retry a failed replica N more times (exponential\n"
               "                    backoff) before quarantining it (default 1; 0\n"
               "                    disables retry)\n"
               "  --progress=SEC    print a heartbeat line to stderr every SEC seconds\n"
               "                    with completed/total replicas plus live convergence\n"
               "                    episode and drop-attribution counters across all\n"
               "                    selected experiments; a final line prints at sweep\n"
               "                    end regardless of SEC (default 0 = no heartbeat)\n"
               "  -h, --help        this message\n"
               "\n"
               "exit status (highest precedence first):\n"
               "  2    usage error (nothing was run)\n"
               "  130  interrupted (SIGINT/SIGTERM): in-flight replicas drained,\n"
               "       journal flushed; overrides 3 even when cells already failed\n"
               "  3    at least one cell failed — replica exceptions, watchdog\n"
               "       timeouts and invariant violations all land here\n"
               "  0    ok\n");
}

/// Strict flag parsing lives in core/cli.hpp now (shared with rcsim,
/// rcsim-trace and rcsim_fuzz); these thin wrappers keep rcsim_bench's
/// historical print-and-exit-2 behavior.
int parsePositiveInt(const std::string& value, const char* flag) {
  try {
    return rcsim::cli::parsePositiveInt(value, flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcsim_bench: %s\n", e.what());
    std::exit(2);
  }
}

int parseNonNegativeInt(const std::string& value, const char* flag) {
  try {
    return rcsim::cli::parseNonNegativeInt(value, flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcsim_bench: %s\n", e.what());
    std::exit(2);
  }
}

/// Redirect stdout to a file for one experiment's tables; restores the
/// original stdout on destruction (so stderr progress and the next
/// experiment's redirect are unaffected).
class StdoutToFile {
 public:
  explicit StdoutToFile(const std::string& path) {
    std::fflush(stdout);
    saved_ = dup(fileno(stdout));
    if (saved_ < 0 || std::freopen(path.c_str(), "w", stdout) == nullptr) {
      std::fprintf(stderr, "rcsim_bench: cannot write %s\n", path.c_str());
      std::exit(1);
    }
  }
  ~StdoutToFile() {
    std::fflush(stdout);
    dup2(saved_, fileno(stdout));
    close(saved_);
    clearerr(stdout);
  }
  StdoutToFile(const StdoutToFile&) = delete;
  StdoutToFile& operator=(const StdoutToFile&) = delete;

 private:
  int saved_ = -1;
};

/// Cross-protocol convergence-anatomy table: one row per healthy cell,
/// summed over that cell's replicas — the artifact's `convergence` block
/// rendered human-readable next to the experiment's own tables. Silent
/// when no cell recorded an episode (e.g. fault-free sweeps).
void renderConvergenceTable(const ExperimentResult& result,
                            const std::vector<rcsim::exp::CellSpec>& cells) {
  bool any = false;
  for (const auto& cell : result.cells) {
    if (!cell.failed() && cell.convergence.episodes > 0) any = true;
  }
  if (!any) return;
  std::printf("\nConvergence anatomy (summed over %d run(s) per cell)\n", result.runs);
  std::printf("%-24s %8s %9s %10s %7s %11s %11s %20s %10s\n", "cell", "episodes", "detect_s",
              "converge_s", "churn", "loop n/s", "bhole n/s", "drops l/bh/ttl/q", "ctrl msgs");
  for (std::size_t i = 0; i < result.cells.size() && i < cells.size(); ++i) {
    const auto& cr = result.cells[i];
    if (cr.failed() || cr.convergence.episodes == 0) continue;
    const auto& s = cr.convergence;
    // Mean per detected/converged episode; "-" when nothing was detected.
    char detect[32];
    char converge[32];
    if (s.detectedEpisodes > 0) {
      std::snprintf(detect, sizeof detect, "%.3f",
                    s.detectionSecTotal / static_cast<double>(s.detectedEpisodes));
    } else {
      std::snprintf(detect, sizeof detect, "-");
    }
    if (s.convergedEpisodes > 0) {
      std::snprintf(converge, sizeof converge, "%.3f",
                    s.convergenceSecTotal / static_cast<double>(s.convergedEpisodes));
    } else {
      std::snprintf(converge, sizeof converge, "-");
    }
    char windows[32];
    char bhWindows[32];
    std::snprintf(windows, sizeof windows, "%llu/%.3f",
                  static_cast<unsigned long long>(s.loopWindows), s.loopSeconds);
    std::snprintf(bhWindows, sizeof bhWindows, "%llu/%.3f",
                  static_cast<unsigned long long>(s.blackholeWindows), s.blackholeSeconds);
    char drops[64];
    std::snprintf(drops, sizeof drops, "%llu/%llu/%llu/%llu",
                  static_cast<unsigned long long>(s.dropsLoop),
                  static_cast<unsigned long long>(s.dropsBlackhole),
                  static_cast<unsigned long long>(s.dropsTtl),
                  static_cast<unsigned long long>(s.dropsQueue));
    std::printf("%-24s %8llu %9s %10s %7llu %11s %11s %20s %10llu\n", cells[i].id.c_str(),
                static_cast<unsigned long long>(s.episodes), detect, converge,
                static_cast<unsigned long long>(s.fibChurn), windows, bhWindows, drops,
                static_cast<unsigned long long>(s.controlMessages));
  }
}

}  // namespace

int main(int argc, char** argv) {
  rcsim::exp::registerBuiltinExperiments();

  bool list = false;
  bool all = false;
  bool paperRuns = false;
  bool toTxt = false;
  bool json = true;
  int runsFlag = 0;
  int threads = 0;
  int retries = 1;
  int progressSec = 0;
  double watchdogSec = 0.0;
  std::string outDir = "results";
  std::string journalDir;
  std::string resumeDir;
  std::vector<std::string> only;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) { return arg.substr(std::strlen(prefix)); };
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg.rfind("--only=", 0) == 0) {
      only.push_back(value("--only="));
    } else if (arg.rfind("--runs=", 0) == 0) {
      runsFlag = parsePositiveInt(value("--runs="), "--runs");
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = parsePositiveInt(value("--threads="), "--threads");
    } else if (arg == "--paper-runs") {
      paperRuns = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      outDir = value("--out=");
    } else if (arg == "--txt") {
      toTxt = true;
    } else if (arg == "--no-json") {
      json = false;
    } else if (arg == "--check-invariants") {
      // Scenario reads the env var at construction, so this covers every
      // replica.
      setenv("RCSIM_CHECK_INVARIANTS", "1", 1);
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      const std::string v = value("--watchdog=");
      // parseWallLimitSeconds also rejects "nan"/"inf", which strtod
      // parses and a plain <= 0 guard lets through.
      watchdogSec = rcsim::cli::parseWallLimitSeconds(v.c_str());
      if (watchdogSec <= 0.0) {
        std::fprintf(stderr, "rcsim_bench: --watchdog got '%s', expected finite seconds > 0\n",
                     v.c_str());
        return 2;
      }
    } else if (arg.rfind("--journal=", 0) == 0) {
      journalDir = value("--journal=");
      if (journalDir.empty()) {
        std::fprintf(stderr, "rcsim_bench: --journal needs a directory\n");
        return 2;
      }
    } else if (arg.rfind("--resume=", 0) == 0) {
      resumeDir = value("--resume=");
      if (resumeDir.empty()) {
        std::fprintf(stderr, "rcsim_bench: --resume needs a directory\n");
        return 2;
      }
    } else if (arg.rfind("--retries=", 0) == 0) {
      retries = parseNonNegativeInt(value("--retries="), "--retries");
    } else if (arg.rfind("--progress=", 0) == 0) {
      progressSec = parseNonNegativeInt(value("--progress="), "--progress");
    } else {
      std::fprintf(stderr, "rcsim_bench: unknown argument '%s'\n\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  const auto& registry = rcsim::exp::allExperiments();

  if (list) {
    for (const auto& spec : registry) {
      std::printf("%-22s %3zu cells, %3d runs (paper %3d)  %s\n", spec.name.c_str(),
                  spec.cells.size(), spec.defaultRuns, spec.paperRuns, spec.description.c_str());
    }
    return 0;
  }

  std::vector<const ExperimentSpec*> selected;
  if (all) {
    for (const auto& spec : registry) selected.push_back(&spec);
  }
  for (const auto& name : only) {
    const ExperimentSpec* spec = rcsim::exp::findExperiment(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "rcsim_bench: no experiment named '%s' (try --list)\n", name.c_str());
      return 2;
    }
    selected.push_back(spec);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "rcsim_bench: nothing selected — use --all, --only=NAME or --list\n\n");
    usage(stderr);
    return 2;
  }

  if (toTxt || json) std::filesystem::create_directories(outDir);

  // Durability wiring: --resume loads the journal index up front (and
  // keeps journaling into the same directory unless --journal points
  // elsewhere), so a killed run can be continued any number of times.
  if (!resumeDir.empty() && journalDir.empty()) journalDir = resumeDir;
  rcsim::exp::JournalIndex resumeIndex;
  bool haveResume = false;
  if (!resumeDir.empty()) {
    rcsim::exp::JournalReadStats stats;
    resumeIndex = rcsim::exp::JournalIndex::load(resumeDir, &stats);
    haveResume = true;
    std::fprintf(stderr,
                 "rcsim_bench: resume: %zu completed replica(s) from %zu journal record(s)"
                 " (%zu corrupt line(s) skipped) in %s\n",
                 resumeIndex.size(), stats.records, stats.corrupt, resumeDir.c_str());
  }
  std::unique_ptr<rcsim::exp::JournalWriter> journal;
  if (!journalDir.empty()) {
    try {
      journal = std::make_unique<rcsim::exp::JournalWriter>(journalDir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rcsim_bench: cannot open journal: %s\n", e.what());
      return 2;
    }
  }
  // A malformed RCSIM_RUNS or RCSIM_THREADS is a usage error, reported
  // before any worker or watcher thread starts.
  try {
    if (threads <= 0) threads = rcsim::defaultThreadCount();
    (void)rcsim::defaultRunCount(1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcsim_bench: %s\n", e.what());
    return 2;
  }
  rcsim::exp::JobOptions jobOptions;
  jobOptions.retry.maxAttempts = retries + 1;
  jobOptions.journal = journal.get();
  jobOptions.resume = haveResume ? &resumeIndex : nullptr;

  installSignalHandlers();

  rcsim::exp::SweepExecutor executor{threads};
  if (watchdogSec > 0.0) executor.setReplicaWallLimit(watchdogSec);

  // SIGINT/SIGTERM drain: the handler only sets a flag; this watcher
  // turns it into a graceful executor cancel (stop claiming replicas,
  // finish in-flight ones, journal them) from a normal thread.
  std::atomic<bool> watcherStop{false};
  std::thread watcher{[&watcherStop, &executor] {
    while (!watcherStop.load(std::memory_order_relaxed)) {
      if (g_signal != 0) {
        executor.requestCancel();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }};

  // Submit everything first: later experiments' replicas backfill the pool
  // while earlier ones drain, so the sweep never serializes on one
  // experiment's slowest cell.
  struct Pending {
    const ExperimentSpec* spec;
    int runs;
    std::shared_ptr<rcsim::exp::SweepExecutor::Job> job;
  };
  std::vector<Pending> pending;
  pending.reserve(selected.size());
  for (const ExperimentSpec* spec : selected) {
    const int fallback = paperRuns ? spec->paperRuns : spec->defaultRuns;
    const int runs = runsFlag > 0 ? runsFlag : rcsim::defaultRunCount(fallback);
    pending.push_back({spec, runs, executor.submit(*spec, runs, jobOptions)});
  }

  // Heartbeat: a polling thread summing SweepExecutor::progress() over
  // every submitted job — lock-free snapshots, so it never perturbs the
  // pool. Stderr only, same as the banners.
  std::atomic<bool> heartbeatStop{false};
  std::thread heartbeat;
  if (progressSec > 0) {
    heartbeat = std::thread{[&heartbeatStop, &pending, progressSec] {
      // One line: replica progress plus the live convergence-anatomy
      // counters the executor accumulates as replicas complete. The format
      // is pinned by scripts/exit_codes_test.sh.
      const auto beat = [&pending] {
        rcsim::exp::JobProgress sum;
        for (const auto& p : pending) {
          const auto prog = rcsim::exp::SweepExecutor::progress(p.job);
          sum.completed += prog.completed;
          sum.total += prog.total;
          sum.episodes += prog.episodes;
          sum.dropsLoop += prog.dropsLoop;
          sum.dropsBlackhole += prog.dropsBlackhole;
          sum.dropsTtl += prog.dropsTtl;
          sum.dropsQueue += prog.dropsQueue;
        }
        std::fprintf(stderr,
                     "rcsim_bench: progress %zu/%zu replica(s) (%.0f%%) | episodes %llu | "
                     "drops loop=%llu bh=%llu ttl=%llu queue=%llu\n",
                     sum.completed, sum.total,
                     sum.total > 0
                         ? 100.0 * static_cast<double>(sum.completed) /
                               static_cast<double>(sum.total)
                         : 0.0,
                     static_cast<unsigned long long>(sum.episodes),
                     static_cast<unsigned long long>(sum.dropsLoop),
                     static_cast<unsigned long long>(sum.dropsBlackhole),
                     static_cast<unsigned long long>(sum.dropsTtl),
                     static_cast<unsigned long long>(sum.dropsQueue));
      };
      const auto period = std::chrono::seconds(progressSec);
      auto next = std::chrono::steady_clock::now() + period;
      while (!heartbeatStop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
          continue;
        }
        next += period;
        beat();
      }
      // Final beat at sweep end, so a run shorter than SEC still reports
      // its totals (and the pinned format is always observable).
      beat();
    }};
  }

  int failedCells = 0;
  bool interrupted = false;
  for (auto& p : pending) {
    // The historical bench banner, byte for byte — but on stderr, so
    // piping tables to a file stays clean.
    std::fprintf(stderr, "%s — %d run(s) per data point (set RCSIM_RUNS to change; paper used 100)\n",
                 p.spec->title.c_str(), p.runs);
    const ExperimentResult result = executor.finish(p.job);
    if (executor.cancelRequested()) {
      // Drain the remaining jobs (their in-flight replicas finish and
      // journal) but render nothing partial.
      interrupted = true;
      for (auto& rest : pending) (void)executor.finish(rest.job);
      break;
    }
    if (toTxt) {
      StdoutToFile redirect{outDir + "/" + p.spec->name + ".txt"};
      p.spec->render(*p.spec, result);
      renderConvergenceTable(result, p.spec->cells);
    } else {
      p.spec->render(*p.spec, result);
      renderConvergenceTable(result, p.spec->cells);
      std::fflush(stdout);
    }
    if (json) {
      rcsim::exp::writeArtifact(*p.spec, result, outDir + "/" + p.spec->name + ".json");
    }
    std::fprintf(stderr, "# %s: %zu cells x %d runs in %.1f s on %d threads\n",
                 p.spec->name.c_str(), p.spec->cells.size(), result.runs, result.wallSeconds,
                 result.threads);
    // Per-experiment failure report: which cells died, on which seed,
    // and why — the healthy cells above rendered normally.
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      if (!result.cells[i].retries.empty()) {
        std::fprintf(stderr, "# RETRIED %s cell '%s': %zu replica(s) succeeded after retry\n",
                     p.spec->name.c_str(), p.spec->cells[i].id.c_str(),
                     result.cells[i].retries.size());
      }
      if (!result.cells[i].failed()) continue;
      ++failedCells;
      const auto& failures = result.cells[i].failures;
      std::fprintf(stderr, "# FAILED %s cell '%s': %zu replica(s) quarantined\n",
                   p.spec->name.c_str(), p.spec->cells[i].id.c_str(), failures.size());
      for (const auto& f : failures) {
        std::fprintf(stderr, "#   seed %llu (%zu attempt(s)): %s\n",
                     static_cast<unsigned long long>(f.seed), f.attempts.size(),
                     f.error.c_str());
      }
    }
  }
  watcherStop.store(true, std::memory_order_relaxed);
  watcher.join();
  heartbeatStop.store(true, std::memory_order_relaxed);
  if (heartbeat.joinable()) heartbeat.join();

  // Exit-code precedence (documented in usage()): interrupt beats failed
  // cells — a drained run is incomplete, and 3 would falsely suggest the
  // whole sweep ran and some cells were bad.
  if (interrupted) {
    std::fprintf(stderr, "rcsim_bench: interrupted — in-flight replicas drained%s\n",
                 journal ? ", journal flushed" : "");
    if (journal) {
      std::fprintf(stderr, "rcsim_bench: continue with --resume=%s\n", journalDir.c_str());
    }
    return kExitInterrupted;
  }
  if (failedCells > 0) {
    std::fprintf(stderr, "rcsim_bench: %d cell(s) failed — see reports above\n", failedCells);
    return 3;
  }
  return 0;
}
