#include "exp/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "core/fingerprint.hpp"
#include "core/options.hpp"
#include "exp/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/watchdog.hpp"

namespace rcsim::exp {

namespace {

double nowSec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double envReplicaWallLimit() {
  return cli::parseWallLimitSeconds(std::getenv("RCSIM_REPLICA_WATCHDOG_SEC"));
}

}  // namespace

/// In-flight experiment state. Replica claims and completion counts are
/// lock-free; the executor mutex only guards the job queue and the done
/// flag.
class SweepExecutor::Job {
 public:
  Job(const ExperimentSpec& spec, int runs, JobOptions opts)
      : spec_{&spec},
        runs_{runs},
        opts_{opts},
        total_{spec.cells.size() * static_cast<std::size_t>(runs)},
        startedAt_{nowSec()},
        cellsLeft_{spec.cells.size()} {
    raw_.resize(spec.cells.size());
    errors_.resize(spec.cells.size());
    trails_.resize(spec.cells.size());
    anatomyMeans_.resize(spec.cells.size());
    cellLeft_ = std::make_unique<std::atomic<int>[]>(spec.cells.size());
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
      raw_[c].resize(static_cast<std::size_t>(runs));
      errors_[c].resize(static_cast<std::size_t>(runs));
      trails_[c].resize(static_cast<std::size_t>(runs));
      anatomyMeans_[c].assign(static_cast<std::size_t>(runs), {std::nan(""), std::nan("")});
      cellLeft_[c].store(runs, std::memory_order_relaxed);
    }
    // The canonical-config digest keys journal records and the resume
    // lookup; only computed when this job is wired for durability.
    if (opts_.journal != nullptr || opts_.resume != nullptr) {
      cellDigest_.reserve(spec.cells.size());
      for (const auto& cs : spec.cells) cellDigest_.push_back(scenarioDigest(cs.config));
    }
    if (opts_.resume != nullptr) {
      prefilled_.resize(spec.cells.size());
      for (std::size_t c = 0; c < spec.cells.size(); ++c) {
        prefilled_[c].assign(static_cast<std::size_t>(runs), 0);
        for (std::size_t r = 0; r < static_cast<std::size_t>(runs); ++r) {
          const RunResult* hit = opts_.resume->find(
              spec.name, spec.cells[c].id, cellDigest_[c], spec.cells[c].startSeed + r);
          if (hit != nullptr) {
            raw_[c][r] = *hit;
            prefilled_[c][r] = 1;
          }
        }
      }
    }
    result_.runs = runs;
    result_.cells.resize(spec.cells.size());
  }

 private:
  friend class SweepExecutor;

  const ExperimentSpec* spec_;
  int runs_;
  JobOptions opts_;
  std::size_t total_;                 ///< cells x runs flattened items
  double startedAt_;
  double wallLimitSec_ = 0.0;         ///< per-replica budget, fixed at submit
  std::atomic<std::size_t> next_{0};  ///< next unclaimed flattened item
  std::atomic<std::size_t> cellsLeft_;
  std::atomic<int> inFlight_{0};      ///< claimed replicas not yet completed
  std::atomic<bool> cancelled_{false};
  std::unique_ptr<std::atomic<int>[]> cellLeft_;
  std::vector<std::vector<RunResult>> raw_;  ///< [cell][replica]; freed per cell
  /// [cell][replica] exception text; non-empty slot = that replica was
  /// quarantined (every attempt threw). Like raw_, each slot is written
  /// only by the replica's claimant before the cellLeft_ fetch_sub, so
  /// the last-replica fold reads it safely.
  std::vector<std::vector<std::string>> errors_;
  /// [cell][replica] per-attempt error trail; non-empty with an empty
  /// errors_ slot = retried-then-successful replica.
  std::vector<std::vector<std::vector<std::string>>> trails_;
  /// [cell][replica] mean detection and convergence seconds of each run's
  /// anatomy rollup (NaN = none), fed to the metrics histograms in
  /// (cell, seed) order when the job finishes: a floating-point sum in
  /// completion order would differ in its last bits from run to run.
  std::vector<std::vector<std::array<double, 2>>> anatomyMeans_;
  std::vector<std::string> cellDigest_;            ///< per-cell canonical-config digest
  std::vector<std::vector<std::uint8_t>> prefilled_;  ///< journaled results folded at submit
  std::atomic<std::size_t> completed_{0};  ///< replicas processed (run or resumed)
  /// Live anatomy rollup for heartbeats, accumulated per successful
  /// replica. Relaxed atomics: heartbeat readers tolerate slight skew.
  std::atomic<std::uint64_t> episodes_{0};
  std::atomic<std::uint64_t> dropsLoop_{0};
  std::atomic<std::uint64_t> dropsBlackhole_{0};
  std::atomic<std::uint64_t> dropsTtl_{0};
  std::atomic<std::uint64_t> dropsQueue_{0};
  /// Sweep profile (replica wall time, journal fsync latency, scheduler
  /// totals via the thread-local scope); serialized into result_.metrics
  /// when the job finishes. All instruments are thread-safe.
  obs::MetricsRegistry metrics_;
  ExperimentResult result_;
  bool done_ = false;  ///< guarded by the executor mutex
};

SweepExecutor::SweepExecutor(int threads) : replicaWallLimitSec_{envReplicaWallLimit()} {
  if (threads <= 0) threads = defaultThreadCount();
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) workers_.emplace_back([this] { workerLoop(); });
}

SweepExecutor::~SweepExecutor() {
  {
    std::lock_guard lk{mu_};
    stop_ = true;
  }
  work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_ptr<SweepExecutor::Job> SweepExecutor::submit(const ExperimentSpec& spec, int runs,
                                                          JobOptions options) {
  auto job = std::make_shared<Job>(spec, runs, options);
  job->wallLimitSec_ = replicaWallLimitSec_;
  {
    std::lock_guard lk{mu_};
    if (job->total_ == 0 || cancelRequested()) {
      // Nothing to run (or the executor is already draining): finish the
      // job immediately so finish() never blocks on work that will not
      // be claimed.
      job->cancelled_.store(cancelRequested(), std::memory_order_release);
      job->result_.wallSeconds = 0.0;
      job->done_ = true;
    } else {
      queue_.push_back(job);
    }
  }
  work_.notify_all();
  return job;
}

ExperimentResult SweepExecutor::finish(const std::shared_ptr<Job>& job) {
  std::unique_lock lk{mu_};
  done_.wait(lk, [&] { return job->done_; });
  ExperimentResult out = std::move(job->result_);
  out.threads = threadCount();
  return out;
}

ExperimentResult SweepExecutor::execute(const ExperimentSpec& spec, int runs) {
  return finish(submit(spec, runs));
}

void SweepExecutor::requestCancel() {
  cancel_.store(true, std::memory_order_relaxed);
  // Wake idle workers so queued-but-unclaimed jobs get retired and
  // finalized; busy workers observe the flag when they loop back.
  work_.notify_all();
}

JobProgress SweepExecutor::progress(const std::shared_ptr<Job>& job) {
  JobProgress p;
  if (job == nullptr) return p;
  p.total = job->total_;
  p.completed = std::min(job->completed_.load(std::memory_order_relaxed), job->total_);
  p.episodes = job->episodes_.load(std::memory_order_relaxed);
  p.dropsLoop = job->dropsLoop_.load(std::memory_order_relaxed);
  p.dropsBlackhole = job->dropsBlackhole_.load(std::memory_order_relaxed);
  p.dropsTtl = job->dropsTtl_.load(std::memory_order_relaxed);
  p.dropsQueue = job->dropsQueue_.load(std::memory_order_relaxed);
  return p;
}

void SweepExecutor::markDoneLocked(Job& job) {
  if (job.done_) return;
  for (const auto& cell : job.anatomyMeans_) {
    for (const auto& [detection, convergence] : cell) {
      if (!std::isnan(detection)) {
        job.metrics_.histogram("anatomy.detection_sec").observe(detection);
      }
      if (!std::isnan(convergence)) {
        job.metrics_.histogram("anatomy.convergence_sec").observe(convergence);
      }
    }
  }
  job.result_.wallSeconds = nowSec() - job.startedAt_;
  job.result_.metrics = job.metrics_.toJson();
  job.done_ = true;
  done_.notify_all();
}

void SweepExecutor::workerLoop() {
  std::unique_lock lk{mu_};
  for (;;) {
    work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    auto job = queue_.front();
    if (cancelRequested()) {
      // Drain mode: claim nothing more. Retire the job; the last of its
      // in-flight replicas (or this pop, when none are in flight)
      // finalizes it with whatever cells completed.
      queue_.pop_front();
      job->cancelled_.store(true, std::memory_order_release);
      if (job->inFlight_.load(std::memory_order_acquire) == 0) markDoneLocked(*job);
      continue;
    }
    const std::size_t item = job->next_.fetch_add(1, std::memory_order_relaxed);
    if (item >= job->total_) {
      // Every replica claimed; retire the job from the queue (another
      // worker may have done so already) and let its claimants finish.
      if (!queue_.empty() && queue_.front() == job) queue_.pop_front();
      continue;
    }
    job->inFlight_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    runReplica(*job, item);
    lk.lock();
    if (job->inFlight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        job->cancelled_.load(std::memory_order_acquire)) {
      markDoneLocked(*job);
    }
  }
}

bool SweepExecutor::backoffBeforeRetry(const RetryPolicy& policy, int attempt) {
  double delay = policy.backoffBaseSec * std::ldexp(1.0, attempt - 1);
  delay = std::clamp(delay, 0.0, std::max(0.0, policy.backoffMaxSec));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(delay);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancelRequested()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return !cancelRequested();
}

void SweepExecutor::journalReplica(Job& job, std::size_t cell, std::size_t rep, bool ok) {
  if (job.opts_.journal == nullptr) return;
  const CellSpec& cs = job.spec_->cells[cell];
  JournalRecord rec;
  rec.experiment = job.spec_->name;
  rec.cell = cs.id;
  rec.configDigest = job.cellDigest_[cell];
  rec.seed = cs.startSeed + rep;
  rec.ok = ok;
  const auto& trail = job.trails_[cell][rep];
  rec.attempt = static_cast<int>(trail.size()) + (ok ? 1 : 0);
  if (ok) {
    rec.result = job.raw_[cell][rep];
  } else {
    rec.errors = trail;
  }
  try {
    const double t0 = nowSec();
    job.opts_.journal->append(rec);
    job.metrics_.histogram("journal.fsync_sec").observe(nowSec() - t0);
  } catch (const std::exception& e) {
    // A journal write failure must not take down the sweep — the replica
    // itself completed. Durability is degraded, so say so loudly once per
    // failure site rather than silently.
    std::fprintf(stderr, "sweep journal: append failed (%s) — this replica will re-run on resume\n",
                 e.what());
  }
}

void SweepExecutor::runReplica(Job& job, std::size_t item) {
  // Cell-major flattening: early cells finish (and free their raw
  // replicas) first, keeping peak memory near one cell's worth per thread.
  const std::size_t cell = item / static_cast<std::size_t>(job.runs_);
  const std::size_t rep = item % static_cast<std::size_t>(job.runs_);
  const CellSpec& cs = job.spec_->cells[cell];

  const bool prefilled = !job.prefilled_.empty() && job.prefilled_[cell][rep] != 0;
  if (prefilled) {
    job.metrics_.counter("replica.resumed").add();
  } else {
    ScenarioConfig cfg = cs.config;
    cfg.seed = cs.startSeed + rep;
    const int maxAttempts = std::max(1, job.opts_.retry.maxAttempts);
    std::vector<std::string> trail;
    bool ok = false;
    // Publish scheduler totals from runScenario into this job's registry
    // via the thread-local scope, and time the replica end to end.
    const obs::MetricsScope metricsScope{job.metrics_};
    const double replicaStart = nowSec();
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
      try {
        // A replica whose every attempt throws (scenario bug, invariant
        // violation, watchdog timeout) takes out only its own cell's
        // aggregate: the error trail is recorded and every other cell
        // completes exactly as if the failed replica had never been
        // enqueued. A replica that succeeds on a retry folds exactly like
        // a first-try success.
        watchdog::Scope wd{job.wallLimitSec_};
        job.raw_[cell][rep] = cs.run ? cs.run(cfg) : runScenario(cfg);
        ok = true;
        break;
      } catch (const std::exception& e) {
        trail.emplace_back(e.what()[0] != '\0' ? e.what() : "unknown std::exception");
      } catch (...) {
        trail.emplace_back("unknown non-standard exception");
      }
      if (attempt >= maxAttempts) break;
      if (!backoffBeforeRetry(job.opts_.retry, attempt)) {
        trail.emplace_back("retry abandoned: executor draining after cancel");
        break;
      }
    }
    job.metrics_.histogram("replica.wall_sec").observe(nowSec() - replicaStart);
    job.metrics_.counter(ok ? "replica.ok" : "replica.quarantined").add();
    if (!trail.empty()) job.metrics_.counter("replica.retry_attempts").add(trail.size());
    if (!ok) job.errors_[cell][rep] = trail.back();
    if (!trail.empty()) job.trails_[cell][rep] = std::move(trail);
    journalReplica(job, cell, rep, ok);
    if (ok) {
      const auto& an = job.raw_[cell][rep].anatomy;
      const auto mean = [](double total, std::uint64_t n) {
        return n > 0 ? total / static_cast<double>(n) : std::nan("");
      };
      job.anatomyMeans_[cell][rep] = {mean(an.detectionSecTotal, an.detectedEpisodes),
                                      mean(an.convergenceSecTotal, an.convergedEpisodes)};
      job.episodes_.fetch_add(an.episodes, std::memory_order_relaxed);
      job.dropsLoop_.fetch_add(an.dropsLoop, std::memory_order_relaxed);
      job.dropsBlackhole_.fetch_add(an.dropsBlackhole, std::memory_order_relaxed);
      job.dropsTtl_.fetch_add(an.dropsTtl, std::memory_order_relaxed);
      job.dropsQueue_.fetch_add(an.dropsQueue, std::memory_order_relaxed);
    }
  }
  job.completed_.fetch_add(1, std::memory_order_relaxed);

  if (job.cellLeft_[cell].fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last replica of this cell: fold in seed order (the vector is already
  // seed-ordered, so this matches a serial runScenario loop bit for bit)
  // and drop the raw replicas. If any replica was quarantined, the cell becomes a
  // failure report instead — a partial aggregate would silently skew the
  // means. Retried-then-successful replicas keep their error trail in
  // `retries` without failing the cell.
  CellResult& out = job.result_.cells[cell];
  bool anyFailed = false;
  for (std::size_t r = 0; r < job.errors_[cell].size(); ++r) {
    if (job.errors_[cell][r].empty()) {
      if (!job.trails_[cell][r].empty()) {
        out.retries.push_back(ReplicaRetry{cs.startSeed + r, std::move(job.trails_[cell][r])});
      }
      continue;
    }
    anyFailed = true;
    out.failures.push_back(ReplicaFailure{cs.startSeed + r, std::move(job.errors_[cell][r]),
                                          std::move(job.trails_[cell][r])});
  }
  if (!anyFailed) {
    out.agg = Aggregate::over(job.raw_[cell]);
    out.totals = CellStats::over(job.raw_[cell]);
    // Seed-order sum, so pooled execution folds bit-identically to a
    // serial loop over runScenario (anatomyDigest pins the equivalence).
    for (const RunResult& rr : job.raw_[cell]) out.convergence += rr.anatomy;
    out.snapshots.reserve(job.raw_[cell].size());
    for (std::size_t r = 0; r < job.raw_[cell].size(); ++r) {
      out.snapshots.push_back(SnapshotDigests{cs.startSeed + r,
                                              std::move(job.raw_[cell][r].fibDigestBefore),
                                              std::move(job.raw_[cell][r].fibDigestAfter)});
    }
  }
  job.metrics_.counter(anyFailed ? "cell.failed" : "cell.completed").add();
  std::vector<RunResult>{}.swap(job.raw_[cell]);
  std::vector<std::string>{}.swap(job.errors_[cell]);
  std::vector<std::vector<std::string>>{}.swap(job.trails_[cell]);

  if (job.cellsLeft_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  // Last cell of the experiment.
  {
    std::lock_guard lk{mu_};
    markDoneLocked(job);
  }
}

}  // namespace rcsim::exp
