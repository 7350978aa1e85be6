#pragma once

// Barrier-free sweep execution, and the simulator's only replica runner.
// Historically every (protocol, degree) cell was its own fork/join:
// threads were capped at the cell's replica count and every cell ended in
// a join barrier, so a 56-cell figure sweep spent most of its wall time
// waiting on each cell's slowest replica. The SweepExecutor instead flattens ALL (cell, seed) replicas of
// an experiment into one work queue drained by a persistent thread pool —
// the only synchronization point is experiment completion.
//
// Determinism: replica (cell c, index i) always simulates seed
// cell.startSeed + i and lands in results[c][i], so per-cell aggregates
// are bit-identical to a serial runScenario loop over each cell's seeds no
// matter how the pool interleaves cells (verified by test_exp.cpp against
// core/fingerprint).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "exp/spec.hpp"

namespace rcsim::exp {

class JournalWriter;
class JournalIndex;

/// Retry policy for failed replicas: a replica gets `maxAttempts` total
/// tries with exponential backoff between them (backoffBaseSec doubling
/// per retry, capped at backoffMaxSec); a replica that fails its last
/// attempt is quarantined into its cell's failure report with the full
/// per-attempt error trail. maxAttempts <= 1 disables retry.
struct RetryPolicy {
  int maxAttempts = 2;
  double backoffBaseSec = 0.05;
  double backoffMaxSec = 2.0;
};

/// Live progress snapshot of a job, for heartbeat/progress reporting.
/// The anatomy counters accumulate as replicas complete (successful runs
/// only), so a long sweep's heartbeat shows convergence episodes and drop
/// attribution while it runs.
struct JobProgress {
  std::size_t total = 0;      ///< cells x runs replicas
  std::size_t completed = 0;  ///< replicas finished (run, resumed or failed)
  std::uint64_t episodes = 0;        ///< convergence episodes so far
  std::uint64_t dropsLoop = 0;       ///< loop-attributed data drops so far
  std::uint64_t dropsBlackhole = 0;  ///< black-hole-attributed drops so far
  std::uint64_t dropsTtl = 0;        ///< plain TTL drops so far
  std::uint64_t dropsQueue = 0;      ///< queue-overflow drops so far
};

/// Per-job wiring for durability and resume. Both pointers are borrowed
/// and must outlive the job.
struct JobOptions {
  RetryPolicy retry{};
  /// Append one CRC-guarded record per completed replica (success or
  /// quarantine) and fsync before the replica counts as done.
  JournalWriter* journal = nullptr;
  /// Fold journaled successes instead of re-running them; only missing
  /// and previously-quarantined replicas execute.
  const JournalIndex* resume = nullptr;
};

class SweepExecutor {
 public:
  /// threads <= 0 picks defaultThreadCount() (env RCSIM_THREADS, else
  /// hardware concurrency). Threads are spawned once and reused across
  /// every experiment submitted to this executor.
  explicit SweepExecutor(int threads = 0);
  ~SweepExecutor();

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  class Job;

  /// Enqueue every (cell, seed) replica of `spec`. Returns immediately;
  /// several experiments may be in flight at once (FIFO between them), so
  /// a multi-experiment sweep never drains the pool between experiments.
  /// The spec must outlive the job (registry specs are static).
  /// `options` wires the retry policy, the durable journal, and the
  /// resume index for this job.
  [[nodiscard]] std::shared_ptr<Job> submit(const ExperimentSpec& spec, int runs,
                                            JobOptions options = {});

  /// Block until `job` finishes and return its aggregated result.
  [[nodiscard]] ExperimentResult finish(const std::shared_ptr<Job>& job);

  /// Convenience: submit + finish.
  [[nodiscard]] ExperimentResult execute(const ExperimentSpec& spec, int runs);

  [[nodiscard]] int threadCount() const { return static_cast<int>(workers_.size()); }

  /// Lock-free progress snapshot of an in-flight (or finished) job; safe
  /// to poll from any thread (the heartbeat in rcsim_bench does).
  [[nodiscard]] static JobProgress progress(const std::shared_ptr<Job>& job);

  /// Wall-clock budget per replica, in seconds (<= 0 disables, the
  /// default). A replica that overruns is aborted via watchdog::Timeout
  /// and recorded in its cell's failure report; the rest of the sweep is
  /// untouched. Also settable via env RCSIM_REPLICA_WATCHDOG_SEC (the
  /// constructor reads it; this setter overrides). Applies to jobs
  /// submitted after the call.
  void setReplicaWallLimit(double seconds) { replicaWallLimitSec_ = seconds; }
  [[nodiscard]] double replicaWallLimit() const { return replicaWallLimitSec_; }

  /// Graceful drain (the SIGINT/SIGTERM path): stop claiming new
  /// replicas, let in-flight ones finish and journal, then mark every
  /// unfinished job done so finish() returns its partial result. Safe to
  /// call from any thread (but NOT from a signal handler — set a flag
  /// there and call this from a normal thread). Irreversible.
  void requestCancel();
  [[nodiscard]] bool cancelRequested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  void workerLoop();
  void runReplica(Job& job, std::size_t item);
  void journalReplica(Job& job, std::size_t cell, std::size_t rep, bool ok);
  /// Sleep the exponential-backoff delay before retry `attempt` + 1,
  /// polling for cancellation; returns false when the retry should be
  /// abandoned because the executor is draining.
  [[nodiscard]] bool backoffBeforeRetry(const RetryPolicy& policy, int attempt);
  void markDoneLocked(Job& job);

  double replicaWallLimitSec_ = 0.0;
  std::atomic<bool> cancel_{false};
  std::mutex mu_;
  std::condition_variable work_;
  std::condition_variable done_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rcsim::exp
