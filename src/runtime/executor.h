#pragma once
// The batch pool: persistent worker threads serving one mutex-guarded FIFO
// queue, for the solver's one parallel axis — whole-task batch jobs and the
// batch fingerprint pre-pass (solver/batch.h). Everything inside one task's
// pipeline is sequential.
//
// Job model. Work is submitted through a JobGroup, which counts its queued
// and running tasks and keeps the first exception any of them threw.
// `wait()` blocks until every task of the group finished, running the
// group's still-queued tasks inline while it waits, so a group waited on
// from inside a job, or on a pool with no workers at all, never deadlocks.
// The pool promises nothing about ordering; solver/batch.cpp writes results
// by catalog slot.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace trichroma {

class Executor;

/// Scheduling telemetry (Executor::stats), cumulative since construction.
/// Pure observability, and timing-dependent.
struct ExecutorStats {
  std::uint64_t jobs_run = 0;  ///< tasks run by a pool worker
  /// Inert, always 0; kept only for perfbench/src/measure.cpp.
  std::uint64_t steals = 0;
  /// Inert, always 0; kept only for perfbench/src/measure.cpp.
  std::uint64_t injections = 0;
  std::uint64_t max_queue_depth = 0;  ///< high-water mark of the queue
  std::uint64_t help_runs = 0;  ///< tasks run inline by a blocked wait()
};

/// A batch of related tasks. Not thread-safe as a handle (submit/wait from
/// the owning thread); the tasks themselves run anywhere.
class JobGroup {
 public:
  explicit JobGroup(Executor& executor) : executor_(executor) {}
  ~JobGroup();  ///< waits like wait(), but swallows the exception

  JobGroup(const JobGroup&) = delete;
  JobGroup& operator=(const JobGroup&) = delete;

  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished, running the group's
  /// queued tasks inline while blocked. Rethrows the first exception a task
  /// threw (once).
  void wait();

 private:
  friend class Executor;

  /// wait() without the rethrow; the caller holds `lock` on the pool mutex.
  void drain(std::unique_lock<std::mutex>& lock);

  Executor& executor_;
  // Guarded by the executor's mutex.
  std::size_t outstanding_ = 0;  // queued or running
  std::exception_ptr first_error_;
  bool error_reported_ = false;
};

/// The pool. One process-wide instance (global()) is shared by the solver;
/// tests construct private ones. Workers are started by ensure_workers and
/// live until destruction, so repeated submissions reuse them.
class Executor {
 public:
  /// Starts `workers` threads (0 = none: wait() runs everything inline).
  explicit Executor(int workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool used by the solver layers.
  static Executor& global();

  /// Grows the pool to at least `n` workers (clamped to kMaxWorkers; never
  /// shrinks).
  void ensure_workers(int n);
  int workers_spawned() const;

  ExecutorStats stats() const;

  static constexpr int kMaxWorkers = 64;

 private:
  friend class JobGroup;

  struct Job {
    JobGroup* group;
    std::function<void()> fn;
  };

  void worker_loop();
  /// Runs `job` with `lock` released, then charges its completion (and any
  /// exception) to its group with `lock` held again.
  void run(Job job, std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // new work, finished work, or stopping
  std::deque<Job> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
  ExecutorStats stats_;
};

}  // namespace trichroma
