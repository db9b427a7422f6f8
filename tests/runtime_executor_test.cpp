// The batch pool (runtime/executor.h): N workers serving N blocking jobs,
// exception propagation through wait(), pool reuse across submissions, the
// zero-worker inline path, and a group waited on from inside a job.
// The suite runs TSAN-clean (the TRICHROMA_TSAN CI job includes it).

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/executor.h"

namespace trichroma {
namespace {

TEST(Executor, ZeroWorkersRunsEverythingInlineInWait) {
  Executor executor(0);
  JobGroup group(executor);
  std::atomic<int> ran{0};
  std::thread::id waiter = std::this_thread::get_id();
  std::atomic<bool> all_on_waiter{true};
  for (int i = 0; i < 16; ++i) {
    group.submit([&] {
      if (std::this_thread::get_id() != waiter) all_on_waiter = false;
      ++ran;
    });
  }
  EXPECT_EQ(ran.load(), 0);  // nothing runs until somebody waits
  group.wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_TRUE(all_on_waiter.load());
}

TEST(Executor, WorkersServeABurstOfBlockingJobsAtOnce) {
  // All tasks are submitted from this (non-worker) thread, then each task
  // blocks until every worker has picked one up: the burst cannot complete
  // unless at least `workers` distinct threads serve the queue.
  const int workers = 4;
  Executor executor(workers);
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::thread::id> seen;

  JobGroup group(executor);
  for (int i = 0; i < workers; ++i) {
    group.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait(lock, [&] { return seen.size() >= static_cast<std::size_t>(workers); });
    });
  }
  group.wait();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(workers));
}

TEST(Executor, ExceptionPropagatesToWaitOnce) {
  Executor executor(2);
  JobGroup group(executor);
  std::atomic<int> ran{0};
  group.submit([] { throw std::runtime_error("boom"); });
  group.submit([&] { ++ran; });
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 1);  // a sibling of the failed task still runs
  group.wait();  // second wait does not rethrow (reported once)
}

TEST(Executor, PoolIsReusedAcrossSubmissionRounds) {
  Executor executor(2);
  const int spawned_before = executor.workers_spawned();
  for (int round = 0; round < 20; ++round) {
    JobGroup group(executor);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) group.submit([&] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 8);
  }
  // Twenty rounds, zero new threads: ensure_workers never re-spawns.
  EXPECT_EQ(executor.workers_spawned(), spawned_before);
  EXPECT_EQ(executor.workers_spawned(), 2);
  // Workers and the waiting thread race for the tasks; each task counts
  // once, as a pool job or as a help run.
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.jobs_run + stats.help_runs, 160u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.injections, 0u);
}

TEST(Executor, EnsureWorkersGrowsButNeverShrinksAndClamps) {
  Executor executor(1);
  EXPECT_EQ(executor.workers_spawned(), 1);
  executor.ensure_workers(3);
  EXPECT_EQ(executor.workers_spawned(), 3);
  executor.ensure_workers(2);  // no-op
  EXPECT_EQ(executor.workers_spawned(), 3);
  executor.ensure_workers(Executor::kMaxWorkers + 100);
  EXPECT_EQ(executor.workers_spawned(), Executor::kMaxWorkers);
}

TEST(Executor, WaiterHelpsWithNestedGroupsWithoutDeadlock) {
  // A task that itself creates a group and waits on it, on a pool of one
  // worker: progress requires help-while-waiting (the single worker is
  // inside the outer task when the inner tasks queue up).
  Executor executor(1);
  JobGroup outer(executor);
  std::atomic<int> inner_ran{0};
  outer.submit([&] {
    JobGroup inner(executor);
    for (int i = 0; i < 4; ++i) inner.submit([&] { ++inner_ran; });
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(inner_ran.load(), 4);
}

TEST(ExecutorStats, CountsJobsRunByPoolWorkers) {
  // Two jobs submitted from this (non-worker) thread, each held open until
  // both have been claimed: both must be executed by the two pool workers —
  // this thread only calls wait() after both started, so it can never run
  // them inline.
  Executor executor(2);
  EXPECT_EQ(executor.stats().jobs_run, 0u);
  JobGroup group(executor);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    group.submit([&] {
      ++started;
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  release = true;
  group.wait();
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.jobs_run, 2u);
  EXPECT_EQ(stats.help_runs, 0u);
  EXPECT_GE(stats.max_queue_depth, 1u);
}

TEST(ExecutorStats, ZeroWorkerInlineExecutionCountsNothing) {
  // No worker runs anything: every task waits in the queue until wait()
  // runs it inline, so the pool counts no job run (each is a help run).
  Executor executor(0);
  JobGroup group(executor);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) group.submit([&] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 4);
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.jobs_run, 0u);
  EXPECT_EQ(stats.help_runs, 4u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
}

}  // namespace
}  // namespace trichroma
