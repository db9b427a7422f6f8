#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trichroma {

JobGroup::~JobGroup() {
  std::unique_lock<std::mutex> lock(executor_.mutex_);
  drain(lock);
}

void JobGroup::submit(std::function<void()> fn) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(executor_.mutex_);
    ++outstanding_;
    executor_.queue_.push_back(Executor::Job{this, std::move(fn)});
    depth = executor_.queue_.size();
    executor_.stats_.max_queue_depth =
        std::max<std::uint64_t>(executor_.stats_.max_queue_depth, depth);
  }
  static obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("executor.queue_depth");
  queue_depth.set(static_cast<std::int64_t>(depth));
  // One condition variable serves workers and waiters alike, so wake all:
  // notify_one could land on a waiter of another group.
  executor_.cv_.notify_all();
}

void JobGroup::wait() {
  std::unique_lock<std::mutex> lock(executor_.mutex_);
  drain(lock);
  if (first_error_ == nullptr || error_reported_) return;
  error_reported_ = true;
  std::rethrow_exception(first_error_);  // unwinding releases the lock
}

void JobGroup::drain(std::unique_lock<std::mutex>& lock) {
  std::deque<Executor::Job>& queue = executor_.queue_;
  while (outstanding_ > 0) {
    const auto mine = std::find_if(queue.begin(), queue.end(), [this](const auto& job) {
      return job.group == this;
    });
    if (mine == queue.end()) {  // the rest runs on workers: sleep until one ends
      executor_.cv_.wait(lock);
      continue;
    }
    Executor::Job job = std::move(*mine);
    queue.erase(mine);
    ++executor_.stats_.help_runs;
    executor_.run(std::move(job), lock);
  }
}

Executor::Executor(int workers) { ensure_workers(workers); }

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Executor& Executor::global() {
  // Leaked on purpose: worker threads must not be joined from static
  // destructors (tasks could still reference other statics).
  static Executor* instance = new Executor(0);
  return *instance;
}

void Executor::ensure_workers(int n) {
  std::lock_guard<std::mutex> lock(mutex_);
  n = std::min(n, kMaxWorkers);
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

int Executor::workers_spawned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(threads_.size());
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Executor::run(Job job, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  static obs::Histogram& latency =
      obs::MetricsRegistry::global().histogram("executor.job_latency_ns");
  std::exception_ptr error;
  const auto start = std::chrono::steady_clock::now();
  {
    TRI_SPAN("executor/job");  // pool worker and waiting thread alike
    try {
      job.fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  const std::chrono::nanoseconds took = std::chrono::steady_clock::now() - start;
  latency.record(static_cast<std::uint64_t>(took.count()));
  job.fn = nullptr;  // release captures before the group may be destroyed
  lock.lock();
  JobGroup& group = *job.group;
  if (group.first_error_ == nullptr) group.first_error_ = error;
  if (--group.outstanding_ == 0) cv_.notify_all();
}

void Executor::worker_loop() {
  static obs::Counter& jobs =
      obs::MetricsRegistry::global().counter("executor.jobs_run");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.jobs_run;
    jobs.add();
    run(std::move(job), lock);
  }
}

}  // namespace trichroma
