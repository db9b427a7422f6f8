#pragma once
// Cooperative cancellation: the one-way flag behind JobGroup::cancel. A
// cancelled or failed group trips it; queued-but-unstarted tasks see it at
// pickup and complete as no-ops.

#include <atomic>

namespace trichroma {

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }
  /// The raw flag (JobGroup::cancel_flag).
  const std::atomic<bool>* flag() const { return &stop_; }

 private:
  std::atomic<bool> stop_{false};
};

}  // namespace trichroma
