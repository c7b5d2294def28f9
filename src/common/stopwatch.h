// Stopwatch: cumulative interval timer used by the pipeline profiler
// ("special function calls to harness detailed profiling data", §5).
#ifndef SCANRAW_COMMON_STOPWATCH_H_
#define SCANRAW_COMMON_STOPWATCH_H_

#include <atomic>
#include <cstdint>

#include "common/clock.h"

namespace scanraw {

// Accumulates elapsed nanoseconds across Start/Stop intervals. AddNanos is
// thread-safe so many workers can charge time to one shared stage counter.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock = RealClock::Instance())
      : clock_(clock) {}

  void Start() { start_nanos_ = clock_->NowNanos(); }
  void Stop() { AddNanos(clock_->NowNanos() - start_nanos_); }

  void AddNanos(int64_t nanos) {
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    intervals_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t TotalNanos() const {
    return total_nanos_.load(std::memory_order_relaxed);
  }
  double TotalSeconds() const {
    return static_cast<double>(TotalNanos()) * 1e-9;
  }
  int64_t intervals() const {
    return intervals_.load(std::memory_order_relaxed);
  }

  void Reset() {
    total_nanos_.store(0, std::memory_order_relaxed);
    intervals_.store(0, std::memory_order_relaxed);
  }

 private:
  const Clock* clock_;
  int64_t start_nanos_ = 0;
  std::atomic<int64_t> total_nanos_{0};
  std::atomic<int64_t> intervals_{0};
};

}  // namespace scanraw

#endif  // SCANRAW_COMMON_STOPWATCH_H_
