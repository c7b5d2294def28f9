#include "io/rate_limiter.h"

#include <algorithm>
#include <chrono>

namespace scanraw {

namespace {
// Burst capacity: one bucket's worth of traffic may pass unthrottled so that
// chunk-sized requests do not stutter.
constexpr double kBurstSeconds = 0.05;
}  // namespace

RateLimiter::RateLimiter(uint64_t bytes_per_second, const Clock* clock)
    : bytes_per_second_(bytes_per_second), clock_(clock) {
  last_refill_nanos_ = clock_->NowNanos();
  available_bytes_ = static_cast<double>(bytes_per_second_) * kBurstSeconds;
}

void RateLimiter::Acquire(uint64_t bytes) {
  if (bytes_per_second_ == 0 || bytes == 0) {
    MutexLock lock(mu_);
    total_admitted_ += bytes;
    return;
  }
  const int64_t enter_nanos = clock_->NowNanos();
  bool slept = false;
  bool admitted = false;
  MutexLock lock(mu_);
  while (true) {
    const int64_t now = clock_->NowNanos();
    const double elapsed = static_cast<double>(now - last_refill_nanos_) * 1e-9;
    last_refill_nanos_ = now;
    const double cap = static_cast<double>(bytes_per_second_) * kBurstSeconds;
    available_bytes_ = std::min(
        cap, available_bytes_ +
                 elapsed * static_cast<double>(bytes_per_second_));
    // A request larger than the burst capacity is admitted once the bucket
    // is full, taking the balance negative, and then waits here until the
    // balance is back to zero: it pays its own debt, so the emulated device
    // time lands on this caller, not the next one.
    const double need = std::min(static_cast<double>(bytes), cap);
    if (!admitted && available_bytes_ >= need) {
      available_bytes_ -= static_cast<double>(bytes);
      total_admitted_ += bytes;
      admitted = true;
    }
    if (admitted && available_bytes_ >= 0) {
      if (slept) {
        const int64_t waited = clock_->NowNanos() - enter_nanos;
        total_wait_nanos_ += waited > 0 ? static_cast<uint64_t>(waited) : 0;
        ++throttle_events_;
        if (wait_hist_ != nullptr) {
          wait_hist_->Record(waited > 0 ? static_cast<uint64_t>(waited) : 0);
        }
        if (throttle_counter_ != nullptr) throttle_counter_->Add(1);
      }
      return;
    }
    const double deficit = (admitted ? 0 : need) - available_bytes_;
    const double wait_s = deficit / static_cast<double>(bytes_per_second_);
    slept = true;
    // Timed wait releases the lock while the emulated device "spins"; the
    // loop re-refills from the clock on wakeup, so a spurious or early wake
    // merely retries.
    refill_cv_.WaitFor(lock, std::chrono::duration<double>(wait_s));
  }
}

uint64_t RateLimiter::total_admitted() const {
  MutexLock lock(mu_);
  return total_admitted_;
}

uint64_t RateLimiter::total_wait_nanos() const {
  MutexLock lock(mu_);
  return total_wait_nanos_;
}

uint64_t RateLimiter::throttle_events() const {
  MutexLock lock(mu_);
  return throttle_events_;
}

void RateLimiter::BindMetrics(obs::Histogram* wait_nanos,
                              obs::Counter* throttles) {
  MutexLock lock(mu_);
  wait_hist_ = wait_nanos;
  throttle_counter_ = throttles;
}

}  // namespace scanraw
