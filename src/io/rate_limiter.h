// Token-bucket bandwidth limiter. The paper's testbed has a fixed-throughput
// RAID array (~436 MB/s sustained); on development machines the page cache
// makes raw-file reads essentially free, which would hide the I/O- vs
// CPU-bound crossover SCANRAW exploits. Wiring a RateLimiter into the READ
// and WRITE paths restores a disk with a known, configurable bandwidth.
#ifndef SCANRAW_IO_RATE_LIMITER_H_
#define SCANRAW_IO_RATE_LIMITER_H_

#include <cstdint>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace scanraw {

class RateLimiter {
 public:
  // bytes_per_second == 0 disables limiting entirely.
  explicit RateLimiter(uint64_t bytes_per_second,
                       const Clock* clock = RealClock::Instance());

  // Blocks until `bytes` can be admitted at the configured rate. A request
  // larger than the burst also waits out the debt it leaves before
  // returning.
  void Acquire(uint64_t bytes) EXCLUDES(mu_);

  uint64_t bytes_per_second() const { return bytes_per_second_; }

  // Total bytes admitted so far.
  uint64_t total_admitted() const EXCLUDES(mu_);

  // Cumulative nanoseconds Acquire spent sleeping (the emulated device was
  // busy) and how many Acquire calls slept at all. Per-query deltas of
  // these drive the THROTTLE_WAIT stage of critical-path attribution.
  uint64_t total_wait_nanos() const EXCLUDES(mu_);
  uint64_t throttle_events() const EXCLUDES(mu_);

  // Optional sinks: a histogram of per-Acquire blocking time and a counter
  // of throttled calls. Pass nullptr to unbind. Not thread-safe with
  // concurrent Acquire; bind during setup.
  void BindMetrics(obs::Histogram* wait_nanos, obs::Counter* throttles)
      EXCLUDES(mu_);

 private:
  const uint64_t bytes_per_second_;
  const Clock* clock_;
  mutable Mutex mu_{LockRank::kRateLimiter, "RateLimiter.mu"};
  // Timed-wait channel for throttled Acquires. Nothing signals it during
  // normal operation — the refill is time-driven — but waiting on it keeps
  // the bucket state consistent without a bare sleep.
  CondVar refill_cv_;
  double available_bytes_ GUARDED_BY(mu_) = 0;  // tokens in the bucket
  int64_t last_refill_nanos_ GUARDED_BY(mu_) = 0;
  uint64_t total_admitted_ GUARDED_BY(mu_) = 0;
  uint64_t total_wait_nanos_ GUARDED_BY(mu_) = 0;
  uint64_t throttle_events_ GUARDED_BY(mu_) = 0;
  obs::Histogram* wait_hist_ GUARDED_BY(mu_) = nullptr;
  obs::Counter* throttle_counter_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace scanraw

#endif  // SCANRAW_IO_RATE_LIMITER_H_
