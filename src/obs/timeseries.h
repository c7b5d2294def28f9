// Time-series rings over registry metrics: fixed-capacity (timestamp,
// value) rings snapshotting selected counters / gauges / histogram
// quantiles, so /metrics and the CLI can report *rates* (rows/s, bytes/s,
// cache hit rate over the last N seconds) instead of lifetime totals. The
// rings' consumers sample them with SampleNow from a ticker task
// (pipeline/ticker.h): the stats server every interval_nanos(), and the
// CLI's --metrics-interval-ms printer at its own period.
#ifndef SCANRAW_OBS_TIMESERIES_H_
#define SCANRAW_OBS_TIMESERIES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace scanraw {
namespace obs {

// Fixed-capacity ring of (timestamp, value) points. Thread-safe; keeps the
// most recent `capacity` points.
class TimeSeriesRing {
 public:
  struct Point {
    int64_t ts_nanos = 0;
    double value = 0.0;
  };

  explicit TimeSeriesRing(size_t capacity);

  void Append(int64_t ts_nanos, double value) EXCLUDES(mu_);

  // Oldest-to-newest copy of the retained points.
  std::vector<Point> Snapshot() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  uint64_t total_appended() const EXCLUDES(mu_);

  // Newest point; false when empty.
  bool Latest(Point* out) const EXCLUDES(mu_);

  // Value and time deltas between the newest point and the oldest retained
  // point not older than `window_nanos` before it. False when fewer than
  // two points fall in the window or the elapsed time is zero (two samples
  // with identical timestamps must not divide by zero).
  bool DeltaOver(int64_t window_nanos, double* delta,
                 int64_t* elapsed_nanos) const EXCLUDES(mu_);

  // Counter-style rate: DeltaOver / elapsed seconds. 0.0 when undefined.
  double RatePerSecond(int64_t window_nanos) const EXCLUDES(mu_);

 private:
  const size_t capacity_;
  mutable Mutex mu_{LockRank::kTimeSeriesRing, "TimeSeriesRing.mu"};
  std::vector<Point> ring_ GUARDED_BY(mu_);
  uint64_t next_ GUARDED_BY(mu_) = 0;
};

// A named collection of rings, each tracking one registry metric. Tracked
// metrics are resolved once (stable registry pointers) and then read with
// relaxed loads on every sample.
class TimeSeries {
 public:
  enum class Kind : uint8_t {
    kCounter = 0,            // monotonic; rates are meaningful
    kGauge = 1,              // level; Latest is meaningful
    kHistogramQuantile = 2,  // level (a quantile snapshot)
  };

  struct RateRow {
    std::string name;
    Kind kind = Kind::kCounter;
    double rate_per_sec = 0.0;  // counters only; 0 when undefined
    bool rate_defined = false;
    double latest = 0.0;
    size_t points = 0;
  };

  // Begin tracking a registry metric under `series_name` (defaults to the
  // metric name). Idempotent per series name. Thread-safe.
  void TrackCounter(MetricsRegistry* registry, std::string_view metric,
                    std::string_view series_name = {}) EXCLUDES(mu_);
  void TrackGauge(MetricsRegistry* registry, std::string_view metric,
                  std::string_view series_name = {}) EXCLUDES(mu_);
  void TrackHistogramQuantile(MetricsRegistry* registry,
                              std::string_view metric, double quantile,
                              std::string_view series_name = {}) EXCLUDES(mu_);

  // The standard pipeline set: rows/bytes delivered, cache hits/misses,
  // chunks written, p95 read latency. Safe to call before the metrics are
  // first bumped (registration creates them at zero).
  void TrackPipelineDefaults(MetricsRegistry* registry) EXCLUDES(mu_);

  // Sample every tracked series at `now_nanos`.
  void SampleNow(int64_t now_nanos) EXCLUDES(mu_);

  // Ring lookup by series name; nullptr when not tracked. The pointer stays
  // valid for the TimeSeries' lifetime.
  const TimeSeriesRing* Find(std::string_view series_name) const EXCLUDES(mu_);

  // One row per tracked series, rates computed over the trailing window.
  std::vector<RateRow> Rates(int64_t window_nanos) const EXCLUDES(mu_);

  // Cache hit rate over the window: d(hits) / (d(hits) + d(misses)).
  // False when either series is missing or no lookups landed in the window.
  bool CacheHitRate(int64_t window_nanos, double* rate) const EXCLUDES(mu_);

  // The stats server's sampling period, read when it starts: 1 s unless
  // set (the CLI's --timeseries-interval-ms); 0 = no sampling.
  int64_t interval_nanos() const {
    return interval_nanos_.load(std::memory_order_relaxed);
  }
  void set_interval_nanos(int64_t nanos) {
    interval_nanos_.store(nanos > 0 ? nanos : 0,
                          std::memory_order_relaxed);
  }

  size_t num_series() const EXCLUDES(mu_);

 private:
  struct Series {
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    double quantile = 0.0;
    std::unique_ptr<TimeSeriesRing> ring;
  };

  void Track(Series series) EXCLUDES(mu_);
  double ReadSource(const Series& s) const;

  static constexpr size_t kRingCapacity = 512;  // points per series
  std::atomic<int64_t> interval_nanos_{1'000'000'000};

  mutable Mutex mu_{LockRank::kTimeSeries, "TimeSeries.mu"};
  std::vector<std::unique_ptr<Series>> series_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_TIMESERIES_H_
