#include "obs/timeseries.h"

#include <algorithm>

namespace scanraw {
namespace obs {

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeriesRing::Append(int64_t ts_nanos, double value) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(Point{ts_nanos, value});
  } else {
    ring_[next_ % capacity_] = Point{ts_nanos, value};
  }
  ++next_;
}

std::vector<TimeSeriesRing::Point> TimeSeriesRing::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Point> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_ % capacity_ is the oldest slot once the ring has wrapped.
    const size_t head = next_ % capacity_;
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

size_t TimeSeriesRing::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t TimeSeriesRing::total_appended() const {
  MutexLock lock(mu_);
  return next_;
}

bool TimeSeriesRing::Latest(Point* out) const {
  MutexLock lock(mu_);
  if (ring_.empty()) return false;
  const size_t newest = ring_.size() < capacity_
                            ? ring_.size() - 1
                            : (next_ + capacity_ - 1) % capacity_;
  *out = ring_[newest];
  return true;
}

bool TimeSeriesRing::DeltaOver(int64_t window_nanos, double* delta,
                               int64_t* elapsed_nanos) const {
  std::vector<Point> points = Snapshot();
  if (points.size() < 2) return false;
  const Point& newest = points.back();
  // The oldest retained point still inside the trailing window.
  const Point* base = nullptr;
  for (const Point& p : points) {
    if (newest.ts_nanos - p.ts_nanos <= window_nanos) {
      base = &p;
      break;
    }
  }
  if (base == nullptr || base == &newest) return false;
  const int64_t elapsed = newest.ts_nanos - base->ts_nanos;
  if (elapsed <= 0) return false;  // zero-interval guard
  *delta = newest.value - base->value;
  *elapsed_nanos = elapsed;
  return true;
}

double TimeSeriesRing::RatePerSecond(int64_t window_nanos) const {
  double delta = 0.0;
  int64_t elapsed = 0;
  if (!DeltaOver(window_nanos, &delta, &elapsed)) return 0.0;
  return delta * 1e9 / static_cast<double>(elapsed);
}

void TimeSeries::Track(Series series) {
  MutexLock lock(mu_);
  for (const auto& existing : series_) {
    if (existing->name == series.name) return;  // idempotent
  }
  series.ring = std::make_unique<TimeSeriesRing>(kRingCapacity);
  series_.push_back(std::make_unique<Series>(std::move(series)));
}

void TimeSeries::TrackCounter(MetricsRegistry* registry,
                              std::string_view metric,
                              std::string_view series_name) {
  Series s;
  s.name = std::string(series_name.empty() ? metric : series_name);
  s.kind = Kind::kCounter;
  s.counter = registry->GetCounter(metric);
  Track(std::move(s));
}

void TimeSeries::TrackGauge(MetricsRegistry* registry, std::string_view metric,
                            std::string_view series_name) {
  Series s;
  s.name = std::string(series_name.empty() ? metric : series_name);
  s.kind = Kind::kGauge;
  s.gauge = registry->GetGauge(metric);
  Track(std::move(s));
}

void TimeSeries::TrackHistogramQuantile(MetricsRegistry* registry,
                                        std::string_view metric,
                                        double quantile,
                                        std::string_view series_name) {
  Series s;
  s.name = std::string(series_name.empty() ? metric : series_name);
  s.kind = Kind::kHistogramQuantile;
  s.histogram = registry->GetHistogram(metric);
  s.quantile = quantile;
  Track(std::move(s));
}

void TimeSeries::TrackPipelineDefaults(MetricsRegistry* registry) {
  TrackCounter(registry, "scanraw.rows_delivered");
  TrackCounter(registry, "scanraw.bytes_converted");
  TrackCounter(registry, "scanraw.cache.hits");
  TrackCounter(registry, "scanraw.cache.misses");
  TrackCounter(registry, "scanraw.chunks_written");
  TrackHistogramQuantile(registry, "scanraw.stage.read_nanos", 0.95,
                         "scanraw.stage.read_nanos.p95");
}

double TimeSeries::ReadSource(const Series& s) const {
  switch (s.kind) {
    case Kind::kCounter:
      return static_cast<double>(s.counter->value());
    case Kind::kGauge:
      return static_cast<double>(s.gauge->value());
    case Kind::kHistogramQuantile:
      return s.histogram->Quantile(s.quantile);
  }
  return 0.0;
}

void TimeSeries::SampleNow(int64_t now_nanos) {
  MutexLock lock(mu_);
  for (const auto& s : series_) {
    s->ring->Append(now_nanos, ReadSource(*s));
  }
}

const TimeSeriesRing* TimeSeries::Find(std::string_view series_name) const {
  MutexLock lock(mu_);
  for (const auto& s : series_) {
    if (s->name == series_name) return s->ring.get();
  }
  return nullptr;
}

std::vector<TimeSeries::RateRow> TimeSeries::Rates(
    int64_t window_nanos) const {
  // Collect stable ring pointers under the lock, compute outside it (each
  // ring takes its own lock in DeltaOver/Latest).
  struct Row {
    const Series* series;
  };
  std::vector<Row> rows;
  {
    MutexLock lock(mu_);
    rows.reserve(series_.size());
    for (const auto& s : series_) rows.push_back(Row{s.get()});
  }
  std::vector<RateRow> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    RateRow r;
    r.name = row.series->name;
    r.kind = row.series->kind;
    const TimeSeriesRing* ring = row.series->ring.get();
    r.points = ring->size();
    TimeSeriesRing::Point latest;
    if (ring->Latest(&latest)) r.latest = latest.value;
    if (r.kind == Kind::kCounter) {
      double delta = 0.0;
      int64_t elapsed = 0;
      if (ring->DeltaOver(window_nanos, &delta, &elapsed)) {
        r.rate_per_sec = delta * 1e9 / static_cast<double>(elapsed);
        r.rate_defined = true;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

bool TimeSeries::CacheHitRate(int64_t window_nanos, double* rate) const {
  const TimeSeriesRing* hits = Find("scanraw.cache.hits");
  const TimeSeriesRing* misses = Find("scanraw.cache.misses");
  if (hits == nullptr || misses == nullptr) return false;
  double dh = 0.0, dm = 0.0;
  int64_t eh = 0, em = 0;
  if (!hits->DeltaOver(window_nanos, &dh, &eh) ||
      !misses->DeltaOver(window_nanos, &dm, &em)) {
    return false;
  }
  const double lookups = dh + dm;
  if (lookups <= 0.0) return false;
  *rate = dh / lookups;
  return true;
}

size_t TimeSeries::num_series() const {
  MutexLock lock(mu_);
  return series_.size();
}

}  // namespace obs
}  // namespace scanraw
