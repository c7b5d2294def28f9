#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace scanraw {
namespace obs {
namespace {

constexpr int64_t kSecond = 1'000'000'000;

TEST(TimeSeriesRingTest, KeepsMostRecentCapacityPoints) {
  TimeSeriesRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Append(i * kSecond, static_cast<double>(i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 10u);
  auto points = ring.Snapshot();
  ASSERT_EQ(points.size(), 4u);
  // Oldest-to-newest across the wraparound boundary.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].value, static_cast<double>(6 + i));
    EXPECT_EQ(points[i].ts_nanos, static_cast<int64_t>(6 + i) * kSecond);
  }
  TimeSeriesRing::Point latest;
  ASSERT_TRUE(ring.Latest(&latest));
  EXPECT_EQ(latest.value, 9.0);
}

TEST(TimeSeriesRingTest, LatestFalseWhenEmpty) {
  TimeSeriesRing ring(4);
  TimeSeriesRing::Point p;
  EXPECT_FALSE(ring.Latest(&p));
  EXPECT_EQ(ring.size(), 0u);
}

TEST(TimeSeriesRingTest, DeltaOverNeedsTwoPointsInWindow) {
  TimeSeriesRing ring(8);
  double delta = 0;
  int64_t elapsed = 0;
  EXPECT_FALSE(ring.DeltaOver(10 * kSecond, &delta, &elapsed));
  ring.Append(0, 100.0);
  EXPECT_FALSE(ring.DeltaOver(10 * kSecond, &delta, &elapsed));
  ring.Append(2 * kSecond, 300.0);
  ASSERT_TRUE(ring.DeltaOver(10 * kSecond, &delta, &elapsed));
  EXPECT_EQ(delta, 200.0);
  EXPECT_EQ(elapsed, 2 * kSecond);
}

TEST(TimeSeriesRingTest, DeltaOverRespectsWindowBound) {
  TimeSeriesRing ring(16);
  ring.Append(0, 0.0);
  ring.Append(5 * kSecond, 50.0);
  ring.Append(9 * kSecond, 90.0);
  ring.Append(10 * kSecond, 100.0);
  double delta = 0;
  int64_t elapsed = 0;
  // 2 s window from the newest point (t=10): only t=9 and t=10 qualify.
  ASSERT_TRUE(ring.DeltaOver(2 * kSecond, &delta, &elapsed));
  EXPECT_EQ(delta, 10.0);
  EXPECT_EQ(elapsed, kSecond);
  // A huge window reaches all the way back.
  ASSERT_TRUE(ring.DeltaOver(100 * kSecond, &delta, &elapsed));
  EXPECT_EQ(delta, 100.0);
  EXPECT_EQ(elapsed, 10 * kSecond);
}

TEST(TimeSeriesRingTest, ZeroElapsedNeverDividesByZero) {
  TimeSeriesRing ring(4);
  ring.Append(5 * kSecond, 1.0);
  ring.Append(5 * kSecond, 9.0);  // identical timestamps
  double delta = 0;
  int64_t elapsed = 0;
  EXPECT_FALSE(ring.DeltaOver(10 * kSecond, &delta, &elapsed));
  EXPECT_EQ(ring.RatePerSecond(10 * kSecond), 0.0);
}

TEST(TimeSeriesRingTest, RatePerSecondMath) {
  TimeSeriesRing ring(8);
  ring.Append(0, 0.0);
  ring.Append(4 * kSecond, 1000.0);
  EXPECT_DOUBLE_EQ(ring.RatePerSecond(10 * kSecond), 250.0);
}

TEST(TimeSeriesTest, TrackCounterSamplesAndRates) {
  MetricsRegistry registry;
  Counter* rows = registry.GetCounter("rows");
  TimeSeries ts;
  ts.TrackCounter(&registry, "rows");
  EXPECT_EQ(ts.num_series(), 1u);
  // Idempotent per series name.
  ts.TrackCounter(&registry, "rows");
  EXPECT_EQ(ts.num_series(), 1u);

  ts.SampleNow(0);
  rows->Add(500);
  ts.SampleNow(kSecond);
  rows->Add(500);
  ts.SampleNow(2 * kSecond);

  const TimeSeriesRing* ring = ts.Find("rows");
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->size(), 3u);
  EXPECT_DOUBLE_EQ(ring->RatePerSecond(10 * kSecond), 500.0);

  auto rates = ts.Rates(10 * kSecond);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates[0].name, "rows");
  EXPECT_EQ(rates[0].kind, TimeSeries::Kind::kCounter);
  EXPECT_TRUE(rates[0].rate_defined);
  EXPECT_DOUBLE_EQ(rates[0].rate_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(rates[0].latest, 1000.0);
}

TEST(TimeSeriesTest, GaugeAndQuantileAreLevels) {
  MetricsRegistry registry;
  registry.GetGauge("depth")->Set(7);
  Histogram* lat = registry.GetHistogram("lat");
  for (int i = 0; i < 100; ++i) lat->Record(1000);
  TimeSeries ts;
  ts.TrackGauge(&registry, "depth");
  ts.TrackHistogramQuantile(&registry, "lat", 0.95, "lat.p95");
  ts.SampleNow(0);
  ts.SampleNow(kSecond);
  auto rates = ts.Rates(10 * kSecond);
  ASSERT_EQ(rates.size(), 2u);
  for (const auto& row : rates) {
    EXPECT_FALSE(row.rate_defined) << row.name;
    if (row.name == "depth") {
      EXPECT_EQ(row.kind, TimeSeries::Kind::kGauge);
      EXPECT_DOUBLE_EQ(row.latest, 7.0);
    } else {
      EXPECT_EQ(row.name, "lat.p95");
      EXPECT_EQ(row.kind, TimeSeries::Kind::kHistogramQuantile);
      EXPECT_GT(row.latest, 0.0);
    }
  }
}

TEST(TimeSeriesTest, IntervalDefaultsToOneSecondAndClampsToOff) {
  TimeSeries ts;
  EXPECT_EQ(ts.interval_nanos(), kSecond);
  ts.set_interval_nanos(0);
  EXPECT_EQ(ts.interval_nanos(), 0);
  // Negative intervals clamp to off rather than going backwards.
  ts.set_interval_nanos(-5);
  EXPECT_EQ(ts.interval_nanos(), 0);
}

TEST(TimeSeriesTest, TrackPipelineDefaultsRegistersStandardSet) {
  MetricsRegistry registry;
  TimeSeries ts;
  ts.TrackPipelineDefaults(&registry);
  EXPECT_NE(ts.Find("scanraw.rows_delivered"), nullptr);
  EXPECT_NE(ts.Find("scanraw.bytes_converted"), nullptr);
  EXPECT_NE(ts.Find("scanraw.cache.hits"), nullptr);
  EXPECT_NE(ts.Find("scanraw.cache.misses"), nullptr);
  EXPECT_NE(ts.Find("scanraw.chunks_written"), nullptr);
  EXPECT_NE(ts.Find("scanraw.stage.read_nanos.p95"), nullptr);
  EXPECT_EQ(ts.Find("not.tracked"), nullptr);
  // Re-registration (a second operator binding the same sink) is a no-op.
  size_t n = ts.num_series();
  ts.TrackPipelineDefaults(&registry);
  EXPECT_EQ(ts.num_series(), n);
}

TEST(TimeSeriesTest, CacheHitRateOverWindow) {
  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("scanraw.cache.hits");
  Counter* misses = registry.GetCounter("scanraw.cache.misses");
  TimeSeries ts;
  double rate = -1.0;
  // Missing series: undefined.
  EXPECT_FALSE(ts.CacheHitRate(10 * kSecond, &rate));
  ts.TrackPipelineDefaults(&registry);
  ts.SampleNow(0);
  // No lookups in the window: undefined, not 0/0.
  ts.SampleNow(kSecond);
  EXPECT_FALSE(ts.CacheHitRate(10 * kSecond, &rate));
  hits->Add(30);
  misses->Add(10);
  ts.SampleNow(2 * kSecond);
  ASSERT_TRUE(ts.CacheHitRate(10 * kSecond, &rate));
  EXPECT_DOUBLE_EQ(rate, 0.75);
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
