// Tests for the obs/ building blocks in isolation: counters, gauges,
// log-bucketed histograms (quantiles, reset, JSON), the resource log, the
// progress tracker, and per-thread ids.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/resource_sampler.h"
#include "obs/telemetry.h"

namespace scanraw {
namespace obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, DeltaUpdatesCompose) {
  Gauge g;
  g.Add(5);
  g.Add(-2);
  EXPECT_EQ(g.value(), 3);
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (uint64_t v : {10, 20, 30, 40}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p50 = h.Quantile(0.5);
  const double p95 = h.Quantile(0.95);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log-bucket interpolation is within a 2x bucket of the true rank.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);
  EXPECT_LE(p99, 1000.0);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValueQuantiles) {
  Histogram h;
  h.Record(777);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 777.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 777.0);
}

TEST(HistogramTest, ZeroValueIsCounted) {
  Histogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, Reset) {
  Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExtremeValuesSurviveBucketing) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<uint64_t>::max());
  // Quantiles stay within the observed range even at the bucket extremes,
  // and remain monotone across the probe points.
  double prev = 0.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 0.0) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(std::numeric_limits<uint64_t>::max()))
        << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, QuantilesMonotoneOnSkewedData) {
  Histogram h;
  // Heavily skewed: many tiny values, one huge outlier.
  for (int i = 0; i < 1000; ++i) h.Record(1);
  h.Record(std::numeric_limits<uint64_t>::max());
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double v = h.Quantile(i / 100.0);
    EXPECT_GE(v, prev) << "q=" << i / 100.0;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);
}

TEST(HistogramTest, ConcurrentRecording) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), static_cast<uint64_t>(kPerThread));
}

TEST(MetricsRegistryTest, StablePointersByName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y.count"), a);
  // Same name in different metric families is distinct storage.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x.count")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(7);
  registry.GetGauge("g")->Set(-3);
  registry.GetHistogram("h")->Record(99);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("c")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("g")->value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
}

TEST(MetricsRegistryTest, JsonExportContainsAllFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("events.total")->Add(3);
  registry.GetGauge("queue.depth")->Set(2);
  registry.GetHistogram("latency")->Record(1000);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events.total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

TEST(JsonEscapeTest, ControlCharactersUseUnicodeEscapes) {
  // Control characters without shorthand escapes use \u00XX.
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape("a\tb\rc"), "a\\tb\\rc");
  // The empty string round-trips.
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(ResourceLogTest, BoundedRing) {
  ResourceLog log(3);
  for (int i = 0; i < 5; ++i) {
    ResourceSample s;
    s.ts_nanos = i;
    log.Append(std::move(s));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_appended(), 5u);
  auto samples = log.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().ts_nanos, 2);
  EXPECT_EQ(samples.back().ts_nanos, 4);
}

TEST(ResourceLogTest, JsonIsArrayWithAdvice) {
  ResourceLog log(8);
  ResourceSample s;
  s.ts_nanos = 1000;
  s.advice = "io-bound";
  log.Append(std::move(s));
  const std::string json = log.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"io-bound\""), std::string::npos);
}

TEST(TelemetryTest, CombinedJsonExport) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("a")->Add(1);
  ResourceSample s;
  s.advice = "balanced";
  telemetry.resources().Append(std::move(s));
  const std::string json = telemetry.ToJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"resource_samples\""), std::string::npos);
}

TEST(HistogramTest, EmptyQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.50), 0.0);
  EXPECT_EQ(h.Quantile(0.95), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleEveryQuantile) {
  Histogram h;
  h.Record(4096);  // exactly on a power-of-two bucket boundary
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 4096.0) << "q=" << q;
  }
}

TEST(HistogramTest, BucketBoundaryValuesStayInRange) {
  // Powers of two are the log-bucket edges; quantiles must interpolate
  // within the observed [min, max] and stay monotone across them.
  Histogram h;
  for (int p = 0; p <= 20; ++p) h.Record(1ull << p);
  double prev = 0.0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(1ull << 20)) << "q=" << q;
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // p50 of 21 power-of-two samples lands near 2^10, within one bucket.
  EXPECT_GE(h.Quantile(0.5), 512.0);
  EXPECT_LE(h.Quantile(0.5), 4096.0);
}

TEST(HistogramTest, TwoBucketBoundaryNeighbors) {
  Histogram h;
  h.Record(1024);  // last value of one bucket's range vs first of the next
  h.Record(1025);
  EXPECT_GE(h.Quantile(0.0), 1024.0);
  EXPECT_LE(h.Quantile(1.0), 1025.0);
  EXPECT_LE(h.Quantile(0.5), 1025.0);
}

TEST(ProgressTrackerTest, MarkCompletePinsTo100Percent) {
  VirtualClock clock;
  ProgressTracker tracker(/*bytes_total=*/1000, &clock);
  tracker.AddBytes(700);  // rounding / estimate error: bytes short of total
  tracker.CountChunk();
  clock.AdvanceNanos(1000000);
  QueryProgress before = tracker.Snapshot();
  EXPECT_FALSE(before.complete);
  EXPECT_LT(before.fraction, 1.0);

  tracker.MarkComplete();
  QueryProgress after = tracker.Snapshot();
  EXPECT_TRUE(after.complete);
  EXPECT_DOUBLE_EQ(after.fraction, 1.0);
  EXPECT_DOUBLE_EQ(after.eta_seconds, 0.0);
}

TEST(ProgressTrackerTest, MarkCompleteCoversUnknownTotals) {
  // Discovery scans never learn a byte total; completion must still pin the
  // final report to 100%.
  VirtualClock clock;
  ProgressTracker tracker(/*bytes_total=*/0, &clock);
  tracker.AddBytes(123);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction, 0.0);
  tracker.MarkComplete();
  QueryProgress p = tracker.Snapshot();
  EXPECT_TRUE(p.complete);
  EXPECT_DOUBLE_EQ(p.fraction, 1.0);
  EXPECT_EQ(p.ToLine().rfind("100.0%", 0), 0u) << p.ToLine();
}

TEST(CurrentThreadIdTest, DistinctPerThreadStableWithin) {
  const uint32_t main_id = CurrentThreadId();
  EXPECT_EQ(CurrentThreadId(), main_id);
  uint32_t other_id = main_id;
  std::thread t([&other_id] { other_id = CurrentThreadId(); });
  t.join();
  EXPECT_NE(other_id, main_id);
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
