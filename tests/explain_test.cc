// Unit tests for the query-scoped observability layer: SpanProfiler
// interval-union aggregation and critical-path selection, ExplainReport
// rendering, ProgressTracker rolling-window ETA arithmetic, and the
// bench_compare regression gate (both directions).

#include <gtest/gtest.h>

#include <string>

#include "common/clock.h"
#include "obs/explain.h"
#include "obs/progress.h"
#include "obs/span_profiler.h"
#include "tools/bench_comparison.h"

namespace scanraw {
namespace obs {
namespace {

// ---------------------------------------------------------------- profiler

TEST(SpanProfilerTest, BusySumsAndIntervalUnionDiffer) {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  // Two overlapping PARSE spans on different threads: busy is additive,
  // the wall footprint merges the overlap.
  profiler.RecordSpan(QueryStage::kParse, /*tid=*/1, /*start=*/0,
                      /*dur=*/100);
  profiler.RecordSpan(QueryStage::kParse, /*tid=*/2, /*start=*/50,
                      /*dur=*/100);
  clock.SetNanos(200);
  profiler.End();

  const auto report = profiler.Aggregate();
  const auto& parse =
      report.stages[static_cast<size_t>(QueryStage::kParse)];
  EXPECT_EQ(parse.spans, 2u);
  EXPECT_EQ(parse.busy_nanos, 200);
  EXPECT_EQ(parse.covered_nanos, 150);  // [0,100) U [50,150)
  EXPECT_EQ(parse.threads, 2u);
  EXPECT_EQ(report.wall_nanos, 200);
}

TEST(SpanProfilerTest, DisjointSpansUnionIsSum) {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  profiler.RecordSpan(QueryStage::kRead, 1, 0, 40);
  profiler.RecordSpan(QueryStage::kRead, 1, 100, 60);
  clock.SetNanos(200);
  profiler.End();
  const auto report = profiler.Aggregate();
  const auto& read = report.stages[static_cast<size_t>(QueryStage::kRead)];
  EXPECT_EQ(read.busy_nanos, 100);
  EXPECT_EQ(read.covered_nanos, 100);
  EXPECT_EQ(read.threads, 1u);
}

TEST(SpanProfilerTest, CriticalPathIsLargestCoveredBusyStage) {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  profiler.RecordSpan(QueryStage::kRead, 1, 0, 120);
  profiler.RecordSpan(QueryStage::kParse, 2, 0, 80);
  // A wait category with the largest coverage must NOT win the critical
  // path: it is blocked time, not busy time.
  profiler.RecordSpan(QueryStage::kDiskWait, 3, 0, 190);
  clock.SetNanos(200);
  profiler.End();

  const auto report = profiler.Aggregate();
  EXPECT_EQ(report.critical_stage, QueryStage::kRead);
  EXPECT_EQ(report.critical_covered_nanos, 120);
  EXPECT_NEAR(report.critical_fraction, 0.6, 1e-9);
  EXPECT_EQ(report.blocked_nanos_total, 190);
  EXPECT_EQ(report.busy_nanos_total, 200);
  EXPECT_EQ(report.distinct_threads, 3u);
}

TEST(SpanProfilerTest, ScopeRecordsOnCurrentThread) {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  {
    SpanProfiler::Scope scope(&profiler, QueryStage::kTokenize);
    clock.AdvanceNanos(70);
  }
  clock.SetNanos(100);
  profiler.End();
  const auto report = profiler.Aggregate();
  const auto& tok =
      report.stages[static_cast<size_t>(QueryStage::kTokenize)];
  EXPECT_EQ(tok.spans, 1u);
  EXPECT_EQ(tok.busy_nanos, 70);
}

TEST(SpanProfilerTest, NullProfilerScopeIsNoop) {
  SpanProfiler::Scope scope(nullptr, QueryStage::kParse);  // must not crash
}

TEST(SpanProfilerTest, AccountingIdentityHolds) {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  profiler.RecordSpan(QueryStage::kRead, 1, 0, 100);
  profiler.RecordSpan(QueryStage::kParse, 2, 20, 50);
  profiler.RecordSpan(QueryStage::kThrottleWait, 1, 100, 30);
  clock.SetNanos(200);
  profiler.End();

  const auto report = profiler.Aggregate();
  ExplainReport explain;
  explain.workers = 2;
  explain.FillFromProfile(report);
  // busy + blocked + idle == wall * threads_accounted (idle is residual).
  const double lhs = explain.busy_seconds_total +
                     explain.blocked_seconds_total +
                     explain.idle_seconds_total;
  const double rhs =
      explain.wall_seconds * static_cast<double>(explain.threads_accounted);
  EXPECT_NEAR(lhs, rhs, 1e-9);
  EXPECT_EQ(explain.threads_accounted, 2u);
}

TEST(SpanProfilerTest, OverflowCountsButBoundsMemory) {
  VirtualClock clock;
  SpanProfiler profiler(&clock, /*max_spans_per_stage=*/4);
  for (int i = 0; i < 10; ++i) {
    profiler.RecordSpan(QueryStage::kEngine, 1, i * 10, 5);
  }
  clock.SetNanos(200);
  profiler.End();
  const auto report = profiler.Aggregate();
  const auto& engine =
      report.stages[static_cast<size_t>(QueryStage::kEngine)];
  EXPECT_EQ(engine.spans, 10u);      // all spans counted
  EXPECT_EQ(engine.busy_nanos, 50);  // busy time keeps accumulating
  EXPECT_EQ(report.spans_dropped, 6u);
}

// ----------------------------------------------------------------- explain

ExplainReport MakeReport() {
  VirtualClock clock;
  SpanProfiler profiler(&clock);
  profiler.RecordSpan(QueryStage::kRead, 1, 0, 150'000'000);
  profiler.RecordSpan(QueryStage::kParse, 2, 0, 60'000'000);
  clock.SetNanos(200'000'000);
  profiler.End();

  ExplainReport report;
  report.table = "events";
  report.policy = "speculative-loading";
  report.workers = 4;
  report.FillFromProfile(profiler.Aggregate());
  report.chunks_from_cache = 3;
  report.chunks_from_raw = 1;
  report.chunks_skipped = 2;
  report.chunks_written = 1;
  report.bytes_written = 4096;
  report.speculation_paid_off = true;
  report.cache_hits = 3;
  report.cache_misses = 1;
  report.loaded_fraction_before = 0.25;
  report.loaded_fraction_after = 0.5;
  return report;
}

TEST(ExplainReportTest, TextNamesCriticalStageAndCounts) {
  const ExplainReport report = MakeReport();
  const std::string text = report.ToText();
  EXPECT_NE(text.find("critical path: READ"), std::string::npos);
  EXPECT_NE(text.find("table=events"), std::string::npos);
  EXPECT_NE(text.find("cache=3"), std::string::npos);
  EXPECT_NE(text.find("skipped=2"), std::string::npos);
  EXPECT_NE(text.find("paid-off=yes"), std::string::npos);
}

TEST(ExplainReportTest, JsonIsWellFormedAndCarriesChunkProvenance) {
  const ExplainReport report = MakeReport();
  const std::string json = report.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"critical_path\":{\"stage\":\"READ\""),
            std::string::npos);
  EXPECT_NE(json.find("\"from_cache\":3"), std::string::npos);
  EXPECT_NE(json.find("\"skipped\":2"), std::string::npos);
  EXPECT_NE(json.find("\"paid_off\":true"), std::string::npos);
  // It must round-trip through the bench-compare JSON cursor enough to be
  // recognized as an object (spot check: balanced braces).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(ExplainReportTest, HitRateHandlesZeroTotal) {
  ExplainReport report;
  EXPECT_EQ(report.HitRate(0, 0), 0.0);
  EXPECT_NEAR(report.HitRate(3, 1), 0.75, 1e-9);
}

// ---------------------------------------------------------------- progress

TEST(ProgressTrackerTest, FractionAndEtaFromRollingThroughput) {
  VirtualClock clock;
  ProgressTracker tracker(0, &clock);
  tracker.set_totals(/*bytes_total=*/1000, /*chunks_total=*/10);

  // 100 bytes per second for 4 seconds.
  for (int i = 0; i < 4; ++i) {
    clock.AdvanceSeconds(1.0);
    tracker.AddBytes(100);
    tracker.CountChunk();
    tracker.Snapshot();
  }
  const QueryProgress progress = tracker.Snapshot();
  EXPECT_EQ(progress.bytes_processed, 400u);
  EXPECT_NEAR(progress.fraction, 0.4, 1e-9);
  EXPECT_NEAR(progress.throughput_bps, 100.0, 1.0);
  // 600 bytes remain at ~100 B/s.
  EXPECT_NEAR(progress.eta_seconds, 6.0, 0.5);
  EXPECT_EQ(progress.chunks_delivered, 4u);
}

TEST(ProgressTrackerTest, UnknownTotalsMeanNoEta) {
  VirtualClock clock;
  ProgressTracker tracker(0, &clock);
  clock.AdvanceSeconds(1.0);
  tracker.AddBytes(500);
  const QueryProgress progress = tracker.Snapshot();
  EXPECT_EQ(progress.bytes_total, 0u);
  EXPECT_EQ(progress.fraction, 0.0);
  EXPECT_LT(progress.eta_seconds, 0.0);
  // The byte-count line form is used when the total is unknown.
  EXPECT_NE(progress.ToLine().find("MB"), std::string::npos);
}

TEST(ProgressTrackerTest, RollingWindowFollowsPhaseChange) {
  VirtualClock clock;
  ProgressTracker tracker(0, &clock);
  tracker.set_totals(100'000, 0);
  // Fast phase: 1000 B/s.
  for (int i = 0; i < 20; ++i) {
    clock.AdvanceSeconds(1.0);
    tracker.AddBytes(1000);
    tracker.Snapshot();
  }
  // Slow phase: 10 B/s. After enough samples the window must forget the
  // fast phase entirely.
  QueryProgress progress;
  for (int i = 0; i < 20; ++i) {
    clock.AdvanceSeconds(1.0);
    tracker.AddBytes(10);
    progress = tracker.Snapshot();
  }
  EXPECT_NEAR(progress.throughput_bps, 10.0, 1.0);
}

// ------------------------------------------------------------ bench gate

constexpr char kBaselineJson[] =
    "{\"bench\":\"fig5_pipeline\","
    "\"headers\":[\"columns\",\"READ (ms)\",\"PARSE (ms)\"],"
    "\"rows\":[[\"2\",\"10.0\",\"20.0\"],[\"4\",\"30.0\",\"40.0\"]],"
    "\"extra\":{\"nested\":[1,2,{\"deep\":\"x\"}]}}";

TEST(BenchCompareTest, IdenticalArtifactsDoNotRegress) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->name, "fig5_pipeline");
  ASSERT_EQ(baseline->rows.size(), 2u);

  const BenchComparison comparison =
      CompareBenchTables(*baseline, *baseline, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  EXPECT_EQ(comparison.deltas.size(), 4u);  // 2 rows x 2 numeric columns
  EXPECT_TRUE(comparison.unmatched.empty());
}

TEST(BenchCompareTest, SlowdownBeyondThresholdRegresses) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows[0][2] = "22.0";  // PARSE 20.0 -> 22.0 = +10%

  const BenchComparison at5 = CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_TRUE(at5.has_regression());
  int regressed = 0;
  for (const BenchDelta& d : at5.deltas) {
    if (d.regressed) {
      ++regressed;
      EXPECT_EQ(d.row_key, "2");
      EXPECT_EQ(d.column, "PARSE (ms)");
      EXPECT_NEAR(d.delta_pct, 10.0, 1e-6);
    }
  }
  EXPECT_EQ(regressed, 1);
  EXPECT_NE(at5.ToText().find("REGRESSION"), std::string::npos);

  // The same slowdown passes a looser gate.
  EXPECT_FALSE(CompareBenchTables(*baseline, candidate, 15.0)
                   .has_regression());
}

TEST(BenchCompareTest, ImprovementNeverRegresses) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows[0][1] = "1.0";  // READ 10.0 -> 1.0, a 90% improvement
  const BenchComparison comparison =
      CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  bool saw_improvement = false;
  for (const BenchDelta& d : comparison.deltas) {
    if (d.row_key == "2" && d.column == "READ (ms)") {
      saw_improvement = true;
      EXPECT_NEAR(d.delta_pct, -90.0, 1e-6);
    }
  }
  EXPECT_TRUE(saw_improvement);
}

TEST(BenchCompareTest, UnmatchedRowsAreReportedNotCompared) {
  auto baseline = ParseBenchJson(kBaselineJson);
  ASSERT_TRUE(baseline.ok());
  BenchTable candidate = *baseline;
  candidate.rows.pop_back();  // candidate lost row "4"
  candidate.rows.push_back({"8", "1.0", "2.0"});  // and gained row "8"

  const BenchComparison comparison =
      CompareBenchTables(*baseline, candidate, 5.0);
  EXPECT_FALSE(comparison.has_regression());
  ASSERT_EQ(comparison.unmatched.size(), 2u);
}

TEST(BenchCompareTest, NonNumericCellsAreIgnored) {
  const char* json =
      "{\"bench\":\"t\",\"headers\":[\"key\",\"note\",\"ms\"],"
      "\"rows\":[[\"a\",\"fast path\",\"5.0\"]]}";
  auto table = ParseBenchJson(json);
  ASSERT_TRUE(table.ok());
  const BenchComparison comparison = CompareBenchTables(*table, *table, 5.0);
  EXPECT_EQ(comparison.deltas.size(), 1u);  // only "ms" is numeric
}

TEST(BenchCompareTest, MalformedJsonIsRejected) {
  EXPECT_FALSE(ParseBenchJson("not json").ok());
  EXPECT_FALSE(ParseBenchJson("{\"bench\":\"x\"}").ok());  // no headers/rows
  EXPECT_FALSE(ParseBenchJson("{\"headers\":[],\"rows\":[}").ok());
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
