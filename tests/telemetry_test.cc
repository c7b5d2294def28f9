// Tests for the telemetry wiring through the SCANRAW pipeline: the §3.3
// resource-advice classification, reconciliation of the PipelineProfile
// counters with catalog state after a multi-query speculative run, and the
// registry / flight-recorder trace / sampler integration through the
// ScanRawManager.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/csv_generator.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  std::string test = testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
  for (char& c : test) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "/telem_" + test + "_" + name;
}

// ----------------------------------------------- advice classification ----

ResourceSnapshot BalancedSnapshot() {
  ResourceSnapshot s;
  s.text_buffer_size = 2;
  s.text_buffer_capacity = 8;
  s.position_buffer_size = 1;
  s.position_buffer_capacity = 8;
  s.output_buffer_size = 3;
  s.output_buffer_capacity = 8;
  s.busy_workers = 2;
  s.num_workers = 4;
  return s;
}

TEST(AdviceTest, BalancedPipeline) {
  EXPECT_EQ(BalancedSnapshot().ComputeAdvice(),
            ResourceSnapshot::Advice::kBalanced);
}

TEST(AdviceTest, NeedMoreCpuWhenSaturatedAndTextFull) {
  // "All worker threads are busy and the text chunk buffer is full" (§3.3).
  ResourceSnapshot s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = s.text_buffer_capacity;
  EXPECT_EQ(s.ComputeAdvice(), ResourceSnapshot::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, BusyWorkersAloneAreNotACpuRequest) {
  // Saturated workers with a draining text buffer: conversion keeps up
  // with the disk, no extra CPU needed.
  ResourceSnapshot s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = 1;
  EXPECT_EQ(s.ComputeAdvice(), ResourceSnapshot::Advice::kBalanced);
}

TEST(AdviceTest, IoBoundWhenWorkersStarved) {
  ResourceSnapshot s = BalancedSnapshot();
  s.busy_workers = 0;
  s.text_buffer_size = 0;
  s.position_buffer_size = 0;
  s.output_buffer_size = 0;
  EXPECT_EQ(s.ComputeAdvice(), ResourceSnapshot::Advice::kIoBound);
}

TEST(AdviceTest, EngineBoundWhenOutputFull) {
  ResourceSnapshot s = BalancedSnapshot();
  s.output_buffer_size = s.output_buffer_capacity;
  EXPECT_EQ(s.ComputeAdvice(), ResourceSnapshot::Advice::kEngineBound);
}

TEST(AdviceTest, CpuRequestWinsOverEngineBound) {
  // Everything full at once: the CPU request is checked first — it is the
  // state the resource manager can actually act on mid-query.
  ResourceSnapshot s = BalancedSnapshot();
  s.busy_workers = s.num_workers;
  s.text_buffer_size = s.text_buffer_capacity;
  s.output_buffer_size = s.output_buffer_capacity;
  EXPECT_EQ(s.ComputeAdvice(), ResourceSnapshot::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, SequentialPipelineNeverAsksForCpu) {
  // num_workers == 0 (fully sequential conversion) must not classify as a
  // CPU request even with a full text buffer.
  ResourceSnapshot s = BalancedSnapshot();
  s.num_workers = 0;
  s.busy_workers = 0;
  s.text_buffer_size = s.text_buffer_capacity;
  EXPECT_NE(s.ComputeAdvice(), ResourceSnapshot::Advice::kNeedMoreCpu);
}

TEST(AdviceTest, NamesAreStable) {
  EXPECT_EQ(AdviceName(ResourceSnapshot::Advice::kNeedMoreCpu),
            "need-more-cpu");
  EXPECT_EQ(AdviceName(ResourceSnapshot::Advice::kIoBound), "io-bound");
  EXPECT_EQ(AdviceName(ResourceSnapshot::Advice::kEngineBound),
            "engine-bound");
  EXPECT_EQ(AdviceName(ResourceSnapshot::Advice::kBalanced), "balanced");
}

// ----------------------------------------- pipeline integration fixture ---

struct Fixture {
  std::string csv_path;
  CsvFileInfo info;
  Schema schema;
  std::unique_ptr<ScanRawManager> manager;

  static Fixture Make(const std::string& name, const ScanRawOptions& options,
                      uint64_t rows = 4000, size_t cols = 8) {
    Fixture f;
    f.csv_path = TempPath(name + ".csv");
    CsvSpec spec;
    spec.num_rows = rows;
    spec.num_columns = cols;
    spec.seed = 7;
    auto info = GenerateCsvFile(f.csv_path, spec);
    EXPECT_TRUE(info.ok());
    f.info = *info;
    f.schema = CsvSchema(spec);
    ScanRawManager::Config config;
    config.db_path = TempPath(name + ".db");
    auto manager = ScanRawManager::Create(config);
    EXPECT_TRUE(manager.ok());
    f.manager = std::move(*manager);
    EXPECT_TRUE(
        f.manager->RegisterRawFile("t", f.csv_path, f.schema, options).ok());
    return f;
  }
};

ScanRawOptions BaseOptions() {
  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 2;
  options.chunk_rows = 500;  // 8 chunks at 4000 rows
  options.cache_capacity_chunks = 4;
  return options;
}

// Profile counters must reconcile with the catalog after a two-query
// speculative run: every fully loaded chunk was written exactly once, and
// the chunk-source counters account for every chunk of both passes.
TEST(ProfileReconcileTest, CountersMatchCatalogAfterTwoQueries) {
  auto f = Fixture::Make("reconcile", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  auto second = op->ExecuteQuery(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_sum, f.info.total_sum);
  op->WaitForWrites();
  ASSERT_TRUE(op->write_status().ok());

  const PipelineProfile& profile = op->profile();
  auto meta = f.manager->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());

  std::vector<size_t> all_columns;
  for (size_t c = 0; c < 8; ++c) all_columns.push_back(c);
  uint64_t loaded_chunks = 0;
  for (const ChunkMetadata& cm : meta->chunks) {
    if (cm.HasColumnsLoaded(all_columns)) ++loaded_chunks;
  }
  // Exactly-once loading: one write per loaded chunk, no rewrites.
  EXPECT_EQ(profile.chunks_written.load(), loaded_chunks);

  // Both passes delivered all 8 chunks, each attributed to exactly one
  // source.
  EXPECT_EQ(profile.chunks_from_raw.load() + profile.chunks_from_db.load() +
                profile.chunks_from_cache.load(),
            16u);
  // The first pass had no binary data anywhere: 8 raw conversions.
  EXPECT_GE(profile.chunks_from_raw.load(), 8u);

  // The registry mirrors (bound via the manager's telemetry) agree with the
  // atomics they shadow.
  obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_written")->value(),
            profile.chunks_written.load());
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_raw")->value(),
            profile.chunks_from_raw.load());
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_cache")->value(),
            profile.chunks_from_cache.load());
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_db")->value(),
            profile.chunks_from_db.load());
}

TEST(ProfileReconcileTest, ResetClearsRegistryMirrors) {
  auto f = Fixture::Make("reset", BaseOptions());
  QuerySpec q;
  q.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  obs::MetricsRegistry& registry = f.manager->telemetry()->metrics();
  EXPECT_GT(registry.GetCounter("scanraw.chunks_from_raw")->value(), 0u);
  EXPECT_GT(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 0u);

  // Quiesced (no QueryRun live, writes drained): Reset may run.
  op->profile().Reset();
  EXPECT_EQ(op->profile().chunks_from_raw.load(), 0u);
  EXPECT_EQ(registry.GetCounter("scanraw.chunks_from_raw")->value(), 0u);
  EXPECT_EQ(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 0u);
  EXPECT_EQ(registry.GetHistogram("scanraw.stage.parse_nanos")->count(), 0u);
}

// -------------------------------------------------- manager integration ---

TEST(ManagerTelemetryTest, StageHistogramsAndCacheCountersPopulate) {
  ScanRawOptions options = BaseOptions();
  options.resource_sample_interval_ms = 1;
  auto f = Fixture::Make("stages", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  obs::Telemetry* telemetry = f.manager->telemetry();
  obs::MetricsRegistry& registry = telemetry->metrics();

  // Per-stage latency histograms recorded one entry per chunk-stage.
  EXPECT_GE(registry.GetHistogram("scanraw.stage.read_nanos")->count(), 8u);
  EXPECT_GE(registry.GetHistogram("scanraw.stage.tokenize_nanos")->count(),
            8u);
  EXPECT_GE(registry.GetHistogram("scanraw.stage.parse_nanos")->count(), 8u);
  EXPECT_GT(registry.GetHistogram("scanraw.stage.write_nanos")->count(), 0u);

  // Cache counters mirror the ChunkCache (second query hit the cache).
  EXPECT_GT(registry.GetCounter("scanraw.cache.hits")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("scanraw.cache.hits")->value(),
            op->cache().hits());
  EXPECT_EQ(registry.GetCounter("scanraw.cache.misses")->value(),
            op->cache().misses());
  EXPECT_EQ(registry.GetCounter("scanraw.cache.evictions")->value(),
            op->cache().evictions());

  // The pool submitted tokenize + parse tasks.
  EXPECT_GE(registry.GetCounter("scanraw.pool.tasks_submitted")->value(),
            16u);
  // Gauges are deltas and the pipeline has drained.
  EXPECT_EQ(registry.GetGauge("scanraw.pool.busy_workers")->value(), 0);
  EXPECT_EQ(registry.GetGauge("scanraw.pool.queue_depth")->value(), 0);

  // Storage + arbiter wiring recorded the speculative writes.
  EXPECT_GT(registry.GetCounter("storage.segments_written")->value(), 0u);
  EXPECT_GT(registry.GetCounter("storage.bytes_written")->value(), 0u);
  EXPECT_GT(registry.GetHistogram("disk.reader_wait_nanos")->count(), 0u);

  // The sampler left a resource-advice series with start + end samples.
  EXPECT_GE(telemetry->resources().size(), 2u);

  // Advice occurrences were tallied: the counters sum to the sample count
  // this operator probed (every probe lands in exactly one state).
  const uint64_t advice_total =
      registry.GetCounter("scanraw.advice.need_more_cpu")->value() +
      registry.GetCounter("scanraw.advice.io_bound")->value() +
      registry.GetCounter("scanraw.advice.engine_bound")->value() +
      registry.GetCounter("scanraw.advice.balanced")->value();
  EXPECT_EQ(advice_total, telemetry->resources().total_appended());
}

// Counts the flight recorder's exported events by name and chunk arg (-1
// for events without one). The export puts one event per line.
std::map<std::pair<std::string, int64_t>, uint64_t> CountTraceEvents() {
  const std::string json =
      obs::FlightRecorder::Global()->ToChromeTraceJson("telemetry_test");
  EXPECT_EQ(json.front(), '[');
  std::map<std::pair<std::string, int64_t>, uint64_t> counts;
  size_t begin = 0;
  while (begin < json.size()) {
    size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(begin, end - begin);
    begin = end + 1;
    const size_t name = line.find("{\"name\":\"");
    if (name == std::string::npos ||
        line.find("\"ph\":\"M\"") != std::string::npos) {
      continue;
    }
    const size_t name_begin = name + 9;
    const std::string event =
        line.substr(name_begin, line.find('"', name_begin) - name_begin);
    const size_t chunk = line.find("\"chunk\":");
    ++counts[{event, chunk == std::string::npos
                         ? -1
                         : std::stoll(line.substr(chunk + 8))}];
  }
  return counts;
}

uint64_t CountNamed(
    const std::map<std::pair<std::string, int64_t>, uint64_t>& counts,
    const std::string& name) {
  uint64_t n = 0;
  for (const auto& [key, count] : counts) {
    if (key.first == name) n += count;
  }
  return n;
}

TEST(ManagerTelemetryTest, TracerRecordsFullChunkLifecycle) {
  obs::FlightRecorder::Global()->ResetForTest();
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  auto f = Fixture::Make("trace", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  // Every raw chunk of the discovery scan left exactly one READ, TOKENIZE
  // and PARSE span; every written chunk one WRITE span.
  const auto counts = CountTraceEvents();
  for (int64_t chunk = 0; chunk < 8; ++chunk) {
    for (const char* stage : {"read", "tokenize", "parse"}) {
      auto it = counts.find({stage, chunk});
      EXPECT_EQ(it == counts.end() ? 0u : it->second, 1u)
          << stage << " of chunk " << chunk;
    }
  }
  EXPECT_EQ(CountNamed(counts, "read"), 8u);
  EXPECT_EQ(CountNamed(counts, "tokenize"), 8u);
  EXPECT_EQ(CountNamed(counts, "parse"), 8u);
  EXPECT_EQ(CountNamed(counts, "read-db"), 0u);
  EXPECT_EQ(op->profile().chunks_written.load(), 8u);
  EXPECT_EQ(CountNamed(counts, "write"), op->profile().chunks_written.load());
}

TEST(ManagerTelemetryTest, EachSpeculativeTriggerLeavesOneFlightEvent) {
  obs::FlightRecorder::Global()->ResetForTest();
  ScanRawOptions options = BaseOptions();
  // Sequential, one slot per buffer: READ blocks after every chunk (the §4
  // trigger point), and from the third chunk on a parsed, unloaded chunk
  // waits in the cache to be written.
  options.num_workers = 0;
  options.text_buffer_capacity = 1;
  options.position_buffer_capacity = 1;
  auto f = Fixture::Make("spec_trigger", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  const auto counts = CountTraceEvents();
  const PipelineProfile& profile = op->profile();
  EXPECT_GT(profile.speculative_triggers.load(), 0u);
  EXPECT_EQ(CountNamed(counts, "spec-trigger"),
            profile.speculative_triggers.load());
  EXPECT_EQ(CountNamed(counts, "read-blocked"),
            profile.read_blocked_events.load());
  EXPECT_EQ(CountNamed(counts, "write"), profile.chunks_written.load());
}

TEST(ManagerTelemetryTest, ExplicitSinkOverridesManagerSink) {
  obs::Telemetry own_sink;
  ScanRawOptions options = BaseOptions();
  options.telemetry = &own_sink;
  auto f = Fixture::Make("own_sink", options);
  QuerySpec q;
  q.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  EXPECT_EQ(op->telemetry(), &own_sink);
  EXPECT_GT(own_sink.metrics().GetCounter("scanraw.chunks_from_raw")->value(),
            0u);
  // The manager's sink saw no operator-side chunk traffic.
  EXPECT_EQ(f.manager->telemetry()
                ->metrics()
                .GetCounter("scanraw.chunks_from_raw")
                ->value(),
            0u);
}

// --------------------------------------------------- EXPLAIN ANALYZE e2e ---

TEST(ExplainE2eTest, ColdThenCachedQueriesAttributeProvenance) {
  auto f = Fixture::Make("explain_e2e", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  obs::ExplainReport cold;
  auto first = f.manager->Query("t", q, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_sum, f.info.total_sum);

  // Cold query: all 8 chunks converted from raw, none cached yet.
  EXPECT_EQ(cold.table, "t");
  EXPECT_EQ(cold.policy, "speculative-loading");
  EXPECT_EQ(cold.chunks_from_raw, 8u);
  EXPECT_EQ(cold.chunks_from_cache, 0u);
  EXPECT_GT(cold.wall_seconds, 0.0);
  EXPECT_FALSE(cold.critical_stage.empty());
  EXPECT_FALSE(cold.stages.empty());
  // Accounting identity: busy + blocked + idle == wall * threads.
  EXPECT_NEAR(cold.busy_seconds_total + cold.blocked_seconds_total +
                  cold.idle_seconds_total,
              cold.wall_seconds *
                  static_cast<double>(cold.threads_accounted),
              0.1 * cold.wall_seconds *
                      static_cast<double>(cold.threads_accounted) +
                  1e-6);

  obs::ExplainReport warm;
  auto second = f.manager->Query("t", q, &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_sum, f.info.total_sum);

  // Warm query: the cache (capacity 4) serves part of the file, and the
  // per-query cache-hit delta reflects only this query.
  EXPECT_GT(warm.chunks_from_cache, 0u);
  EXPECT_EQ(warm.cache_hits, warm.chunks_from_cache);
  EXPECT_GT(warm.HitRate(warm.cache_hits, warm.cache_misses), 0.0);
  EXPECT_EQ(warm.chunks_from_cache + warm.chunks_from_db +
                warm.chunks_from_raw,
            8u);
  // The report renders in both formats.
  EXPECT_NE(warm.ToText().find("critical path:"), std::string::npos);
  EXPECT_NE(warm.ToJson().find("\"critical_path\""), std::string::npos);
}

TEST(ExplainE2eTest, SpeculativePayoffIsCreditedToAQuery) {
  auto f = Fixture::Make("explain_payoff", BaseOptions());
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Run queries until the file is fully loaded; with speculative loading
  // + safeguard each pass makes progress. Some query's report must show
  // written chunks and a loaded-fraction increase.
  bool saw_payoff = false;
  for (int pass = 0; pass < 10 && !f.manager->IsRetired("t"); ++pass) {
    obs::ExplainReport report;
    ASSERT_TRUE(f.manager->Query("t", q, &report).ok());
    ScanRaw* op = f.manager->GetOperator("t");
    if (op != nullptr) op->WaitForWrites();
    if (report.speculation_paid_off) {
      saw_payoff = true;
      EXPECT_GT(report.chunks_written, 0u);
      EXPECT_GT(report.loaded_fraction_after,
                report.loaded_fraction_before);
    }
  }
  EXPECT_TRUE(saw_payoff);
}

TEST(ExplainE2eTest, RetiredTableReportsHeapScanPath) {
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  auto f = Fixture::Make("explain_retired", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Full load: first query loads everything; the table then retires.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ASSERT_TRUE(f.manager->Query("t", q).ok());  // triggers retirement
  ASSERT_TRUE(f.manager->IsRetired("t"));

  obs::ExplainReport report;
  auto result = f.manager->Query("t", q, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, f.info.total_sum);
  EXPECT_EQ(report.policy, "heap-scan (retired)");
  EXPECT_EQ(report.chunks_from_db, 8u);
  EXPECT_EQ(report.chunks_from_raw, 0u);
  EXPECT_EQ(report.loaded_fraction_before, 1.0);
  bool saw_heap_scan = false;
  for (const obs::ExplainStage& stage : report.stages) {
    if (stage.name == "HEAP_SCAN") saw_heap_scan = true;
  }
  EXPECT_TRUE(saw_heap_scan);
}

TEST(ExplainE2eTest, SkippedChunksSurfaceInReport) {
  // Min/max statistics are computed when a chunk is written (§3.3), so a
  // full load gives every chunk stats; the pruned re-query can then skip
  // all of them.
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  auto f = Fixture::Make("explain_skip", options);
  // Sum every column so the full load materializes complete chunks (a
  // narrower query would load only the touched columns and the table
  // would never reach FullyLoaded).
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();

  // A range no generated value can satisfy: every chunk is pruned by its
  // min/max statistics. Querying the operator directly keeps this on the
  // ScanRaw path (the manager would retire the fully loaded table).
  QuerySpec pruned = q;
  RangePredicate range;
  range.column = 0;
  range.lo = std::numeric_limits<int64_t>::max() - 1;
  range.hi = std::numeric_limits<int64_t>::max();
  pruned.predicate.range = range;
  obs::ExplainReport report;
  auto result = op->ExecuteQuery(pruned, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_matched, 0u);
  EXPECT_EQ(report.chunks_skipped, 8u);
  EXPECT_EQ(report.chunks_from_cache + report.chunks_from_db +
                report.chunks_from_raw,
            0u);

  // The same pruning on the retired heap-scan path.
  ASSERT_TRUE(f.manager->Query("t", q).ok());  // triggers retirement
  ASSERT_TRUE(f.manager->IsRetired("t"));
  obs::ExplainReport retired;
  auto heap_result = f.manager->Query("t", pruned, &retired);
  ASSERT_TRUE(heap_result.ok()) << heap_result.status().ToString();
  EXPECT_EQ(heap_result->rows_matched, 0u);
  EXPECT_EQ(retired.chunks_skipped, 8u);
  EXPECT_EQ(retired.chunks_from_db, 0u);
}

// The discovery scan's final READ step only probes for EOF. It reads no
// chunk, so it must not count as one: the READ stopwatch, the READ latency
// histogram and the EXPLAIN READ spans all count exactly the 8 chunks.
TEST(ExplainE2eTest, DiscoveryEofProbeIsNotAChunkRead) {
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  auto f = Fixture::Make("eof_probe", options);
  QuerySpec q;
  q.sum_columns = {0};

  obs::ExplainReport report;
  auto result = f.manager->Query("t", q, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_scanned, 4000u);
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);

  EXPECT_EQ(op->profile().read_time.intervals(), 8);
  EXPECT_EQ(f.manager->telemetry()
                ->metrics()
                .GetHistogram("scanraw.stage.read_nanos")
                ->count(),
            8u);
  uint64_t read_spans = 0;
  for (const obs::ExplainStage& stage : report.stages) {
    if (stage.name == "READ") read_spans = stage.spans;
  }
  EXPECT_EQ(read_spans, 8u);
}

// EXPLAIN is query-scoped: two threads running EXPLAIN queries on one
// operator at once must each see exactly their own query's chunks, never
// the other thread's.
TEST(ExplainE2eTest, ConcurrentExplainReportsOwnChunksOnly) {
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 8;
  auto f = Fixture::Make("explain_concurrent", options);
  QuerySpec q;
  q.sum_columns = {0, 1};
  ASSERT_TRUE(f.manager->Query("t", q).ok());  // warms the cache
  ScanRaw* op = f.manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  ASSERT_EQ(op->cache().size(), 8u);

  constexpr int kQueriesPerThread = 200;
  std::atomic<int> failed{0};
  std::atomic<int> wrong{0};
  auto worker = [&] {
    for (int i = 0; i < kQueriesPerThread; ++i) {
      obs::ExplainReport report;
      if (!op->ExecuteQuery(q, &report).ok()) {
        failed.fetch_add(1);
        continue;
      }
      if (report.chunks_from_cache + report.chunks_from_db +
                  report.chunks_from_raw + report.chunks_skipped !=
              8u ||
          report.bytes_tokenized != 0u) {
        wrong.fetch_add(1);
      }
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0) << "of " << 2 * kQueriesPerThread << " reports";
}

TEST(ExplainE2eTest, ProgressCallbackFiresWithTotals) {
  ScanRawOptions options = BaseOptions();
  std::mutex mu;
  std::vector<obs::QueryProgress> reports;
  options.progress_callback = [&](const obs::QueryProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    reports.push_back(p);
  };
  options.progress_interval_ms = 1;
  auto f = Fixture::Make("explain_progress", options);
  QuerySpec q;
  for (size_t c = 0; c < 8; ++c) q.sum_columns.push_back(c);

  // Discovery pass: totals unknown, but first + final reports still fire.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(reports.size(), 2u);
    EXPECT_EQ(reports.back().chunks_delivered, 8u);
    reports.clear();
  }

  // Second pass: the layout is known, so the final report carries totals
  // and a completed fraction.
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(reports.size(), 2u);
  const obs::QueryProgress& last = reports.back();
  EXPECT_GT(last.bytes_total, 0u);
  EXPECT_EQ(last.chunks_total, 8u);
  EXPECT_EQ(last.chunks_delivered, 8u);
  EXPECT_NEAR(last.fraction, 1.0, 1e-9);
}

// Collects every progress report of the operators it is attached to.
struct ProgressLog {
  std::mutex mu;
  std::vector<obs::QueryProgress> reports;

  void Attach(ScanRawOptions* options) {
    options->progress_callback = [this](const obs::QueryProgress& p) {
      std::lock_guard<std::mutex> lock(mu);
      reports.push_back(p);
    };
  }
  // Returns and forgets the reports so far.
  std::vector<obs::QueryProgress> Take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::exchange(reports, {});
  }
};

// Loading is part of a full-load query, so its final report, taken after
// the writes drain, counts every chunk as loaded.
TEST(ProgressReporterTest, FullLoadFinalReportCountsEveryChunkLoaded) {
  ProgressLog log;
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  log.Attach(&options);
  auto f = Fixture::Make("progress_full_load", options);
  QuerySpec q;
  q.sum_columns = {0, 3};
  ASSERT_TRUE(f.manager->Query("t", q).ok());
  const std::vector<obs::QueryProgress> reports = log.Take();
  ASSERT_GE(reports.size(), 2u);
  EXPECT_TRUE(reports.back().complete);
  EXPECT_EQ(reports.back().chunks_delivered, 8u);
  EXPECT_EQ(reports.back().chunks_loaded, 8u);
}

// An invisible-loading query's final report counts the chunks of its
// per-query quota.
TEST(ProgressReporterTest, InvisibleLoadingFinalReportCountsItsQuota) {
  ProgressLog log;
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kInvisibleLoading;
  options.invisible_chunks_per_query = 3;
  options.cache_capacity_chunks = 0;  // every unloaded chunk converts
  log.Attach(&options);
  auto f = Fixture::Make("progress_invisible", options);
  QuerySpec q;
  q.sum_columns = {1};
  for (int query = 0; query < 2; ++query) {
    ASSERT_TRUE(f.manager->Query("t", q).ok());
    const std::vector<obs::QueryProgress> reports = log.Take();
    ASSERT_GE(reports.size(), 2u);
    EXPECT_TRUE(reports.back().complete);
    EXPECT_EQ(reports.back().chunks_loaded, 3u) << "query " << query;
  }
}

// Once a full load retires the operator, the manager answers from the heap
// scan; those queries still report progress, first and final, and the
// final report is complete over the table's chunks.
TEST(ProgressReporterTest, RetiredTableQueriesReportProgress) {
  ProgressLog log;
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  log.Attach(&options);
  auto f = Fixture::Make("progress_retired", options);
  QuerySpec all;
  for (size_t c = 0; c < 8; ++c) all.sum_columns.push_back(c);
  ASSERT_TRUE(f.manager->Query("t", all).ok());
  log.Take();
  for (size_t c = 0; c < 3; ++c) {
    QuerySpec q;
    q.sum_columns = {c};
    auto result = f.manager->Query("t", q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, f.info.column_sums[c]);
    EXPECT_TRUE(f.manager->IsRetired("t"));
    const std::vector<obs::QueryProgress> reports = log.Take();
    ASSERT_GE(reports.size(), 2u) << "query " << c;
    EXPECT_FALSE(reports.front().complete);
    const obs::QueryProgress& last = reports.back();
    EXPECT_TRUE(last.complete);
    EXPECT_DOUBLE_EQ(last.fraction, 1.0);
    EXPECT_EQ(last.chunks_total, 8u);
    EXPECT_EQ(last.chunks_delivered, 8u);
    EXPECT_EQ(last.bytes_processed, last.bytes_total);
  }
}

// ------------------------------- a query's first and final reports ----

// An operator over the 8-chunk fixture whose progress and resource-sample
// intervals (600 s) are far longer than any query, so the ticker adds
// nothing between a query's first report and sample (taken in StartQuery)
// and its final ones (taken when the run finishes, after the drain).
struct ShortQueryOperator {
  obs::Telemetry telemetry;
  std::mutex mu;
  std::vector<obs::QueryProgress> reports;
  Fixture f;
  std::unique_ptr<ScanRaw> op;

  explicit ShortQueryOperator(const std::string& name) {
    ScanRawOptions options = BaseOptions();
    options.policy = LoadPolicy::kExternalTables;  // chunks always from raw
    options.progress_interval_ms = 600'000;
    options.resource_sample_interval_ms = 600'000;
    f = Fixture::Make(name, options);
    options.telemetry = &telemetry;
    options.progress_callback = [this](const obs::QueryProgress& p) {
      std::lock_guard<std::mutex> lock(mu);
      reports.push_back(p);
    };
    op = std::make_unique<ScanRaw>("t", f.manager->catalog(),
                                   f.manager->storage(), f.manager->arbiter(),
                                   nullptr, options);
  }

  size_t num_reports() {
    std::lock_guard<std::mutex> lock(mu);
    return reports.size();
  }
  uint64_t num_samples() { return telemetry.resources().total_appended(); }
};

// Reads `run` to its end.
void Drain(ScanRaw::QueryRun* run) {
  while (true) {
    auto next = run->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) return;
  }
}

TEST(ProgressReporterTest, EmitsFirstAndFinalReports) {
  ShortQueryOperator s("progress_first_final");
  auto run = s.op->StartQuery({0, 1});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(s.num_reports(), 1u);  // the first, on start
  Drain(run->get());
  (*run)->Finish();
  EXPECT_EQ(s.num_reports(), 2u);  // the final, after the drain
  (*run)->Finish();                // idempotent
  run->reset();
  EXPECT_EQ(s.num_reports(), 2u);
}

TEST(ProgressReporterTest, FinalCallbackReportsCompletion) {
  ShortQueryOperator s("progress_completion");
  auto run = s.op->StartQuery({});
  ASSERT_TRUE(run.ok());
  Drain(run->get());
  (*run)->Finish();
  std::lock_guard<std::mutex> lock(s.mu);
  ASSERT_EQ(s.reports.size(), 2u);
  EXPECT_FALSE(s.reports.front().complete);
  // A discovery scan's totals are unknown, yet a clean run ends at 100%.
  EXPECT_TRUE(s.reports.back().complete);
  EXPECT_DOUBLE_EQ(s.reports.back().fraction, 1.0);
  EXPECT_EQ(s.reports.back().chunks_delivered, 8u);
}

TEST(ResourceSamplerTest, TakesStartAndStopSamples) {
  ShortQueryOperator s("sampler_start_stop");
  auto run = s.op->StartQuery({0, 1});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(s.num_samples(), 1u);  // one on start
  Drain(run->get());
  (*run)->Finish();
  EXPECT_EQ(s.num_samples(), 2u);  // one final, after the drain
}

TEST(ResourceSamplerTest, FinalProbeIsExactlyOnceAcrossStops) {
  ShortQueryOperator s("sampler_exactly_once");
  for (uint64_t query = 1; query <= 2; ++query) {
    auto run = s.op->StartQuery({0, 1});
    ASSERT_TRUE(run.ok());
    Drain(run->get());
    (*run)->Finish();
    (*run)->Finish();
    run->reset();  // the destructor finds the run already finished
    EXPECT_EQ(s.num_samples(), 2 * query);  // start + final, per query
  }
}

}  // namespace
}  // namespace scanraw
