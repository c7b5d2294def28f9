// Workload-intelligence loop tests: WorkloadHistory aggregation and
// persistence, LoadAdvisor ranking, restart reconciliation against the
// catalog, and the end-to-end replay acceptance scenario — a logged query
// mix replayed into a restarted process changes the speculative column
// load order while keeping results byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datagen/csv_generator.h"
#include "db/catalog.h"
#include "db/recovery.h"
#include "io/file.h"
#include "obs/explain.h"
#include "obs/load_advisor.h"
#include "obs/query_log.h"
#include "obs/workload_history.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

using obs::AdvisorPlan;
using obs::LoadAdvisor;
using obs::QueryLog;
using obs::QueryLogEvent;
using obs::TableUsage;
using obs::WorkloadHistory;

std::string TempPath(const std::string& suffix) {
  std::string name =
      testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return testing::TempDir() + "/workload_" + name + suffix;
}

QueryLogEvent Event(uint64_t seq, const std::string& table,
                    std::vector<size_t> columns,
                    std::vector<size_t> predicate_columns = {}) {
  QueryLogEvent e;
  e.seq = seq;
  e.table = table;
  e.status = "ok";
  e.columns = std::move(columns);
  e.predicate_columns = std::move(predicate_columns);
  e.rows_scanned = 1000;
  e.rows_matched = 100;
  return e;
}

TEST(WorkloadHistoryTest, ObserveAggregatesPerTableAndColumn) {
  WorkloadHistory history;
  history.Observe(Event(1, "t", {0, 1}));
  history.Observe(Event(2, "t", {0, 2}, {2}));
  history.Observe(Event(3, "u", {5}));

  TableUsage t = history.TableSnapshot("t");
  EXPECT_EQ(t.queries, 2u);
  EXPECT_EQ(t.rows_scanned, 2000u);
  EXPECT_EQ(t.rows_matched, 200u);
  EXPECT_DOUBLE_EQ(t.Selectivity(), 0.1);
  EXPECT_EQ(t.columns.at(0).touches, 2u);
  EXPECT_EQ(t.columns.at(1).touches, 1u);
  EXPECT_EQ(t.columns.at(2).predicates, 1u);
  EXPECT_EQ(t.columns.at(0).last_seq, 2u);
  EXPECT_EQ(history.TableSnapshot("u").queries, 1u);
  EXPECT_EQ(history.TableSnapshot("missing").queries, 0u);
  EXPECT_EQ(history.last_seq(), 3u);
}

TEST(WorkloadHistoryTest, ReplayIsIdempotentBySeq) {
  WorkloadHistory history;
  history.Observe(Event(1, "t", {0}));
  history.Observe(Event(2, "t", {0}));
  // Replaying the same events (or older ones) must not double-count.
  history.Observe(Event(2, "t", {0}));
  history.Observe(Event(1, "t", {0}));
  EXPECT_EQ(history.TableSnapshot("t").queries, 2u);
  EXPECT_EQ(history.TableSnapshot("t").columns.at(0).touches, 2u);
  EXPECT_EQ(history.events_observed(), 2u);
}

TEST(WorkloadHistoryTest, FailedQueriesCountForRecencyOnly) {
  WorkloadHistory history;
  history.Observe(Event(1, "t", {0}));
  QueryLogEvent failed = Event(2, "t", {0, 1});
  failed.status = "IO error: disk exploded";
  history.Observe(failed);
  TableUsage t = history.TableSnapshot("t");
  EXPECT_EQ(t.queries, 1u);                 // failure not counted
  EXPECT_EQ(t.columns.count(1), 0u);        // its columns not counted
  EXPECT_EQ(t.last_seq, 2u);                // but recency advanced
  EXPECT_EQ(history.last_seq(), 2u);
}

TEST(WorkloadHistoryTest, SaveAndLoadRoundTrip) {
  const std::string path = TempPath(".history");
  WorkloadHistory history;
  history.Observe(Event(1, "t one", {0, 1}, {1}));
  history.Observe(Event(2, "t one", {0}));
  history.Observe(Event(3, "u", {7}));
  ASSERT_TRUE(history.SaveToFile(path).ok());

  WorkloadHistory loaded;
  WorkloadHistory::LoadStats stats;
  ASSERT_TRUE(loaded.LoadFromFile(path, &stats).ok());
  EXPECT_EQ(stats.version, 1);
  EXPECT_EQ(stats.tables, 2u);
  EXPECT_EQ(stats.columns, 3u);
  EXPECT_FALSE(stats.torn_tail_dropped);
  EXPECT_EQ(loaded.last_seq(), 3u);
  TableUsage t = loaded.TableSnapshot("t one");  // escaped name round-trips
  EXPECT_EQ(t.queries, 2u);
  EXPECT_EQ(t.columns.at(0).touches, 2u);
  EXPECT_EQ(t.columns.at(1).predicates, 1u);
  EXPECT_EQ(loaded.TableSnapshot("u").columns.at(7).touches, 1u);
}

TEST(WorkloadHistoryTest, LoadDropsTornTrailingLine) {
  const std::string path = TempPath(".history");
  WorkloadHistory history;
  history.Observe(Event(1, "t", {0}));
  ASSERT_TRUE(history.SaveToFile(path).ok());
  {
    auto file = WritableFile::OpenForAppend(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("col t 9 touc").ok());  // no newline: torn
    const Status st = (*file)->Close();
    static_cast<void>(st);
  }
  WorkloadHistory loaded;
  WorkloadHistory::LoadStats stats;
  ASSERT_TRUE(loaded.LoadFromFile(path, &stats).ok());
  EXPECT_TRUE(stats.torn_tail_dropped);
  EXPECT_EQ(loaded.TableSnapshot("t").columns.count(9), 0u);
}

TEST(WorkloadHistoryTest, ReplayLogFoldsOnlyEventsAboveHighWater) {
  const std::string log_path = TempPath(".jsonl");
  ASSERT_TRUE(RemoveFileIfExists(log_path).ok());
  ASSERT_TRUE(RemoveFileIfExists(log_path + ".1").ok());
  {
    auto log = QueryLog::Open(log_path);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(Event(0, "t", {0, 1})).ok());
    }
  }
  WorkloadHistory history;
  auto folded = history.ReplayLog(log_path);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 3u);
  EXPECT_EQ(history.TableSnapshot("t").queries, 3u);

  // A second replay folds nothing: everything is at or below last_seq.
  folded = history.ReplayLog(log_path);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 0u);
  EXPECT_EQ(history.TableSnapshot("t").queries, 3u);
}

TEST(WorkloadHistoryTest, ReconcileDropsTablesMissingFromCatalog) {
  WorkloadHistory history;
  history.Observe(Event(1, "kept", {0}));
  history.Observe(Event(2, "dropped", {0}));
  history.Observe(Event(3, "also_dropped", {0}));

  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("kept", "kept.csv", Schema::AllUint32(1), 100).ok());

  EXPECT_EQ(ReconcileHistoryWithCatalog(history, catalog), 2u);
  EXPECT_EQ(history.Tables(), std::vector<std::string>{"kept"});
  // Aggregates for surviving tables are untouched.
  EXPECT_EQ(history.TableSnapshot("kept").queries, 1u);
}

TEST(LoadAdvisorTest, RanksByFrequencyWithPredicateAndRecencyTieBreaks) {
  WorkloadHistory history;
  // col0 in all 4 queries; col1 in 2 (one as predicate); col2 in 2 (later);
  // col3 in 1.
  history.Observe(Event(1, "t", {0, 1, 3}, {1}));
  history.Observe(Event(2, "t", {0, 1}));
  history.Observe(Event(3, "t", {0, 2}));
  history.Observe(Event(4, "t", {0, 2}));

  LoadAdvisor advisor(&history, /*hot_threshold=*/0.5);
  AdvisorPlan plan = advisor.Plan("t");
  ASSERT_TRUE(plan.has_history);
  ASSERT_EQ(plan.ranked.size(), 4u);
  EXPECT_EQ(plan.ranked[0].column, 0u);  // freq 1.0 dominates
  // col1 and col2 both have freq 0.5; col2's recency edge (last_seq 4 vs 2,
  // worth 0.1) outweighs col1's predicate bonus (0.3 * 1/4 = 0.075).
  EXPECT_EQ(plan.ranked[1].column, 2u);
  EXPECT_EQ(plan.ranked[2].column, 1u);
  EXPECT_EQ(plan.ranked[3].column, 3u);
  EXPECT_EQ(plan.hot, (std::vector<size_t>{0, 2, 1}));
  EXPECT_NE(plan.note.find("3/4 columns hot"), std::string::npos);
}

TEST(LoadAdvisorTest, FilterColumnsKeepsHotInRankOrder) {
  WorkloadHistory history;
  history.Observe(Event(1, "t", {0, 1}));
  history.Observe(Event(2, "t", {1}));
  LoadAdvisor advisor(&history, 0.5);
  // col1 freq 1.0, col0 freq 0.5 — both hot, col1 first.
  EXPECT_EQ(advisor.FilterColumns("t", {0, 1, 2, 3}),
            (std::vector<size_t>{1, 0}));
}

TEST(LoadAdvisorTest, FallsBackToAvailableWhenHistoryIsSilent) {
  WorkloadHistory history;
  LoadAdvisor advisor(&history, 0.5);
  const std::vector<size_t> available = {2, 0, 1};
  // No history at all: pass-through, order preserved.
  EXPECT_EQ(advisor.FilterColumns("t", available), available);

  // History exists but no hot column intersects `available`: still
  // pass-through — the advisor never makes speculative loading load less
  // than something.
  history.Observe(Event(1, "t", {9}));
  EXPECT_EQ(advisor.FilterColumns("t", available), available);

  LoadAdvisor detached(nullptr);
  EXPECT_EQ(detached.FilterColumns("t", available), available);
  EXPECT_NE(detached.Plan("t").note.find("no history"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replay acceptance: run a fixed query mix with logging on, restart with the
// persisted history feeding an advisor, and verify the speculative column
// load order changed, results stayed byte-identical, and the write budget
// went to the hot columns.
// ---------------------------------------------------------------------------

class WorkloadReplayTest : public testing::Test {
 protected:
  static constexpr uint64_t kRows = 3000;
  static constexpr size_t kCols = 4;

  void SetUp() override {
    csv_path_ = TempPath(".csv");
    spec_.num_rows = kRows;
    spec_.num_columns = kCols;
    spec_.seed = 42;
    auto info = GenerateCsvFile(csv_path_, spec_);
    ASSERT_TRUE(info.ok());
    info_ = *info;
  }

  static QuerySpec FullQuery() {
    QuerySpec q;
    q.sum_columns = {0, 1, 2, 3};
    return q;
  }

  static QuerySpec HotQuery() {
    QuerySpec q;
    q.sum_columns = {0, 1};
    return q;
  }

  static ScanRawOptions BaseOptions() {
    ScanRawOptions options;
    options.num_workers = 2;
    options.chunk_rows = 500;  // 6 chunks
    return options;
  }

  std::string csv_path_;
  CsvSpec spec_;
  CsvFileInfo info_;
};

// Once a full load retires the operator, queries run on the manager's heap
// scan, and each still appends its event to the query log.
TEST_F(WorkloadReplayTest, RetiredHeapScanQueriesReachTheLog) {
  const std::string log_path = TempPath(".jsonl");
  ASSERT_TRUE(RemoveFileIfExists(log_path).ok());
  ASSERT_TRUE(RemoveFileIfExists(log_path + ".1").ok());
  ScanRawManager::Config config;
  config.db_path = TempPath(".db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  auto log = QueryLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;
  options.query_log = log->get();
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("t", csv_path_, CsvSchema(spec_), options)
                  .ok());
  ASSERT_TRUE((*manager)->Query("t", FullQuery()).ok());  // loads every chunk
  ASSERT_EQ((*log)->events_appended(), 1u);

  const std::vector<std::vector<size_t>> columns = {{0}, {1, 3}, {0, 1, 2, 3}};
  for (const auto& cols : columns) {
    QuerySpec q;
    q.sum_columns = cols;
    auto result = (*manager)->Query("t", q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE((*manager)->IsRetired("t"));
  }
  EXPECT_EQ((*log)->events_appended(), 1 + columns.size());
  ASSERT_TRUE((*log)->Close().ok());

  auto events = QueryLog::ReadAll(log_path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 1 + columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const QueryLogEvent& e = (*events)[1 + i];
    EXPECT_EQ(e.table, "t");
    EXPECT_EQ(e.policy, "heap-scan (retired)");
    EXPECT_EQ(e.status, "ok");
    EXPECT_EQ(e.columns, columns[i]);
    EXPECT_EQ(e.rows_scanned, kRows);
    EXPECT_EQ(e.rows_matched, kRows);
    EXPECT_EQ(e.chunks_from_db, 6u);
  }
}

// Attaching a query log does not make a speculative query wait for its
// background writes: on a slow disk the safeguard flush is still running
// when the query returns, as it is without a log (§4 lets it overlap the
// next query). Only an explicit EXPLAIN drains the writes.
TEST_F(WorkloadReplayTest, LoggedQueryDoesNotWaitForBackgroundWrites) {
  const std::string log_path = TempPath(".jsonl");
  ASSERT_TRUE(RemoveFileIfExists(log_path).ok());
  ASSERT_TRUE(RemoveFileIfExists(log_path + ".1").ok());
  ScanRawManager::Config config;
  config.db_path = TempPath(".db");
  config.disk_bandwidth = 64 << 10;  // the flush's 6 pages take ~0.75 s
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  auto log = QueryLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.query_log = log->get();
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("t", csv_path_, CsvSchema(spec_), options)
                  .ok());

  auto result = (*manager)->Query("t", FullQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ScanRaw* op = (*manager)->GetOperator("t");
  ASSERT_NE(op, nullptr);
  const uint64_t written_at_return = op->profile().chunks_written.load();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_EQ((*log)->events_appended(), 1u);

  // A second logged query, an EXPLAIN, drains the writes. Each write is
  // credited to the query running when it lands, so the first query's
  // flush, still landing when this one starts, is counted in the second
  // event, and no write is counted in both.
  obs::ExplainReport explain;
  auto second = op->ExecuteQuery(FullQuery(), &explain);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_sum, info_.total_sum);
  const uint64_t written_after_drain = op->profile().chunks_written.load();
  EXPECT_EQ(written_after_drain, 6u);
  EXPECT_LT(written_at_return, written_after_drain);
  ASSERT_TRUE((*log)->Close().ok());

  auto events = QueryLog::ReadAll(log_path);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  const uint64_t first_logged = (*events)[0].chunks_written;
  const uint64_t second_logged = (*events)[1].chunks_written;
  EXPECT_LE(first_logged, written_at_return);
  EXPECT_GT(second_logged, 0u);
  EXPECT_EQ(second_logged, explain.chunks_written);
  EXPECT_LE(first_logged + second_logged, written_after_drain);
}

TEST_F(WorkloadReplayTest, PersistedHistoryChangesLoadOrderNotResults) {
  const std::string log_path = TempPath(".jsonl");
  const std::string history_path = TempPath(".history");
  // Leftovers from a previous run would pollute the logged mix.
  ASSERT_TRUE(RemoveFileIfExists(log_path).ok());
  ASSERT_TRUE(RemoveFileIfExists(log_path + ".1").ok());
  ASSERT_TRUE(RemoveFileIfExists(history_path).ok());

  // --- Run 1: external tables (no loading), query log on. The mix makes
  // columns 0 and 1 hot (freq 1.0) and columns 2 and 3 cold (freq 0.25).
  {
    ScanRawManager::Config config;
    config.db_path = TempPath("_run1.db");
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());

    auto log = QueryLog::Open(log_path);
    ASSERT_TRUE(log.ok());
    ScanRawOptions options = BaseOptions();
    options.policy = LoadPolicy::kExternalTables;
    options.query_log = log->get();
    ASSERT_TRUE((*manager)
                    ->RegisterRawFile("t", csv_path_, CsvSchema(spec_), options)
                    .ok());

    auto full = (*manager)->Query("t", FullQuery());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->total_sum, info_.total_sum);
    for (int i = 0; i < 3; ++i) {
      auto hot = (*manager)->Query("t", HotQuery());
      ASSERT_TRUE(hot.ok());
      EXPECT_EQ(hot->total_sum, info_.column_sums[0] + info_.column_sums[1]);
    }
    EXPECT_EQ((*log)->events_appended(), 4u);

    // Fold the log into a history and persist it, as the CLI does at exit.
    WorkloadHistory history;
    auto folded = history.ReplayLog(log_path);
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(*folded, 4u);
    ASSERT_TRUE(history.SaveToFile(history_path).ok());
  }

  // --- Baseline for comparison: speculative loading WITHOUT the advisor
  // loads every column of every chunk.
  uint64_t plain_bytes_written = 0;
  {
    ScanRawManager::Config config;
    config.db_path = TempPath("_plain.db");
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ScanRawOptions options = BaseOptions();
    options.policy = LoadPolicy::kSpeculativeLoading;
    ASSERT_TRUE((*manager)
                    ->RegisterRawFile("t", csv_path_, CsvSchema(spec_), options)
                    .ok());
    obs::ExplainReport report;
    auto full = (*manager)->Query("t", FullQuery(), &report);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->total_sum, info_.total_sum);
    EXPECT_FALSE(report.advisor_used);
    ASSERT_GT(report.chunks_written, 0u);
    plain_bytes_written = report.bytes_written;
    ASSERT_GT(plain_bytes_written, 0u);

    auto meta = (*manager)->catalog()->GetTable("t");
    ASSERT_TRUE(meta.ok());
    for (const auto& chunk : meta->chunks) {
      if (!chunk.loaded_columns.empty()) {
        EXPECT_EQ(chunk.loaded_columns.size(), kCols);
      }
    }
  }

  // --- Run 2: "restarted process" — fresh history loaded from disk,
  // reconciled by replaying the log (which folds nothing new), feeding an
  // advisor under speculative loading.
  WorkloadHistory history;
  WorkloadHistory::LoadStats load_stats;
  ASSERT_TRUE(history.LoadFromFile(history_path, &load_stats).ok());
  EXPECT_EQ(load_stats.tables, 1u);
  auto folded = history.ReplayLog(log_path);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(*folded, 0u);  // the persisted history was already current

  auto advisor = std::make_shared<LoadAdvisor>(&history, 0.5);
  EXPECT_EQ(advisor->FilterColumns("t", {0, 1, 2, 3}),
            (std::vector<size_t>{0, 1}));

  ScanRawManager::Config config;
  config.db_path = TempPath("_advised.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.advisor = advisor;
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("t", csv_path_, CsvSchema(spec_), options)
                  .ok());

  obs::ExplainReport report;
  auto full = (*manager)->Query("t", FullQuery(), &report);
  ASSERT_TRUE(full.ok());
  // Byte-identical results: the advisor changed what gets WRITTEN, never
  // what gets delivered.
  EXPECT_EQ(full->total_sum, info_.total_sum);
  EXPECT_EQ(full->rows_scanned, kRows);
  EXPECT_TRUE(report.advisor_used);
  EXPECT_NE(report.advisor_note.find("2/4 columns hot"), std::string::npos);
  ASSERT_GT(report.chunks_written, 0u);
  ASSERT_GT(report.bytes_written, 0u);
  // The write budget shrank: only the hot half of each chunk was stored.
  EXPECT_LT(report.bytes_written, plain_bytes_written);

  // The catalog shows the changed load order: loaded chunks carry exactly
  // the advisor's hot set, not all four columns.
  auto meta = (*manager)->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());
  size_t loaded_chunks = 0;
  for (const auto& chunk : meta->chunks) {
    if (chunk.loaded_columns.empty()) continue;
    ++loaded_chunks;
    EXPECT_EQ(chunk.loaded_columns, (std::set<size_t>{0, 1}));
  }
  ASSERT_GT(loaded_chunks, 0u);

  // The stored hot columns pay off: a hot-set query is served without
  // touching the raw file, and results still match ground truth.
  obs::ExplainReport hot_report;
  auto hot = (*manager)->Query("t", HotQuery(), &hot_report);
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->total_sum, info_.column_sums[0] + info_.column_sums[1]);
  EXPECT_EQ(hot_report.chunks_from_raw, 0u);
  EXPECT_EQ(hot_report.chunks_from_cache + hot_report.chunks_from_db,
            loaded_chunks);

  // A cold-column query still works — those columns come from the raw side.
  QuerySpec cold;
  cold.sum_columns = {2, 3};
  auto cold_result = (*manager)->Query("t", cold);
  ASSERT_TRUE(cold_result.ok());
  EXPECT_EQ(cold_result->total_sum,
            info_.column_sums[2] + info_.column_sums[3]);
}

}  // namespace
}  // namespace scanraw
