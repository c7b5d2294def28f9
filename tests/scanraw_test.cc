#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "datagen/csv_generator.h"
#include "io/file.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Fixture generating a small CSV file and a fresh manager per test.
class ScanRawTest : public testing::Test {
 protected:
  static constexpr uint64_t kRows = 4000;
  static constexpr size_t kCols = 8;
  static constexpr uint64_t kChunkRows = 500;  // 8 chunks

  void SetUp() override {
    std::string name = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names contain '/'
    }
    csv_path_ = TempPath("scanraw_" + name + ".csv");
    CsvSpec spec;
    spec.num_rows = kRows;
    spec.num_columns = kCols;
    spec.seed = 42;
    auto info = GenerateCsvFile(csv_path_, spec);
    ASSERT_TRUE(info.ok());
    info_ = *info;
    schema_ = CsvSchema(spec);
  }

  std::unique_ptr<ScanRawManager> MakeManager(const ScanRawOptions& options) {
    ScanRawManager::Config config;
    config.db_path = csv_path_ + ".db";
    auto manager = ScanRawManager::Create(config);
    EXPECT_TRUE(manager.ok());
    EXPECT_TRUE((*manager)->RegisterRawFile("t", csv_path_, schema_, options)
                    .ok());
    return std::move(*manager);
  }

  static ScanRawOptions BaseOptions(LoadPolicy policy) {
    ScanRawOptions options;
    options.policy = policy;
    options.num_workers = 2;
    options.chunk_rows = kChunkRows;
    options.cache_capacity_chunks = 4;  // half the chunks fit
    return options;
  }

  QuerySpec SumAllQuery() const {
    QuerySpec spec;
    for (size_t c = 0; c < kCols; ++c) spec.sum_columns.push_back(c);
    return spec;
  }

  std::string csv_path_;
  CsvFileInfo info_;
  Schema schema_;
};

TEST_F(ScanRawTest, ExternalTablesCorrectAcrossQueries) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kExternalTables));
  for (int q = 0; q < 3; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum);
    EXPECT_EQ(result->rows_scanned, kRows);
  }
  // External tables never load anything.
  EXPECT_DOUBLE_EQ(manager->catalog()->GetTable("t")->LoadedFraction(), 0.0);
  EXPECT_FALSE(manager->IsRetired("t"));
}

TEST_F(ScanRawTest, FullLoadLoadsEverythingFirstQuery) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kFullLoad));
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  auto meta = manager->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->FullyLoaded());
  EXPECT_EQ(meta->chunks.size(), kRows / kChunkRows);

  // Second query: answered from the database (operator retired).
  auto again = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->total_sum, info_.total_sum);
  EXPECT_TRUE(manager->IsRetired("t"));
}

TEST_F(ScanRawTest, SpeculativeConvergesToFullLoad) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kSpeculativeLoading));
  double last_fraction = 0.0;
  for (int q = 0; q < 8; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << "query " << q << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum) << "query " << q;
    ScanRaw* op = manager->GetOperator("t");
    if (op != nullptr) op->WaitForWrites();
    const double fraction = manager->catalog()->GetTable("t")->LoadedFraction();
    // Loaded fraction is monotone non-decreasing across queries.
    EXPECT_GE(fraction, last_fraction) << "query " << q;
    // The safeguard guarantees progress on every query until fully loaded.
    if (last_fraction < 1.0) {
      EXPECT_GT(fraction, last_fraction) << "query " << q;
    }
    last_fraction = fraction;
    if (fraction >= 1.0) break;
  }
  EXPECT_DOUBLE_EQ(last_fraction, 1.0);
  // All queries after full load still produce correct results.
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_TRUE(manager->IsRetired("t"));
}

TEST_F(ScanRawTest, InvisibleLoadingLoadsFixedAmountPerQuery) {
  auto options = BaseOptions(LoadPolicy::kInvisibleLoading);
  options.invisible_chunks_per_query = 2;
  auto manager = MakeManager(options);
  const size_t total_chunks = kRows / kChunkRows;
  size_t last_loaded = 0;
  for (size_t q = 1; q <= total_chunks / 2; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum);
    auto meta = manager->catalog()->GetTable("t");
    size_t loaded = 0;
    for (const auto& c : meta->chunks) {
      if (c.loaded_columns.size() == kCols) ++loaded;
    }
    EXPECT_EQ(loaded - last_loaded, 2u) << "query " << q;
    last_loaded = loaded;
  }
  EXPECT_EQ(last_loaded, total_chunks);
}

TEST_F(ScanRawTest, BufferedLoadingWritesOnEviction) {
  auto options = BaseOptions(LoadPolicy::kBufferedLoading);
  options.cache_capacity_chunks = 3;  // 8 chunks -> 5 evictions on query 1
  auto manager = MakeManager(options);
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  ScanRaw* op = manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();
  auto meta = manager->catalog()->GetTable("t");
  size_t loaded = 0;
  for (const auto& c : meta->chunks) {
    if (c.loaded_columns.size() == kCols) ++loaded;
  }
  // Everything except what still fits in the cache was evicted and loaded.
  EXPECT_EQ(loaded, kRows / kChunkRows - options.cache_capacity_chunks);
}

// §4's trigger fires in the real pipeline with default buffers: a
// sequential speculative-loading scan over 8 chunks holds at most
// text_buffer_capacity raw chunks, so READ blocks while converted, unloaded
// chunks already wait in the cache.
TEST_F(ScanRawTest, SpeculativeTriggerFiresWithDefaultBuffers) {
  ScanRawOptions options;  // speculative loading, default buffers and cache
  options.num_workers = 0;
  options.chunk_rows = kChunkRows;
  auto manager = MakeManager(options);
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  ScanRaw* op = manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();
  EXPECT_GT(op->profile().read_blocked_events.load(), 0u);
  EXPECT_GT(op->profile().speculative_triggers.load(), 0u);
}

TEST_F(ScanRawTest, SafeguardDisabledMayStall) {
  auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
  options.safeguard_enabled = false;
  // Huge buffers: READ never blocks, so no speculative trigger fires and,
  // without the safeguard, nothing is ever loaded.
  options.text_buffer_capacity = 64;
  options.output_buffer_capacity = 64;
  auto manager = MakeManager(options);
  for (int q = 0; q < 3; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->total_sum, info_.total_sum);
  }
  ScanRaw* op = manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();
  EXPECT_DOUBLE_EQ(manager->catalog()->GetTable("t")->LoadedFraction(), 0.0);
}

TEST_F(ScanRawTest, ProjectionQueriesLoadOnlyProjectedColumns) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kFullLoad));
  QuerySpec spec;
  spec.sum_columns = {1, 3};
  auto result = manager->Query("t", spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum,
            info_.column_sums[1] + info_.column_sums[3]);
  auto meta = manager->catalog()->GetTable("t");
  for (const auto& c : meta->chunks) {
    EXPECT_EQ(c.loaded_columns, (std::set<size_t>{1, 3}));
  }
  EXPECT_FALSE(meta->FullyLoaded());

  // A query over different columns goes back to the raw file and loads the
  // extra columns as new segments.
  QuerySpec spec2;
  spec2.sum_columns = {0, 1, 2, 3, 4, 5, 6, 7};
  auto result2 = manager->Query("t", spec2);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2->total_sum, info_.total_sum);
  meta = manager->catalog()->GetTable("t");
  EXPECT_TRUE(meta->FullyLoaded());
}

TEST_F(ScanRawTest, SubsetQueryServedFromDbSegments) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kFullLoad));
  // Load columns {1,3} first.
  QuerySpec wide;
  wide.sum_columns = {1, 3};
  ASSERT_TRUE(manager->Query("t", wide).ok());
  // Query on {1} alone: every chunk has column 1 loaded -> database reads.
  QuerySpec narrow;
  narrow.sum_columns = {1};
  auto result = manager->Query("t", narrow);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.column_sums[1]);
  ScanRaw* op = manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  // Nothing new read from raw during the second query: chunks came from the
  // cache or the database.
  EXPECT_EQ(op->profile().chunks_from_raw.load(), kRows / kChunkRows);
}

TEST_F(ScanRawTest, RangePredicateWithChunkSkipping) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kFullLoad));
  QuerySpec spec = SumAllQuery();
  ASSERT_TRUE(manager->Query("t", spec).ok());  // loads + collects stats

  // A selective predicate: re-compute expected result by scanning the file.
  QuerySpec filtered = SumAllQuery();
  filtered.predicate.range = RangePredicate{0, 0, 1000000};
  auto result = manager->Query("t", filtered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->rows_matched, kRows);

  // Impossible predicate: statistics skip every chunk.
  QuerySpec impossible = SumAllQuery();
  impossible.predicate.range = RangePredicate{0, 1ll << 40, 1ll << 41};
  auto none = manager->Query("t", impossible);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows_matched, 0u);
  EXPECT_EQ(none->rows_scanned, 0u);  // no chunk even read
}

TEST_F(ScanRawTest, SequentialModeWorks) {
  auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
  options.num_workers = 0;  // fully sequential conversion
  auto manager = MakeManager(options);
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
}

TEST_F(ScanRawTest, CacheHitsOnSecondQuery) {
  auto options = BaseOptions(LoadPolicy::kExternalTables);
  options.cache_capacity_chunks = 16;  // whole file fits
  auto manager = MakeManager(options);
  ASSERT_TRUE(manager->Query("t", SumAllQuery()).ok());
  ScanRaw* op = manager->GetOperator("t");
  ASSERT_NE(op, nullptr);
  const uint64_t raw_after_first = op->profile().chunks_from_raw.load();
  EXPECT_EQ(raw_after_first, kRows / kChunkRows);
  ASSERT_TRUE(manager->Query("t", SumAllQuery()).ok());
  // Second query fully served from cache: no additional raw reads.
  EXPECT_EQ(op->profile().chunks_from_raw.load(), raw_after_first);
  EXPECT_EQ(op->profile().chunks_from_cache.load(), kRows / kChunkRows);
}

TEST_F(ScanRawTest, AbandonedQueryRunShutsDownCleanly) {
  auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
  options.output_buffer_capacity = 1;  // guarantee a stuffed pipeline
  ScanRawManager::Config config;
  config.db_path = csv_path_ + ".db";
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());
  ScanRaw op("t", (*manager)->catalog(), (*manager)->storage(),
             (*manager)->arbiter(), nullptr, options);
  auto run = op.StartQuery({0, 1});
  ASSERT_TRUE(run.ok());
  // Consume two chunks, then abandon mid-stream.
  ASSERT_TRUE((*run)->Next().ok());
  ASSERT_TRUE((*run)->Next().ok());
  run->reset();  // destructor must not hang
}

TEST_F(ScanRawTest, MissingRawFileReportsError) {
  ScanRawManager::Config config;
  config.db_path = TempPath("missing.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options = BaseOptions(LoadPolicy::kExternalTables);
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("ghost", TempPath("no_such_file.csv"),
                                    schema_, options)
                  .ok());
  auto result = (*manager)->Query("ghost", SumAllQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST_F(ScanRawTest, MalformedRowReportsCorruption) {
  const std::string bad_path = TempPath("bad.csv");
  ASSERT_TRUE(WriteStringToFile(
                  bad_path, "1,2,3,4,5,6,7,8\n1,2,oops,4,5,6,7,8\n")
                  .ok());
  ScanRawManager::Config config;
  config.db_path = bad_path + ".db";
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("bad", bad_path, schema_,
                                    BaseOptions(LoadPolicy::kExternalTables))
                  .ok());
  auto result = (*manager)->Query("bad", SumAllQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(ScanRawTest, WrongColumnCountReportsCorruption) {
  const std::string bad_path = TempPath("short_row.csv");
  ASSERT_TRUE(WriteStringToFile(bad_path, "1,2,3,4,5,6,7,8\n1,2,3\n").ok());
  ScanRawManager::Config config;
  config.db_path = bad_path + ".db";
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("bad", bad_path, schema_,
                                    BaseOptions(LoadPolicy::kExternalTables))
                  .ok());
  auto result = (*manager)->Query("bad", SumAllQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(ScanRawTest, OutOfRangeColumnRejected) {
  auto manager = MakeManager(BaseOptions(LoadPolicy::kExternalTables));
  QuerySpec spec;
  spec.sum_columns = {99};
  auto result = manager->Query("t", spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// Policy sweep: every policy produces identical, correct results across a
// 4-query sequence, and the catalog never double-counts a chunk.
class PolicySweepTest
    : public ScanRawTest,
      public testing::WithParamInterface<LoadPolicy> {};

TEST_P(PolicySweepTest, CorrectAndExactlyOnce) {
  auto manager = MakeManager(BaseOptions(GetParam()));
  for (int q = 0; q < 4; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum) << "query " << q;
    EXPECT_EQ(result->rows_scanned, kRows) << "query " << q;
  }
  // Invariants on the catalog: each chunk's loaded column set never exceeds
  // the schema and rows per chunk total the file.
  auto meta = manager->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());
  uint64_t total_rows = 0;
  for (const auto& c : meta->chunks) {
    EXPECT_LE(c.loaded_columns.size(), kCols);
    total_rows += c.num_rows;
  }
  EXPECT_EQ(total_rows, kRows);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweepTest,
    testing::Values(LoadPolicy::kExternalTables, LoadPolicy::kFullLoad,
                    LoadPolicy::kSpeculativeLoading,
                    LoadPolicy::kInvisibleLoading,
                    LoadPolicy::kBufferedLoading),
    [](const testing::TestParamInfo<LoadPolicy>& info) {
      std::string name(LoadPolicyName(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Worker sweep: results identical from sequential to wide pools.
class WorkerSweepTest : public ScanRawTest,
                        public testing::WithParamInterface<size_t> {};

TEST_P(WorkerSweepTest, SumMatchesGroundTruth) {
  auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
  options.num_workers = GetParam();
  auto manager = MakeManager(options);
  auto result = manager->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweepTest,
                         testing::Values(0, 1, 2, 4, 8));

size_t CountThreads() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// Cache hits are handed out on the caller's thread, the worker pool is
// process-wide, and a query's periodic progress report and resource sample
// run on the process's one ticker, so a cached query starts no thread at
// all: not in the pipeline, and not for its first progress report either.
TEST_F(ScanRawTest, CachedQueriesStartNoThreads) {
  auto options = BaseOptions(LoadPolicy::kExternalTables);
  options.cache_capacity_chunks = 16;  // whole file fits
  options.resource_sample_interval_ms = 1;
  options.progress_interval_ms = 1;
  // Thread count inside every report once the baseline is taken; 0 before.
  std::atomic<bool> measuring{false};
  std::atomic<size_t> peak_in_report{0};
  options.progress_callback = [&](const obs::QueryProgress&) {
    if (!measuring.load()) return;
    const size_t n = CountThreads();
    if (n > peak_in_report.load()) peak_in_report = n;
  };
  auto manager = MakeManager(options);
  // Fills the cache, and starts the ticker with the query's first tasks.
  ASSERT_TRUE(manager->Query("t", SumAllQuery()).ok());

  // The poller runs before the baseline is taken, so it counts itself.
  std::atomic<bool> polling{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> peak{0};
  std::thread poller([&] {
    polling = true;
    while (!stop.load()) {
      const size_t n = CountThreads();
      if (n > peak.load()) peak = n;
    }
  });
  while (!polling.load()) std::this_thread::yield();
  const size_t baseline = CountThreads();
  measuring = true;
  int wrong = 0;
  for (int q = 0; q < 100; ++q) {
    auto result = manager->Query("t", SumAllQuery());
    if (!result.ok() || result->total_sum != info_.total_sum) ++wrong;
  }
  stop = true;
  poller.join();
  EXPECT_EQ(wrong, 0);
  EXPECT_LE(peak.load(), baseline);
  EXPECT_GT(peak_in_report.load(), 0u);
  EXPECT_LE(peak_in_report.load(), baseline);
}

// Two managers queried at once from two client threads share one pool and
// each gets exact answers.
TEST_F(ScanRawTest, ConcurrentManagersShareThePool) {
  auto make = [&](const std::string& suffix) {
    ScanRawManager::Config config;
    config.db_path = csv_path_ + suffix;
    auto manager = ScanRawManager::Create(config);
    EXPECT_TRUE(manager.ok());
    auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
    options.num_workers = 4;
    EXPECT_TRUE(
        (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());
    return std::move(*manager);
  };
  std::unique_ptr<ScanRawManager> first = make(".first.db");
  std::unique_ptr<ScanRawManager> second = make(".second.db");
  std::atomic<int> wrong{0};
  auto client = [&](ScanRawManager* manager, size_t column) {
    QuerySpec one;
    one.sum_columns = {column};
    for (int q = 0; q < 6; ++q) {
      auto all = manager->Query("t", SumAllQuery());
      if (!all.ok() || all->total_sum != info_.total_sum) ++wrong;
      auto single = manager->Query("t", one);
      if (!single.ok() || single->total_sum != info_.column_sums[column]) {
        ++wrong;
      }
    }
  };
  std::thread a(client, first.get(), 1);
  std::thread b(client, second.get(), 6);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

// Dropping a run right after its first chunk, with READ, TOKENIZE and PARSE
// steps still in flight, waits for exactly those steps and leaves the
// operator intact (meaningful under ASan and TSan).
TEST_F(ScanRawTest, RunDestroyedWithTasksInFlightShutsDownCleanly) {
  auto options = BaseOptions(LoadPolicy::kSpeculativeLoading);
  options.num_workers = 4;
  options.chunk_rows = 100;  // 40 chunks
  auto manager = MakeManager(options);
  ScanRaw op("t", manager->catalog(), manager->storage(), manager->arbiter(),
             nullptr, options);
  ASSERT_TRUE(op.ExecuteQuery(SumAllQuery()).ok());  // discovers the layout
  for (int round = 0; round < 20; ++round) {
    auto run = op.StartQuery({0, 2, 5});
    ASSERT_TRUE(run.ok());
    auto first = (*run)->Next();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first->has_value());
    run->reset();
  }
  auto result = op.ExecuteQuery(SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  op.WaitForWrites();
}

// num_workers caps a query's concurrently running tasks on the shared pool.
class WorkerCapTest : public ScanRawTest,
                      public testing::WithParamInterface<size_t> {};

TEST_P(WorkerCapTest, BusyWorkersNeverExceedTheCap) {
  auto options = BaseOptions(LoadPolicy::kExternalTables);
  options.num_workers = GetParam();
  options.cache_capacity_chunks = 0;  // every query converts every chunk
  auto manager = MakeManager(options);
  ScanRaw op("t", manager->catalog(), manager->storage(), manager->arbiter(),
             nullptr, options);
  for (int q = 0; q < 3; ++q) {  // the discovery scan, then re-scans
    auto run = op.StartQuery({});
    ASSERT_TRUE(run.ok());
    ScanRaw::QueryRun* query = run->get();
    std::atomic<bool> done{false};
    std::atomic<size_t> peak{0};
    std::thread sampler([&] {
      while (!done.load()) {
        const size_t busy = query->Resources().busy_workers;
        if (busy > peak.load()) peak = busy;
      }
    });
    QueryExecutor executor(SumAllQuery());
    Status status;
    while (true) {
      auto next = query->Next();
      if (!next.ok()) status = next.status();
      if (!next.ok() || !next->has_value()) break;
      status = executor.Consume(***next);
      if (!status.ok()) break;
    }
    query->Finish();
    done = true;
    sampler.join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(executor.Finish().total_sum, info_.total_sum);
    EXPECT_LE(peak.load(), GetParam());
    EXPECT_EQ(query->Resources().busy_workers, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, WorkerCapTest, testing::Values(1, 2, 4));

TEST(DatagenTest, GeneratedFileMatchesSpec) {
  const std::string path = testing::TempDir() + "/datagen.csv";
  CsvSpec spec;
  spec.num_rows = 100;
  spec.num_columns = 3;
  spec.seed = 7;
  auto info = GenerateCsvFile(path, spec);
  ASSERT_TRUE(info.ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // 100 lines.
  size_t lines = 0;
  for (char c : *contents) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 100u);
  EXPECT_EQ(info->file_bytes, contents->size());
  // Ground truth sums match a manual re-parse.
  uint64_t sum = 0;
  uint64_t field = 0;
  for (char c : *contents) {
    if (c == ',' || c == '\n') {
      sum += field;
      field = 0;
    } else {
      field = field * 10 + static_cast<uint64_t>(c - '0');
    }
  }
  EXPECT_EQ(sum, info->total_sum);
  uint64_t col_total = 0;
  for (uint64_t s : info->column_sums) col_total += s;
  EXPECT_EQ(col_total, info->total_sum);
}

TEST(DatagenTest, DeterministicForSeed) {
  const std::string p1 = testing::TempDir() + "/datagen_a.csv";
  const std::string p2 = testing::TempDir() + "/datagen_b.csv";
  CsvSpec spec;
  spec.num_rows = 50;
  spec.num_columns = 4;
  spec.seed = 99;
  ASSERT_TRUE(GenerateCsvFile(p1, spec).ok());
  ASSERT_TRUE(GenerateCsvFile(p2, spec).ok());
  EXPECT_EQ(*ReadFileToString(p1), *ReadFileToString(p2));
}

TEST(DatagenTest, InvalidSpecsRejected) {
  CsvSpec spec;
  spec.num_rows = 10;
  spec.num_columns = 0;
  EXPECT_TRUE(GenerateCsvFile(testing::TempDir() + "/x.csv", spec)
                  .status()
                  .IsInvalidArgument());
  spec.num_columns = 2;
  spec.max_value = 0;
  EXPECT_TRUE(GenerateCsvFile(testing::TempDir() + "/x.csv", spec)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace scanraw
