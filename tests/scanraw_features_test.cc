// Tests for the extension features around the core operator: shared-scan
// multi-query execution (§7 future work), the positional map cache (§2),
// catalog persistence / restart recovery, and write-failure isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "datagen/csv_generator.h"
#include "genomics/sam.h"
#include "io/file.h"
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
  return testing::TempDir() + "/feat_" + test + "_" + name;
}

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
    spec.seed = 5;
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
  options.chunk_rows = 500;          // 8 chunks at 4000 rows
  options.cache_capacity_chunks = 4;
  return options;
}

// ------------------------------------------------- multi-query shared scan

TEST(MultiQueryTest, SharedScanMatchesIndividualQueries) {
  auto f = Fixture::Make("mq", BaseOptions());
  ScanRaw* op = nullptr;
  {
    // Force the operator into existence via the manager.
    QuerySpec warm;
    warm.sum_columns = {0};
    ASSERT_TRUE(f.manager->Query("t", warm).ok());
    op = f.manager->GetOperator("t");
    ASSERT_NE(op, nullptr);
  }
  QuerySpec q1;
  q1.sum_columns = {0, 1};
  QuerySpec q2;
  q2.sum_columns = {2};
  q2.predicate.range = RangePredicate{3, 0, 1 << 30};
  QuerySpec q3;
  q3.group_by_column = 4;

  auto batch = op->ExecuteQueries({q1, q2, q3});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);

  auto single1 = op->ExecuteQuery(q1);
  auto single2 = op->ExecuteQuery(q2);
  auto single3 = op->ExecuteQuery(q3);
  ASSERT_TRUE(single1.ok() && single2.ok() && single3.ok());
  EXPECT_EQ((*batch)[0].total_sum, single1->total_sum);
  EXPECT_EQ((*batch)[0].rows_matched, single1->rows_matched);
  EXPECT_EQ((*batch)[1].total_sum, single2->total_sum);
  EXPECT_EQ((*batch)[1].rows_matched, single2->rows_matched);
  EXPECT_EQ((*batch)[2].groups.size(), single3->groups.size());
  EXPECT_EQ((*batch)[0].total_sum, f.info.column_sums[0] + f.info.column_sums[1]);
}

TEST(MultiQueryTest, SingleSharedPassOverRawFile) {
  auto f = Fixture::Make("mq_pass", BaseOptions());
  QuerySpec q1;
  q1.sum_columns = {0};
  QuerySpec q2;
  q2.sum_columns = {1};
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, BaseOptions());
  auto batch = op.ExecuteQueries({q1, q2});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Both queries answered with exactly one pass: 8 raw chunk reads.
  EXPECT_EQ(op.profile().chunks_from_raw.load(), 8u);
  EXPECT_EQ((*batch)[0].total_sum, f.info.column_sums[0]);
  EXPECT_EQ((*batch)[1].total_sum, f.info.column_sums[1]);
}

TEST(MultiQueryTest, EmptyBatch) {
  auto f = Fixture::Make("mq_empty", BaseOptions());
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, BaseOptions());
  auto batch = op.ExecuteQueries({});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

// ------------------------------------------------------ positional map cache

TEST(PositionalMapCacheTest, ReusedAcrossQueries) {
  auto options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;  // force raw re-scans
  options.cache_positional_maps = true;
  auto f = Fixture::Make("pmc", options);
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, options);

  QuerySpec query;
  for (size_t c = 0; c < 8; ++c) query.sum_columns.push_back(c);
  auto r1 = op.ExecuteQuery(query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(op.positional_maps().size(), 8u);
  const int64_t tokenize_chunks_q1 = op.profile().tokenize_time.intervals();
  EXPECT_EQ(tokenize_chunks_q1, 8);

  auto r2 = op.ExecuteQuery(query);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->total_sum, f.info.total_sum);
  // Second query reused every cached map: no new TOKENIZE work at all.
  EXPECT_EQ(op.profile().tokenize_time.intervals(), tokenize_chunks_q1);
}

TEST(PositionalMapCacheTest, PartialMapsExtended) {
  auto options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;
  options.cache_positional_maps = true;
  auto f = Fixture::Make("pmc_ext", options);
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, options);

  // Query on a prefix of the columns builds partial maps...
  QuerySpec narrow;
  narrow.sum_columns = {0, 1};
  ASSERT_TRUE(op.ExecuteQuery(narrow).ok());
  // ...which a wider query then extends (and the result is still right).
  QuerySpec wide;
  for (size_t c = 0; c < 8; ++c) wide.sum_columns.push_back(c);
  auto r = op.ExecuteQuery(wide);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->total_sum, f.info.total_sum);
  // And a narrow query afterwards reuses the widened maps.
  auto r2 = op.ExecuteQuery(narrow);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->total_sum, f.info.column_sums[0] + f.info.column_sums[1]);
}

// The cache's byte bound counts the slot arrays the maps really hold. Maps
// are built in recycled arrays: a narrower query after a wider one draws the
// wider one's arrays, which the pass uses only up to twice the map's size.
TEST(PositionalMapCacheTest, ByteTotalCountsSlotCapacity) {
  auto options = BaseOptions();
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;
  options.cache_positional_maps = true;
  options.positional_map_cache_chunks = 2;  // of 8: most maps are evicted
  auto f = Fixture::Make("pmc_bytes", options, 4000, 16);
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, options);
  const PosmapDialect dialect = TokenizeDialectFor(f.schema, options);

  // 17, 13 and 3 slots per row: the 13-slot maps fit in the 17-slot arrays,
  // the 3-slot maps do not.
  QuerySpec wide;
  QuerySpec middle;
  for (size_t c = 0; c < 16; ++c) wide.sum_columns.push_back(c);
  for (size_t c = 0; c < 12; ++c) middle.sum_columns.push_back(c);
  QuerySpec narrow;
  narrow.sum_columns = {0, 1};
  for (int round = 0; round < 2; ++round) {
    for (const QuerySpec* query : {&wide, &middle, &narrow}) {
      SCOPED_TRACE(testing::Message() << "round " << round << ", "
                                      << query->sum_columns.size()
                                      << " columns");
      auto result = op.ExecuteQuery(*query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      size_t held = 0;
      for (const auto& [index, map] : op.positional_maps().Snapshot(dialect)) {
        const std::vector<uint32_t>& slots = map->raw_offsets();
        held += slots.capacity() * sizeof(uint32_t);
        EXPECT_LE(slots.capacity(), 2 * slots.size()) << "chunk " << index;
      }
      EXPECT_GT(held, 0u);
      EXPECT_EQ(op.positional_maps().MemoryBytes(), held);
    }
  }
}

TEST(PositionalMapCacheTest, CapacityBounded) {
  const PosmapDialect dialect;
  PositionalMapCache cache(2);
  auto map = std::make_shared<PositionalMap>(4, 3);
  cache.Insert(1, map, dialect);
  cache.Insert(2, map, dialect);
  cache.Insert(3, map, dialect);  // evicts chunk 1 (FIFO)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(1, dialect), nullptr);
  EXPECT_NE(cache.Lookup(3, dialect), nullptr);
  EXPECT_GT(cache.MemoryBytes(), 0u);
}

TEST(PositionalMapCacheTest, NarrowerMapNeverReplacesWider) {
  const PosmapDialect dialect;
  PositionalMapCache cache(4);
  cache.Insert(1, std::make_shared<PositionalMap>(4, 6), dialect);
  cache.Insert(1, std::make_shared<PositionalMap>(4, 2), dialect);
  EXPECT_EQ(cache.Lookup(1, dialect)->fields_per_row(), 6u);
  cache.Insert(1, std::make_shared<PositionalMap>(4, 8), dialect);
  EXPECT_EQ(cache.Lookup(1, dialect)->fields_per_row(), 8u);
}

// ------------------------------------------------- persistence and restart

TEST(RestartTest, CatalogAndStorageSurviveRestart) {
  const std::string csv = TempPath("restart.csv");
  const std::string db = TempPath("restart.db");
  const std::string catalog_file = TempPath("restart.catalog");
  CsvSpec spec;
  spec.num_rows = 4000;
  spec.num_columns = 8;
  auto info = GenerateCsvFile(csv, spec);
  ASSERT_TRUE(info.ok());
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kFullLoad;

  QuerySpec query;
  for (size_t c = 0; c < 8; ++c) query.sum_columns.push_back(c);

  // Session 1: load everything, persist the catalog.
  {
    ScanRawManager::Config config;
    config.db_path = db;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)->RegisterRawFile("t", csv, CsvSchema(spec), options).ok());
    auto result = (*manager)->Query("t", query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->total_sum, info->total_sum);
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_file).ok());
  }

  // Session 2: reopen the database and catalog; DELETE the raw file to
  // prove queries run purely from recovered storage.
  ASSERT_TRUE(RemoveFileIfExists(csv).ok());
  {
    ScanRawManager::Config config;
    config.db_path = db;
    config.reuse_existing_db = true;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->LoadCatalog(catalog_file).ok());
    ASSERT_TRUE((*manager)->AttachOptions("t", options).ok());
    EXPECT_TRUE((*manager)->IsRetired("t"));  // fully loaded, no operator
    auto result = (*manager)->Query("t", query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info->total_sum);
  }
}

TEST(RestartTest, PartiallyLoadedTableResumesLoading) {
  const std::string csv = TempPath("resume.csv");
  const std::string db = TempPath("resume.db");
  const std::string catalog_file = TempPath("resume.catalog");
  CsvSpec spec;
  spec.num_rows = 4000;
  spec.num_columns = 8;
  auto info = GenerateCsvFile(csv, spec);
  ASSERT_TRUE(info.ok());
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kInvisibleLoading;
  options.invisible_chunks_per_query = 3;

  QuerySpec query;
  for (size_t c = 0; c < 8; ++c) query.sum_columns.push_back(c);

  double fraction_before = 0;
  {
    ScanRawManager::Config config;
    config.db_path = db;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)->RegisterRawFile("t", csv, CsvSchema(spec), options).ok());
    ASSERT_TRUE((*manager)->Query("t", query).ok());
    fraction_before = (*manager)->catalog()->GetTable("t")->LoadedFraction();
    EXPECT_GT(fraction_before, 0.0);
    EXPECT_LT(fraction_before, 1.0);
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_file).ok());
  }
  {
    ScanRawManager::Config config;
    config.db_path = db;
    config.reuse_existing_db = true;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->LoadCatalog(catalog_file).ok());
    ASSERT_TRUE((*manager)->AttachOptions("t", options).ok());
    auto result = (*manager)->Query("t", query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info->total_sum);
    ScanRaw* op = (*manager)->GetOperator("t");
    ASSERT_NE(op, nullptr);
    op->WaitForWrites();
    // Loading resumed where it left off.
    EXPECT_GT((*manager)->catalog()->GetTable("t")->LoadedFraction(),
              fraction_before);
  }
}

TEST(RestartTest, LoadCatalogRejectedWithLiveOperators) {
  auto f = Fixture::Make("live", BaseOptions());
  QuerySpec query;
  query.sum_columns = {0};
  ASSERT_TRUE(f.manager->Query("t", query).ok());
  ASSERT_NE(f.manager->GetOperator("t"), nullptr);
  EXPECT_TRUE(
      f.manager->LoadCatalog(TempPath("nope.catalog")).IsInvalidArgument());
}

// -------------------------------------------------- write failure isolation

TEST(WriteFailureTest, QueryStillSucceedsWhenLoadingFails) {
  const std::string csv = TempPath("wf.csv");
  CsvSpec spec;
  spec.num_rows = 2000;
  spec.num_columns = 4;
  auto info = GenerateCsvFile(csv, spec);
  ASSERT_TRUE(info.ok());

  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", csv, CsvSchema(spec), 500).ok());
  // Inject write failures by backing the database with /dev/full, where
  // every write fails with ENOSPC.
  if (!FileExists("/dev/full")) GTEST_SKIP() << "/dev/full not available";
  auto failing = StorageManager::OpenExisting("/dev/full");
  ASSERT_TRUE(failing.ok());
  DiskArbiter arbiter;
  ScanRawOptions options = BaseOptions();
  options.policy = LoadPolicy::kSpeculativeLoading;
  ScanRaw op("t", &catalog, failing->get(), &arbiter, nullptr, options);
  QuerySpec query;
  for (size_t c = 0; c < 4; ++c) query.sum_columns.push_back(c);
  // The query itself must succeed even though every speculative write fails.
  auto result = op.ExecuteQuery(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info->total_sum);
  op.WaitForWrites();
  // Speculative writes degrade gracefully: the failure is counted and the
  // query-fatal write_status stays clean (only full/invisible loading treat
  // a failed write as a query error).
  EXPECT_TRUE(op.write_status().ok());
  EXPECT_GT(op.profile().write_failures.load(), 0u);
  EXPECT_DOUBLE_EQ(catalog.GetTable("t")->LoadedFraction(), 0.0);
  // A follow-up query is still correct.
  auto again = op.ExecuteQuery(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->total_sum, info->total_sum);
}

// -------------------------------------------------------- resource monitor

TEST(ResourceMonitorTest, SnapshotsLivePipeline) {
  auto options = BaseOptions();
  options.output_buffer_capacity = 1;  // engine-bound: we do not consume
  auto f = Fixture::Make("resmon", options);
  ScanRaw op("t", f.manager->catalog(), f.manager->storage(),
             f.manager->arbiter(), nullptr, options);
  auto run = op.StartQuery({0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_TRUE(run.ok());
  // Without consumption, the pipeline stuffs up from the back.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto snapshot = (*run)->Resources();
  EXPECT_EQ(snapshot.num_workers, 2u);
  EXPECT_EQ(snapshot.output_buffer_capacity, 1u);
  EXPECT_GE(snapshot.output_buffer_size, 1u);
  EXPECT_NE(snapshot.advice, ResourceSnapshot::Advice::kIoBound);
  // Drain; at the end the pipeline reports idle/IO-bound.
  while (true) {
    auto next = (*run)->Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
  }
  (*run)->Finish();
  auto done = (*run)->Resources();
  EXPECT_EQ(done.busy_workers, 0u);
  EXPECT_EQ(done.output_buffer_size, 0u);
}

// ------------------------------------------------------- SAM multi-query

TEST(MultiQueryTest, SamSharedScanWithDifferentPredicates) {
  const std::string sam = TempPath("mq.sam");
  SamGenSpec spec;
  spec.num_reads = 2000;
  spec.seed = 77;
  auto info = GenerateSamFile(sam, spec);
  ASSERT_TRUE(info.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("reads", sam, SamSchema(), 256).ok());
  auto storage = StorageManager::Create(TempPath("mq_sam.db"));
  ASSERT_TRUE(storage.ok());
  DiskArbiter arbiter;
  ScanRaw op("reads", &catalog, storage->get(), &arbiter, nullptr,
             BaseOptions());
  QuerySpec variant = CigarDistributionQuery(spec.pattern);
  QuerySpec mapq_histogram;
  mapq_histogram.group_by_column = kSamMapq;
  auto batch = op.ExecuteQueries({variant, mapq_histogram});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ((*batch)[0].rows_matched, info->matching_reads);
  EXPECT_EQ((*batch)[1].rows_matched, spec.num_reads);
  EXPECT_LE((*batch)[1].groups.size(), 61u);  // MAPQ in [0, 60]
}

// ------------------------------------------------------- manager behavior

TEST(ManagerTest, MultipleTablesShareOneDatabase) {
  CsvSpec spec_a;
  spec_a.num_rows = 1000;
  spec_a.num_columns = 3;
  spec_a.seed = 1;
  CsvSpec spec_b;
  spec_b.num_rows = 800;
  spec_b.num_columns = 5;
  spec_b.seed = 2;
  const std::string csv_a = TempPath("a.csv");
  const std::string csv_b = TempPath("b.csv");
  auto info_a = GenerateCsvFile(csv_a, spec_a);
  auto info_b = GenerateCsvFile(csv_b, spec_b);
  ASSERT_TRUE(info_a.ok() && info_b.ok());

  ScanRawManager::Config config;
  config.db_path = TempPath("shared.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options;
  options.policy = LoadPolicy::kFullLoad;
  options.chunk_rows = 200;
  options.num_workers = 2;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("a", csv_a, CsvSchema(spec_a), options).ok());
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("b", csv_b, CsvSchema(spec_b), options).ok());

  // Interleave queries; both tables' segments go into one database file.
  QuerySpec qa;
  for (size_t c = 0; c < 3; ++c) qa.sum_columns.push_back(c);
  QuerySpec qb;
  for (size_t c = 0; c < 5; ++c) qb.sum_columns.push_back(c);
  for (int round = 0; round < 3; ++round) {
    auto ra = (*manager)->Query("a", qa);
    auto rb = (*manager)->Query("b", qb);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->total_sum, info_a->total_sum);
    EXPECT_EQ(rb->total_sum, info_b->total_sum);
  }
  EXPECT_TRUE((*manager)->catalog()->GetTable("a")->FullyLoaded());
  EXPECT_TRUE((*manager)->catalog()->GetTable("b")->FullyLoaded());
  // Both operators retired independently.
  EXPECT_TRUE((*manager)->IsRetired("a"));
  EXPECT_TRUE((*manager)->IsRetired("b"));
  // Unknown tables are rejected cleanly.
  EXPECT_TRUE((*manager)->Query("nope", qa).status().IsNotFound());
}

TEST(ManagerTest, ConcurrentQueriesOnDifferentTables) {
  CsvSpec spec;
  spec.num_rows = 2000;
  spec.num_columns = 4;
  const std::string csv_a = TempPath("ca.csv");
  const std::string csv_b = TempPath("cb.csv");
  spec.seed = 10;
  auto info_a = GenerateCsvFile(csv_a, spec);
  spec.seed = 20;
  auto info_b = GenerateCsvFile(csv_b, spec);
  ASSERT_TRUE(info_a.ok() && info_b.ok());

  ScanRawManager::Config config;
  config.db_path = TempPath("conc.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options = BaseOptions();
  options.chunk_rows = 250;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("a", csv_a, CsvSchema(spec), options).ok());
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("b", csv_b, CsvSchema(spec), options).ok());

  QuerySpec query;
  for (size_t c = 0; c < 4; ++c) query.sum_columns.push_back(c);
  std::atomic<int> failures{0};
  auto worker = [&](const std::string& table, uint64_t want) {
    for (int q = 0; q < 3; ++q) {
      auto result = (*manager)->Query(table, query);
      if (!result.ok() || result->total_sum != want) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  std::thread ta(worker, "a", info_a->total_sum);
  std::thread tb(worker, "b", info_b->total_sum);
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace scanraw
