// Crash-recovery tests: a forked child runs the load protocol with an armed
// kill-point, _exit()s mid-protocol, and the parent restarts from whatever
// the crash left on disk — the recovered system must answer queries
// identically to an uncrashed run. Plus graceful-degradation tests for
// failed background writes (disk full) and reconciliation of catalogs that
// outran a truncated storage file.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "datagen/csv_generator.h"
#include "db/recovery.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/explain.h"
#include "scanraw/scan_raw.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr int kChildDoneExitCode = 0;
constexpr int kChildErrorExitCode = 3;

class RecoveryTest : public testing::Test {
 protected:
  static constexpr uint64_t kRows = 2000;
  static constexpr size_t kCols = 4;
  static constexpr uint64_t kChunkRows = 250;  // 8 chunks

  void SetUp() override {
    std::string name = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    const std::string base = testing::TempDir() + "/recovery_" + name;
    csv_path_ = base + ".csv";
    db_path_ = base + ".db";
    catalog_path_ = base + ".catalog";
    (void)RemoveFileIfExists(db_path_);
    (void)RemoveFileIfExists(catalog_path_);
    CsvSpec spec;
    spec.num_rows = kRows;
    spec.num_columns = kCols;
    spec.seed = 42;
    auto info = GenerateCsvFile(csv_path_, spec);
    ASSERT_TRUE(info.ok());
    info_ = *info;
    schema_ = CsvSchema(spec);
  }

  ScanRawOptions FullLoadOptions() const {
    ScanRawOptions options;
    options.policy = LoadPolicy::kFullLoad;
    options.num_workers = 2;
    options.chunk_rows = kChunkRows;
    options.cache_capacity_chunks = 4;
    return options;
  }

  static QuerySpec SumQuery(std::vector<size_t> cols) {
    QuerySpec spec;
    spec.sum_columns = std::move(cols);
    return spec;
  }

  QuerySpec SumAllQuery() const {
    std::vector<size_t> cols(kCols);
    for (size_t c = 0; c < kCols; ++c) cols[c] = c;
    return SumQuery(std::move(cols));
  }

  // Child workload, run under an installed fault injection. Phase A loads
  // columns {0,1} and saves the catalog; phase B loads the rest and saves
  // again. Named kill-points with hit counts past phase A's tally crash the
  // child mid-phase-B, i.e. with a valid phase-A catalog + storage on disk.
  // Never returns: _exit()s with kChildDoneExitCode (protocol completed),
  // kFaultKillExitCode (kill-point fired inside a library call), or
  // kChildErrorExitCode (unexpected failure).
  void ChildWorkload() const {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    if (!manager.ok()) ::_exit(kChildErrorExitCode);
    if (!(*manager)
             ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
             .ok()) {
      ::_exit(kChildErrorExitCode);
    }
    // Phase A: partial load + durable catalog.
    if (!(*manager)->Query("t", SumQuery({0, 1})).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->SaveCatalog(catalog_path_).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    // Phase B: load the remaining columns, save again.
    if (!(*manager)->Query("t", SumAllQuery()).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->SaveCatalog(catalog_path_).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    ::_exit(kChildDoneExitCode);
  }

  // Forks, runs ChildWorkload under `plan` in the child, and returns the
  // child's exit code.
  int RunCrashingChild(const FaultPlan& plan) const {
    const pid_t pid = fork();
    if (pid == 0) {
      // Install before creating the manager so the database writer goes
      // through the fault-injecting decorator.
      ScopedFaultInjection fault(plan);
      ChildWorkload();  // never returns
    }
    EXPECT_GT(pid, 0);
    int wstatus = 0;
    EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  // Restarts from whatever the crash left behind and checks that queries
  // return exactly the uncrashed ground truth.
  void RecoverAndVerify() const {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    const bool have_catalog =
        FileExists(catalog_path_) && FileExists(db_path_);
    config.reuse_existing_db = have_catalog;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    if (have_catalog) {
      ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
      ASSERT_TRUE((*manager)->AttachOptions("t", FullLoadOptions()).ok());
    } else {
      ASSERT_TRUE(
          (*manager)
              ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
              .ok());
    }

    auto all = (*manager)->Query("t", SumAllQuery());
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(all->total_sum, info_.total_sum);
    EXPECT_EQ(all->rows_scanned, kRows);
    auto one = (*manager)->Query("t", SumQuery({2}));
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->total_sum, info_.column_sums[2]);

    // Catalog invariants survived the crash.
    auto meta = (*manager)->catalog()->GetTable("t");
    ASSERT_TRUE(meta.ok());
    uint64_t total_rows = 0;
    for (const auto& c : meta->chunks) {
      EXPECT_LE(c.loaded_columns.size(), kCols);
      total_rows += c.num_rows;
    }
    EXPECT_EQ(total_rows, kRows);

    // A save/load cycle of the recovered state round-trips cleanly.
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_path_).ok());
    ScanRawManager::Config again_config;
    again_config.db_path = db_path_;
    again_config.reuse_existing_db = true;
    auto again = ScanRawManager::Create(again_config);
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE((*again)->LoadCatalog(catalog_path_).ok());
    EXPECT_TRUE((*again)->last_recovery().clean());
    ASSERT_TRUE((*again)->AttachOptions("t", FullLoadOptions()).ok());
    auto replay = (*again)->Query("t", SumAllQuery());
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->total_sum, all->total_sum);
    EXPECT_EQ(replay->rows_scanned, all->rows_scanned);
    EXPECT_EQ(replay->rows_matched, all->rows_matched);
  }

  std::string csv_path_;
  std::string db_path_;
  std::string catalog_path_;
  CsvFileInfo info_;
  Schema schema_;
};

TEST_F(RecoveryTest, CleanRestartRoundTrip) {
  {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)
            ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
            .ok());
    auto result = (*manager)->Query("t", SumAllQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum);
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_path_).ok());
  }
  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  EXPECT_TRUE((*manager)->last_recovery().clean());
  ASSERT_TRUE((*manager)->AttachOptions("t", FullLoadOptions()).ok());
  // Fully loaded: served straight from the database.
  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_TRUE((*manager)->IsRetired("t"));
}

// One parameter per step of the extract -> WriteSegment -> Sync ->
// RecordSegment -> SaveToFile protocol. The hit count aims the crash either
// at phase A (before any catalog exists: recovery = fresh start) or at
// phase B (a valid phase-A catalog + storage exist: recovery must keep all
// phase-A work and re-extract the rest).
struct KillPointCase {
  const char* point;
  uint64_t hit;
};

void PrintTo(const KillPointCase& c, std::ostream* os) {
  *os << c.point << "@" << c.hit;
}

class KillPointMatrixTest
    : public RecoveryTest,
      public testing::WithParamInterface<KillPointCase> {};

TEST_P(KillPointMatrixTest, RestartRecoversGroundTruth) {
  FaultPlan plan;
  plan.kill_point = GetParam().point;
  plan.kill_point_hit = GetParam().hit;
  const int code = RunCrashingChild(plan);
  ASSERT_EQ(code, kFaultKillExitCode)
      << "kill-point " << GetParam().point << " hit " << GetParam().hit
      << " was not reached (exit " << code << ")";
  RecoverAndVerify();
}

// Phase A performs, in order: 8 chunk extractions, 8 segment appends, 8
// catalog records, then one catalog save. The hit counts below place the
// crash at the first phase-A occurrence (hit 1 / save hit 1) or the first
// phase-B occurrence (hit 9 / save hit 2).
INSTANTIATE_TEST_SUITE_P(
    Protocol, KillPointMatrixTest,
    testing::Values(
        KillPointCase{"scanraw.extract.converted", 1},
        KillPointCase{"scanraw.extract.converted", 9},
        KillPointCase{"storage.write_segment.before_append", 1},
        KillPointCase{"storage.write_segment.before_append", 9},
        KillPointCase{"storage.write_segment.after_append", 9},
        KillPointCase{"scanraw.write.before_record", 9},
        KillPointCase{"scanraw.write.after_record", 9},
        KillPointCase{"manager.save_catalog.before", 1},
        KillPointCase{"manager.save_catalog.before", 2},
        KillPointCase{"manager.save_catalog.after", 2},
        KillPointCase{"atomic_write.after_append", 1},
        KillPointCase{"atomic_write.after_append", 2},
        KillPointCase{"atomic_write.after_sync", 2},
        KillPointCase{"atomic_write.after_rename", 2}),
    [](const testing::TestParamInfo<KillPointCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_hit" + std::to_string(info.param.hit);
    });

// Crash in the middle of a storage append: the file ends in a torn,
// checksum-less prefix of a segment the catalog never recorded. Recovery
// must keep every phase-A segment and ignore the torn tail.
TEST_F(RecoveryTest, TornStorageAppendCrashRecovers) {
  FaultPlan plan;
  plan.path_substring = ".db";
  plan.kill_append_at = 10;  // phase A appends 8 segments; crash in phase B
  plan.torn_fraction = 0.5;
  const int code = RunCrashingChild(plan);
  ASSERT_EQ(code, kFaultKillExitCode);
  ASSERT_TRUE(FileExists(catalog_path_));  // phase A saved it
  RecoverAndVerify();
}

// A catalog that references bytes beyond the storage EOF (storage truncated
// out from under it) must drop those segments on load, not serve
// Corruption at query time; the affected chunks revert to raw-side
// processing.
TEST_F(RecoveryTest, ReconcileDropsSegmentsPastStorageEof) {
  {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)
            ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
            .ok());
    ASSERT_TRUE((*manager)->Query("t", SumAllQuery()).ok());
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_path_).ok());
  }
  // Chop the storage file in half behind the catalog's back.
  auto size = GetFileSize(db_path_);
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(truncate(db_path_.c_str(), static_cast<off_t>(*size / 2)), 0);

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  const ReconcileReport report = (*manager)->last_recovery();
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.segments_dropped, 0u);
  EXPECT_GT(report.chunks_reverted, 0u);
  EXPECT_EQ(
      (*manager)->telemetry()->metrics().GetCounter(
          "recovery.segments_dropped")->value(),
      report.segments_dropped);
  // Dropped chunks re-extract from the raw file; results stay exact.
  ASSERT_TRUE((*manager)->AttachOptions("t", FullLoadOptions()).ok());
  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_EQ(result->rows_scanned, kRows);
}

// A page stored in the older format (FNV-1a checksum, old magic) is never
// served: LoadCatalog's verification drops exactly that segment, its chunk
// reverts to raw, and the next query answers from the raw file.
TEST_F(RecoveryTest, OlderPageFormatSegmentDroppedAndReloadedFromRaw) {
  PageRef page;
  {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)
            ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
            .ok());
    ASSERT_TRUE((*manager)->Query("t", SumAllQuery()).ok());
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_path_).ok());
    auto meta = (*manager)->catalog()->GetTable("t");
    ASSERT_TRUE(meta.ok());
    ASSERT_EQ(meta->chunks.size(), kRows / kChunkRows);
    ASSERT_FALSE(meta->chunks[3].segments.empty());
    page = meta->chunks[3].segments.front().page;
  }
  // Rewrite that page's header as the older format wrote it: the old
  // magic, and the body's FNV-1a in the checksum slot.
  auto db = ReadFileToString(db_path_);
  ASSERT_TRUE(db.ok());
  constexpr size_t kHeaderBytes = 4 + 8 + 8;
  ASSERT_LE(page.offset + page.size, db->size());
  const uint32_t old_magic = 0x53435243;
  const uint64_t fnv = Fnv1aHash(std::string_view(*db).substr(
      page.offset + kHeaderBytes, page.size - kHeaderBytes));
  std::memcpy(db->data() + page.offset, &old_magic, sizeof(old_magic));
  std::memcpy(db->data() + page.offset + 12, &fnv, sizeof(fnv));
  ASSERT_TRUE(WriteStringToFile(db_path_, *db).ok());

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  const ReconcileReport report = (*manager)->last_recovery();
  EXPECT_EQ(report.segments_dropped, 1u);
  EXPECT_EQ(report.chunks_reverted, 1u);
  ASSERT_EQ(report.details.size(), 1u);
  EXPECT_NE(report.details[0].find("page format"), std::string::npos)
      << report.details[0];
  EXPECT_EQ((*manager)
                ->telemetry()
                ->metrics()
                .GetCounter("recovery.segments_dropped")
                ->value(),
            1u);
  auto meta = (*manager)->catalog()->GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->chunks[3].loaded_columns.empty());
  EXPECT_EQ(meta->chunks[2].loaded_columns.size(), kCols);

  ASSERT_TRUE((*manager)->AttachOptions("t", FullLoadOptions()).ok());
  obs::ExplainReport explain;
  auto result = (*manager)->Query("t", SumAllQuery(), &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_EQ(result->rows_scanned, kRows);
  EXPECT_EQ(explain.chunks_from_raw, 1u);
}

// Disk-full during speculative loading: the query must keep running from
// the raw side, count the failures, and answer exactly.
TEST_F(RecoveryTest, SpeculativeEnospcFallsBackToRawSide) {
  FaultPlan plan;
  plan.path_substring = ".db";
  plan.append_error_rate = 1.0;
  plan.error_errno = 28;  // ENOSPC
  ScopedFaultInjection fault(plan);

  ScanRawManager::Config config;
  config.db_path = db_path_;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions options = FullLoadOptions();
  options.policy = LoadPolicy::kSpeculativeLoading;
  ASSERT_TRUE(
      (*manager)->RegisterRawFile("t", csv_path_, schema_, options).ok());

  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);

  ScanRaw* op = (*manager)->GetOperator("t");
  ASSERT_NE(op, nullptr);
  op->WaitForWrites();
  EXPECT_GT(op->profile().write_failures.load(), 0u);
  EXPECT_GT(
      (*manager)->telemetry()->metrics().GetCounter("scanraw.write_failures")
          ->value(),
      0u);
  EXPECT_GT(fault.injector()->counters().append_errors.load(), 0u);
  // Nothing was recorded as loaded from the failing writes.
  EXPECT_DOUBLE_EQ(
      (*manager)->catalog()->GetTable("t")->LoadedFraction(), 0.0);

  // The operator survives: further queries still answer exactly.
  auto again = (*manager)->Query("t", SumAllQuery());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->total_sum, info_.total_sum);
}

// ------------------------------------------------- posmap sidecar recovery
//
// The persisted positional-map index (`<catalog>.posmap.<table>`): a warm
// restart must answer a previously-mapped query with zero TOKENIZE bytes
// and byte-identical results, while a torn, stale, or dialect-mismatched
// sidecar degrades to full re-tokenization — never wrong results.
class PosmapRecoveryTest : public RecoveryTest {
 protected:
  // External-tables policy: chunks are never loaded into the database, so
  // every query re-reads the raw file and the positional maps are the only
  // thing standing between a warm restart and a full re-tokenize.
  ScanRawOptions PosmapOptions() const {
    ScanRawOptions options;
    options.policy = LoadPolicy::kExternalTables;
    options.num_workers = 2;
    options.chunk_rows = kChunkRows;
    options.cache_capacity_chunks = 0;  // no binary cache: always raw
    options.cache_positional_maps = true;
    options.positional_map_cache_chunks = 16;
    options.persist_positional_maps = true;
    return options;
  }

  std::string SidecarPath() const {
    return PosmapSidecarPath(catalog_path_, "t");
  }

  // Cold scan + catalog save; leaves a sidecar with all 8 chunk maps.
  void ColdScanAndSave() const {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(
        (*manager)
            ->RegisterRawFile("t", csv_path_, schema_, PosmapOptions())
            .ok());
    obs::ExplainReport cold;
    auto result = (*manager)->Query("t", SumAllQuery(), &cold);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->total_sum, info_.total_sum);
    ASSERT_GT(cold.bytes_tokenized, 0u);  // the cold scan really tokenized
    ASSERT_TRUE((*manager)->SaveCatalog(catalog_path_).ok());
    ASSERT_TRUE(FileExists(SidecarPath()));
  }

  // Restarts against whatever is on disk and runs the all-columns query
  // with EXPLAIN. `attach` defaults to the same options the sidecar was
  // saved under.
  void RestartAndQuery(const ScanRawOptions& attach,
                       obs::ExplainReport* explain) const {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    config.reuse_existing_db = true;
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
    ASSERT_TRUE((*manager)->AttachOptions("t", attach).ok());
    auto result = (*manager)->Query("t", SumAllQuery(), explain);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, info_.total_sum);
    EXPECT_EQ(result->rows_scanned, kRows);
    last_posmaps_dropped_ = (*manager)->last_recovery().posmaps_dropped;
  }

  // Child for the fork-based crash tests: cold scan, save, scan again,
  // save again. Kill-points aimed at the second save crash the child with
  // a complete first-save catalog + sidecar already durable.
  void PosmapChildWorkload() const {
    ScanRawManager::Config config;
    config.db_path = db_path_;
    auto manager = ScanRawManager::Create(config);
    if (!manager.ok()) ::_exit(kChildErrorExitCode);
    if (!(*manager)
             ->RegisterRawFile("t", csv_path_, schema_, PosmapOptions())
             .ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->Query("t", SumAllQuery()).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->SaveCatalog(catalog_path_).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->Query("t", SumQuery({0, 1})).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    if (!(*manager)->SaveCatalog(catalog_path_).ok()) {
      ::_exit(kChildErrorExitCode);
    }
    ::_exit(kChildDoneExitCode);
  }

  int RunCrashingPosmapChild(const FaultPlan& plan) const {
    const pid_t pid = fork();
    if (pid == 0) {
      ScopedFaultInjection fault(plan);
      PosmapChildWorkload();  // never returns
    }
    EXPECT_GT(pid, 0);
    int wstatus = 0;
    EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  mutable size_t last_posmaps_dropped_ = 0;
};

TEST_F(PosmapRecoveryTest, SidecarRoundTripSkipsTokenize) {
  ColdScanAndSave();

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  EXPECT_EQ((*manager)->last_recovery().posmaps_dropped, 0u);
  EXPECT_EQ((*manager)
                ->telemetry()
                ->metrics()
                .GetCounter("recovery.posmap_chunks_loaded")
                ->value(),
            8u);
  ASSERT_TRUE((*manager)->AttachOptions("t", PosmapOptions()).ok());

  obs::ExplainReport warm;
  auto result = (*manager)->Query("t", SumAllQuery(), &warm);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_EQ(result->rows_scanned, kRows);
  // The warm restart tokenized nothing: all 8 chunks were answered from
  // the persisted maps, reported as posmap-disk provenance.
  EXPECT_EQ(warm.bytes_tokenized, 0u);
  EXPECT_EQ(warm.posmap_hits, 8u);
  EXPECT_EQ(warm.posmap_misses, 0u);
  EXPECT_EQ(warm.posmap_disk_hits, 8u);
  EXPECT_EQ((*manager)
                ->telemetry()
                ->metrics()
                .GetCounter("scanraw.posmap.loaded_from_disk")
                ->value(),
            8u);
  // A narrower follow-up query also rides the persisted maps.
  obs::ExplainReport narrow;
  auto one = (*manager)->Query("t", SumQuery({2}), &narrow);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->total_sum, info_.column_sums[2]);
  EXPECT_EQ(narrow.bytes_tokenized, 0u);
}

// The acceptance scenario: the child crashes mid-way through its second
// catalog save (the seed-deterministic fault injector fires inside
// AtomicWriteFile or around the sidecar write); the parent restarts from
// the durable first save and must answer the previously-mapped query with
// zero TOKENIZE bytes and byte-identical sums.
struct PosmapKillCase {
  const char* point;
  uint64_t hit;
};

void PrintTo(const PosmapKillCase& c, std::ostream* os) {
  *os << c.point << "@" << c.hit;
}

class PosmapKillMatrixTest
    : public PosmapRecoveryTest,
      public testing::WithParamInterface<PosmapKillCase> {};

TEST_P(PosmapKillMatrixTest, WarmRestartAfterCrashSkipsTokenize) {
  FaultPlan plan;
  plan.kill_point = GetParam().point;
  plan.kill_point_hit = GetParam().hit;
  const int code = RunCrashingPosmapChild(plan);
  ASSERT_EQ(code, kFaultKillExitCode)
      << "kill-point " << GetParam().point << " hit " << GetParam().hit
      << " was not reached (exit " << code << ")";
  ASSERT_TRUE(FileExists(catalog_path_));  // first save was durable
  ASSERT_TRUE(FileExists(SidecarPath()));

  obs::ExplainReport warm;
  RestartAndQuery(PosmapOptions(), &warm);
  EXPECT_EQ(last_posmaps_dropped_, 0u);
  EXPECT_EQ(warm.bytes_tokenized, 0u);
  EXPECT_EQ(warm.posmap_disk_hits, 8u);
}

// Sidecar AtomicWriteFile ordinals in the child: save 1 writes sidecar
// then catalog (atomic writes 1, 2), save 2 writes sidecar then catalog
// (atomic writes 3, 4). Killing around write 3 leaves the first save's
// sidecar + catalog pair; killing after write 3's rename leaves the second
// (byte-identical) sidecar with the first catalog. Both must warm-restart.
INSTANTIATE_TEST_SUITE_P(
    SecondSave, PosmapKillMatrixTest,
    testing::Values(PosmapKillCase{"scanraw.posmap.before_save", 2},
                    PosmapKillCase{"scanraw.posmap.after_save", 2},
                    PosmapKillCase{"atomic_write.after_append", 3},
                    PosmapKillCase{"atomic_write.after_sync", 3},
                    PosmapKillCase{"atomic_write.after_rename", 3},
                    PosmapKillCase{"manager.save_catalog.before", 2}),
    [](const testing::TestParamInfo<PosmapKillCase>& info) {
      std::string name = info.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_hit" + std::to_string(info.param.hit);
    });

// A torn sidecar (truncated mid-entry) fails its checksum and is dropped
// at LoadCatalog; the scan degrades to a full re-tokenize with exact
// results.
TEST_F(PosmapRecoveryTest, TornSidecarDegradesToRetokenize) {
  ColdScanAndSave();
  auto size = GetFileSize(SidecarPath());
  ASSERT_TRUE(size.ok());
  ASSERT_EQ(truncate(SidecarPath().c_str(), static_cast<off_t>(*size / 2)),
            0);

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  EXPECT_EQ((*manager)->last_recovery().posmaps_dropped, 1u);
  EXPECT_EQ((*manager)
                ->telemetry()
                ->metrics()
                .GetCounter("recovery.posmap_dropped")
                ->value(),
            1u);
  ASSERT_TRUE((*manager)->AttachOptions("t", PosmapOptions()).ok());
  obs::ExplainReport explain;
  auto result = (*manager)->Query("t", SumAllQuery(), &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_GT(explain.bytes_tokenized, 0u);  // re-tokenized, not served stale
  EXPECT_EQ(explain.posmap_disk_hits, 0u);
}

// A sidecar of the older format (v1, FNV-1a sums) fails the magic check and
// is dropped at LoadCatalog like any stale sidecar; the scan tokenizes
// every chunk again.
TEST_F(PosmapRecoveryTest, OlderFormatSidecarDropped) {
  ColdScanAndSave();
  auto bytes = ReadFileToString(SidecarPath());
  ASSERT_TRUE(bytes.ok());
  const std::string v2 = "scanraw-posmap v2\n";
  ASSERT_EQ(bytes->compare(0, v2.size(), v2), 0);
  bytes->replace(0, v2.size(), "scanraw-posmap v1\n");
  ASSERT_TRUE(WriteStringToFile(SidecarPath(), *bytes).ok());

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  EXPECT_EQ((*manager)->last_recovery().posmaps_dropped, 1u);
  EXPECT_EQ((*manager)
                ->telemetry()
                ->metrics()
                .GetCounter("recovery.posmap_dropped")
                ->value(),
            1u);
  ASSERT_TRUE((*manager)->AttachOptions("t", PosmapOptions()).ok());
  obs::ExplainReport explain;
  auto result = (*manager)->Query("t", SumAllQuery(), &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_GT(explain.bytes_tokenized, 0u);
  EXPECT_EQ(explain.posmap_disk_hits, 0u);
  EXPECT_EQ(explain.posmap_misses, kRows / kChunkRows);
}

// A sidecar saved under one tokenize dialect must not serve a restart that
// attaches different dialect options (--quoted-csv toggled between runs):
// the maps are dropped at operator creation and the scan re-tokenizes.
TEST_F(PosmapRecoveryTest, DialectMismatchedSidecarDropped) {
  ColdScanAndSave();  // saved with quoted_fields = false

  ScanRawOptions quoted = PosmapOptions();
  quoted.quoted_fields = true;
  obs::ExplainReport explain;
  RestartAndQuery(quoted, &explain);
  EXPECT_EQ(last_posmaps_dropped_, 1u);
  EXPECT_GT(explain.bytes_tokenized, 0u);
  EXPECT_EQ(explain.posmap_disk_hits, 0u);
}

// Checksums prove a sidecar is the one that was written, not that its maps
// fit the file: a map whose span points past its chunk (here re-encoded
// with valid checksums) is skipped at load, so PARSE never reads it. Only
// that chunk re-tokenizes; the other seven still ride the sidecar.
TEST_F(PosmapRecoveryTest, OutOfRangeSpanEntrySkipped) {
  ColdScanAndSave();
  auto bytes = ReadFileToString(SidecarPath());
  ASSERT_TRUE(bytes.ok());
  PosmapSidecarHeader header;
  auto entries = DecodePosmapSidecar(*bytes, &header);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 8u);
  bool corrupted = false;
  for (PosmapSidecarEntry& entry : *entries) {
    if (entry.chunk_index != 0) continue;
    auto map = std::make_shared<PositionalMap>(*entry.map);
    map->Set(5, 0, 4000000000u);  // row 5's first field start
    entry.map = std::move(map);
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  ASSERT_TRUE(
      WriteStringToFile(SidecarPath(), EncodePosmapSidecar(header, *entries))
          .ok());

  obs::ExplainReport warm;
  RestartAndQuery(PosmapOptions(), &warm);
  EXPECT_EQ(last_posmaps_dropped_, 0u);  // the other entries are kept
  EXPECT_EQ(warm.posmap_disk_hits, 7u);
  EXPECT_EQ(warm.posmap_misses, 1u);
  EXPECT_GT(warm.bytes_tokenized, 0u);
  EXPECT_LT(warm.bytes_tokenized, info_.file_bytes / 4);
}

// A sidecar whose recorded raw-file stat no longer matches (the CSV was
// rewritten, even with identical bytes) is stale and must be dropped: the
// offsets could silently mis-tokenize a changed file.
TEST_F(PosmapRecoveryTest, StaleSidecarDropped) {
  ColdScanAndSave();
  // Rewrite the raw file with identical content; mtime changes.
  usleep(20 * 1000);
  CsvSpec spec;
  spec.num_rows = kRows;
  spec.num_columns = kCols;
  spec.seed = 42;
  auto info = GenerateCsvFile(csv_path_, spec);
  ASSERT_TRUE(info.ok());

  ScanRawManager::Config config;
  config.db_path = db_path_;
  config.reuse_existing_db = true;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->LoadCatalog(catalog_path_).ok());
  EXPECT_EQ((*manager)->last_recovery().posmaps_dropped, 1u);
  ASSERT_TRUE((*manager)->AttachOptions("t", PosmapOptions()).ok());
  obs::ExplainReport explain;
  auto result = (*manager)->Query("t", SumAllQuery(), &explain);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_sum, info_.total_sum);
  EXPECT_GT(explain.bytes_tokenized, 0u);
  EXPECT_EQ(explain.posmap_disk_hits, 0u);
}

// Under synchronous-loading policies a failed write is part of the query
// and must surface as an error rather than degrade silently.
TEST_F(RecoveryTest, FullLoadSurfacesWriteError) {
  FaultPlan plan;
  plan.path_substring = ".db";
  plan.append_error_rate = 1.0;
  plan.error_errno = 28;  // ENOSPC
  ScopedFaultInjection fault(plan);

  ScanRawManager::Config config;
  config.db_path = db_path_;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(
      (*manager)
          ->RegisterRawFile("t", csv_path_, schema_, FullLoadOptions())
          .ok());
  auto result = (*manager)->Query("t", SumAllQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace scanraw
