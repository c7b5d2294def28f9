// ScanRawManager: the database-integration layer of §3.3. ScanRaw operators
// are keyed by raw file and persist across queries ("SCANRAW is not attached
// to a query but rather to the raw file"); when a file is fully loaded the
// operator is retired and queries run through the plain heap scan. The
// manager owns the substrate every operator shares: catalog, storage
// manager, disk arbiter and the bandwidth limiter emulating one disk.
#ifndef SCANRAW_SCANRAW_SCANRAW_MANAGER_H_
#define SCANRAW_SCANRAW_SCANRAW_MANAGER_H_

#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"

#include "db/catalog.h"
#include "db/heap_scan.h"
#include "db/recovery.h"
#include "db/storage_manager.h"
#include "exec/query.h"
#include "io/disk_arbiter.h"
#include "io/rate_limiter.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "scanraw/scan_raw.h"

namespace scanraw {

// Adapts HeapScan to the engine's pull interface. When `profiler` is set,
// each materialized chunk is recorded as a HEAP_SCAN span.
class HeapScanStream : public ChunkStream {
 public:
  HeapScanStream(const TableMetadata& table, const StorageManager* storage,
                 std::vector<size_t> columns,
                 std::optional<RangePredicate> filter = std::nullopt,
                 obs::SpanProfiler* profiler = nullptr);
  Result<std::optional<BinaryChunkPtr>> Next() override;

  HeapScan& scan() { return scan_; }

 private:
  HeapScan scan_;
  obs::SpanProfiler* profiler_;
};

class ScanRawManager {
 public:
  struct Config {
    // Database storage file.
    std::string db_path;
    // Shared disk bandwidth in bytes/second (0 = unlimited). Raw-file reads
    // and database I/O draw from the same budget, like the paper's single
    // RAID array.
    uint64_t disk_bandwidth = 0;
    // Reopen an existing database file instead of truncating (restart
    // recovery; pair with LoadCatalog).
    bool reuse_existing_db = false;
    // Stall watchdog over the shared heartbeat board: a pipeline stage that
    // is active but makes no progress for this long produces a structured
    // report and a flight-recorder dump. 0 disables the watchdog.
    int64_t watchdog_ms = 0;
    // Abort the process after reporting a stall (CI wants the core; a
    // resident server wants the report only).
    bool watchdog_abort = false;
    // Flight-recorder dump destination on stall. Empty = the
    // SCANRAW_FLIGHT_DUMP env var, then stderr.
    std::string watchdog_dump_path;
  };

  static Result<std::unique_ptr<ScanRawManager>> Create(const Config& config);

  // Registers a raw file as a queryable table. No data is read yet — zero
  // time-to-query.
  Status RegisterRawFile(const std::string& table, const std::string& path,
                         const Schema& schema, const ScanRawOptions& options);

  // Runs a query, creating the table's ScanRaw operator on first use and
  // retiring it once the raw file is fully loaded (§3.3).
  Result<QueryResult> Query(const std::string& table, const QuerySpec& spec);

  // EXPLAIN ANALYZE variant: fills `explain` (when non-null) with the span
  // profile, critical path, chunk provenance, and cache statistics. Works
  // for both the live-operator path and the retired heap-scan path.
  Result<QueryResult> Query(const std::string& table, const QuerySpec& spec,
                            obs::ExplainReport* explain);

  // The live operator for `table`, or nullptr if none exists (not yet
  // queried, or retired).
  ScanRaw* GetOperator(const std::string& table);

  // True when queries on `table` run purely from the database.
  bool IsRetired(const std::string& table);

  // Restart recovery: persist / restore catalog metadata (tables, chunk
  // layouts, loaded segments, statistics). SaveCatalog syncs storage first
  // and writes atomically, so the saved catalog never references unsynced
  // bytes. LoadCatalog tolerates a torn trailing catalog line and
  // reconciles every recorded segment against the storage file (see
  // db/recovery.h); what was dropped is available via last_recovery() and
  // the recovery.* telemetry counters. Register the same raw files with
  // AttachOptions after LoadCatalog to re-attach operators.
  //
  // Tables whose options set persist_positional_maps also get a posmap
  // sidecar (`<catalog>.posmap.<table>`): SaveCatalog writes the sidecars
  // before the catalog (data-before-metadata), and LoadCatalog stages valid
  // sidecars so the first query on each table starts with its positional
  // maps pre-populated (`posmap-disk` provenance in EXPLAIN). Torn, stale,
  // or dialect-mismatched sidecars are dropped — counted in
  // last_recovery().posmaps_dropped and recovery.posmap_dropped — and the
  // table simply re-tokenizes.
  Status SaveCatalog(const std::string& path) const;
  Status LoadCatalog(const std::string& path);

  // Report of the most recent LoadCatalog reconciliation (empty before).
  ReconcileReport last_recovery() const;

  // Like RegisterRawFile but for a table restored by LoadCatalog: only the
  // ScanRaw options are (re)attached; the catalog entry must already exist.
  Status AttachOptions(const std::string& table,
                       const ScanRawOptions& options);

  Catalog* catalog() { return &catalog_; }
  StorageManager* storage() { return storage_.get(); }
  DiskArbiter* arbiter() { return &arbiter_; }
  RateLimiter* limiter() { return limiter_.get(); }
  IoStats* io_stats() { return &io_stats_; }
  // The manager-wide telemetry sink. The arbiter and storage manager are
  // bound at Create; operators created by Query record here too unless the
  // registered ScanRawOptions carry their own sink.
  obs::Telemetry* telemetry() { return &telemetry_; }
  // The stall watchdog, or nullptr when Config::watchdog_ms was 0.
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  // Human-readable status page body: catalog tables with load state, cache
  // occupancy per live operator, and — when a query is running — its
  // per-stage span state. Served by the stats server's /statusz.
  std::string Statusz() const EXCLUDES(mu_);

 private:
  explicit ScanRawManager(const Config& config);

  Config config_;
  obs::Telemetry telemetry_;
  Catalog catalog_;
  std::unique_ptr<RateLimiter> limiter_;
  DiskArbiter arbiter_;
  IoStats io_stats_;
  std::unique_ptr<StorageManager> storage_;
  // The stall detector's ticker task; started at Create, stopped on destroy.
  // Declared after telemetry_ (it watches telemetry_'s heartbeat board).
  std::unique_ptr<obs::Watchdog> watchdog_;

  mutable Mutex mu_{LockRank::kScanRawManager, "ScanRawManager.mu"};
  std::map<std::string, ScanRawOptions> options_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ScanRaw>> operators_ GUARDED_BY(mu_);
  ReconcileReport last_recovery_ GUARDED_BY(mu_);
  // Catalog path of the last SaveCatalog/LoadCatalog — the base the posmap
  // sidecar paths derive from. Mutable: SaveCatalog (const) records it so
  // operators created later know where their sidecar lives.
  mutable std::string posmap_base_path_ GUARDED_BY(mu_);
  // Posmap sidecars staged by LoadCatalog, consumed (and dialect-checked)
  // when each table's operator is first created — options attach after the
  // catalog loads, so dialect validation cannot happen any earlier.
  std::map<std::string, PosmapSidecar> pending_posmaps_ GUARDED_BY(mu_);
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_SCANRAW_MANAGER_H_
