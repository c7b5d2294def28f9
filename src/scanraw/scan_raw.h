// ScanRaw: the paper's physical operator for in-situ processing over raw
// files (§3). A super-scalar pipeline — READ -> TOKENIZE* -> PARSE* ->
// binary chunk cache -> execution engine — with WRITE speculatively storing
// converted chunks in the database whenever the disk would otherwise idle
// (§4). The operator is attached to a raw file, not to a query: its cache
// and catalog state persist across queries, and it morphs into a heap scan
// as the file gets loaded.
#ifndef SCANRAW_SCANRAW_SCAN_RAW_H_
#define SCANRAW_SCANRAW_SCAN_RAW_H_

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "db/catalog.h"
#include "db/storage_manager.h"
#include "exec/query.h"
#include "io/disk_arbiter.h"
#include "io/file.h"
#include "io/rate_limiter.h"
#include "db/sketches.h"
#include "obs/explain.h"
#include "obs/progress.h"
#include "obs/span_profiler.h"
#include "obs/telemetry.h"
#include "pipeline/bounded_queue.h"
#include "scanraw/chunk_buffer_pool.h"
#include "scanraw/chunk_cache.h"
#include "scanraw/options.h"
#include "scanraw/positional_map_cache.h"

namespace scanraw {

// The pipeline's chunk counters ("special function calls to harness detailed
// profiling data", §5), declared once. The operator's PipelineProfile holds
// one set for its lifetime and every QueryRun one for its own query;
// PipelineProfile::Add bumps both together with the registry mirror, so
// EXPLAIN reports a query's own counts even while other queries run.
struct ChunkCounts {
  std::atomic<uint64_t> chunks_from_cache{0};
  std::atomic<uint64_t> chunks_from_db{0};
  std::atomic<uint64_t> chunks_from_raw{0};
  std::atomic<uint64_t> chunks_written{0};
  std::atomic<uint64_t> chunks_skipped{0};  // min/max pruning (§3.3)
  std::atomic<uint64_t> read_blocked_events{0};
  std::atomic<uint64_t> speculative_triggers{0};
  // Failed background WRITEs degraded to raw-side processing (the chunk
  // stays unloaded and will be re-extracted or retried), and speculative
  // triggers suppressed while backing off after such a failure.
  std::atomic<uint64_t> write_failures{0};
  std::atomic<uint64_t> write_backoffs{0};
  // Written-segment bytes attributed (proportionally) to columns the
  // active query required — the "useful" share of the write budget.
  std::atomic<uint64_t> useful_bytes_written{0};
  // Throughput feed for the live-rate rings (rows/s, bytes/s on /metrics):
  // rows delivered to the engine and raw bytes converted by PARSE.
  std::atomic<uint64_t> rows_delivered{0};
  std::atomic<uint64_t> bytes_converted{0};
  // Speculative parallel TOKENIZE (format/parallel_chunker): byte ranges
  // fanned out across record scans and chunk tokenizes, boundary
  // misspeculations caught at stitch points, and bytes re-scanned by the
  // repair path.
  std::atomic<uint64_t> tokenize_ranges{0};
  std::atomic<uint64_t> tokenize_misspeculations{0};
  std::atomic<uint64_t> tokenize_repair_bytes{0};
  // Chunk bytes put through TOKENIZE (full, extend, or parallel path). A
  // warm restart with a persisted posmap answers mapped queries with this
  // staying 0 — the restart_warm bench gates on exactly that.
  std::atomic<uint64_t> bytes_tokenized{0};
  // Chunks whose positional map came from a persisted sidecar
  // (`posmap-disk` provenance).
  std::atomic<uint64_t> posmap_disk_chunks{0};

  using Field = std::atomic<uint64_t> ChunkCounts::*;
  struct Named {
    Field field;
    const char* metric;  // registry counter mirroring the operator's copy
  };
  static constexpr Named kNamed[] = {
      {&ChunkCounts::chunks_from_cache, "scanraw.chunks_from_cache"},
      {&ChunkCounts::chunks_from_db, "scanraw.chunks_from_db"},
      {&ChunkCounts::chunks_from_raw, "scanraw.chunks_from_raw"},
      {&ChunkCounts::chunks_written, "scanraw.chunks_written"},
      {&ChunkCounts::chunks_skipped, "scanraw.chunks_skipped"},
      {&ChunkCounts::read_blocked_events, "scanraw.read_blocked_events"},
      {&ChunkCounts::speculative_triggers, "scanraw.speculative_triggers"},
      {&ChunkCounts::write_failures, "scanraw.write_failures"},
      {&ChunkCounts::write_backoffs, "scanraw.write_backoffs"},
      {&ChunkCounts::useful_bytes_written, "scanraw.useful_bytes_written"},
      {&ChunkCounts::rows_delivered, "scanraw.rows_delivered"},
      {&ChunkCounts::bytes_converted, "scanraw.bytes_converted"},
      {&ChunkCounts::tokenize_ranges, "scanraw.tokenize.ranges"},
      {&ChunkCounts::tokenize_misspeculations,
       "scanraw.tokenize.misspeculations"},
      {&ChunkCounts::tokenize_repair_bytes, "scanraw.tokenize.repair_bytes"},
      {&ChunkCounts::bytes_tokenized, "scanraw.tokenize.bytes"},
      {&ChunkCounts::posmap_disk_chunks, "scanraw.posmap.disk_chunks"},
  };
};

// The operator's lifetime profile: its ChunkCounts plus one Stopwatch per
// stage. Stopwatch intervals count processed chunks, so
// TotalSeconds()/intervals() is the per-chunk stage time of Figure 5.
//
// When bound to a metrics registry (Bind), every update is mirrored into
// named registry metrics — per-stage latency histograms with percentiles
// plus the counters above — so the atomics here stay the cheap in-process
// view while the registry is the export path.
struct PipelineProfile : ChunkCounts {
  Stopwatch read_time;
  Stopwatch tokenize_time;
  Stopwatch parse_time;
  Stopwatch write_time;

  // Registry mirrors; null until Bind. Stage histograms record nanoseconds
  // per chunk, indexed READ, TOKENIZE, PARSE, WRITE. Operators sharing one
  // registry share these objects, so the registry view aggregates across
  // operators.
  obs::Histogram* stage_latency[4] = {};
  obs::Counter* mirrors[std::size(kNamed)] = {};
  // Query steps run on the shared worker pool, and this operator's runner
  // tasks executing or queued there (delta-updated gauges).
  obs::Counter* pool_tasks_metric = nullptr;
  obs::Gauge* pool_busy_metric = nullptr;
  obs::Gauge* pool_queue_metric = nullptr;

  // Resolves the registry mirrors. Call before the pipeline runs.
  void Bind(obs::MetricsRegistry* registry);

  // Adds `n` to `field` in this profile, in its registry mirror, and in
  // `run` — the counts of the query the event belongs to — when non-null.
  void Add(Field field, uint64_t n, ChunkCounts* run) {
    if (n == 0) return;
    if (run != nullptr) (run->*field).fetch_add(n, std::memory_order_relaxed);
    (this->*field).fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < std::size(kNamed); ++i) {
      if (kNamed[i].field == field && mirrors[i] != nullptr) mirrors[i]->Add(n);
    }
  }

  // Zeroes the stopwatches, the counters, and — when bound — the
  // registry-backed mirrors (histograms included).
  //
  // Contract: reset is single-threaded. Each store is individually atomic,
  // but the fields are cleared one by one, so a concurrently running query
  // would observe (and write into) a half-cleared profile. Quiesce the
  // operator first: finish every QueryRun and drain WaitForWrites().
  void Reset();
};

// Live pipeline utilization, relayed to the database resource manager
// (§3.3: "the scheduler is in the best position to monitor resource
// utilization since it manages the allocation of worker threads ... These
// data are relayed to the database resource manager as requests for
// additional resources").
struct ResourceSnapshot {
  size_t text_buffer_size = 0;
  size_t text_buffer_capacity = 0;
  size_t position_buffer_size = 0;
  size_t position_buffer_capacity = 0;
  size_t output_buffer_size = 0;
  size_t output_buffer_capacity = 0;
  size_t busy_workers = 0;
  size_t num_workers = 0;
  size_t cache_size = 0;
  size_t cache_capacity = 0;

  enum class Advice {
    // Every worker busy and the text buffer full: "additional CPUs are
    // needed in order to cope with the I/O throughput".
    kNeedMoreCpu,
    // Workers starved and buffers empty: the disk is the bottleneck.
    kIoBound,
    // The engine is not draining the output buffer.
    kEngineBound,
    kBalanced,
  };
  Advice advice = Advice::kBalanced;

  // Classifies the buffer/worker fields into the §3.3 advice states
  // (exposed separately so the classification is unit-testable).
  Advice ComputeAdvice() const;
  void UpdateAdvice() { advice = ComputeAdvice(); }
};

// Stable lowercase-hyphen name for an advice state ("need-more-cpu", ...).
std::string_view AdviceName(ResourceSnapshot::Advice advice);

// The tokenize dialect a ScanRaw with `options` uses for `schema` — the
// single source of truth shared by the TOKENIZE stage, the posmap cache,
// and the sidecar load/save paths, so a persisted map can never be matched
// against rules it was not built under.
PosmapDialect TokenizeDialectFor(const Schema& schema,
                                 const ScanRawOptions& options);

class ScanRaw {
 public:
  // The table must already exist in `catalog` (see ScanRawManager, which
  // creates both). `arbiter` serializes READ/WRITE disk access; pass
  // nullptr to disable arbitration. `raw_limiter` throttles raw-file reads
  // to emulate a fixed-bandwidth device (the StorageManager can carry its
  // own limiter for the database side).
  ScanRaw(std::string table, Catalog* catalog, StorageManager* storage,
          DiskArbiter* arbiter, RateLimiter* raw_limiter,
          ScanRawOptions options);
  ~ScanRaw();
  ScanRaw(const ScanRaw&) = delete;
  ScanRaw& operator=(const ScanRaw&) = delete;

  // A single query's pass over the file. Delivers every chunk exactly once,
  // cached chunks first, then database-resident chunks, then raw chunks
  // (§3.2.1). Obtain via StartQuery; drain with Next() until nullopt; the
  // destructor waits for the run's tasks (abandoning early is safe).
  class QueryRun : public ChunkStream {
   public:
    ~QueryRun() override;
    QueryRun(const QueryRun&) = delete;
    QueryRun& operator=(const QueryRun&) = delete;

    Result<std::optional<BinaryChunkPtr>> Next() override;

    // Waits for this query's running tasks, never for the whole pool
    // (idempotent; the destructor calls it). Under the synchronous-loading
    // policies (kFullLoad, kInvisibleLoading) a clean run also waits for
    // the operator's queued writes, before its final progress report.
    // Background loading keeps draining on the operator's WRITE thread so
    // the safeguard flush overlaps with the next query (§4).
    void Finish();

    // First error raised by any pipeline step (OK if none).
    Status status() const;

    // Point-in-time utilization of the live pipeline (§3.3 resource
    // management).
    ResourceSnapshot Resources() const;

   private:
    friend class ScanRaw;
    struct Impl;
    explicit QueryRun(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  // Starts the pipeline for one query needing `required_columns` (empty =
  // all schema columns). An optional range filter enables statistics-based
  // chunk skipping for database-resident chunks.
  Result<std::unique_ptr<QueryRun>> StartQuery(
      std::vector<size_t> required_columns,
      std::optional<RangePredicate> skip_filter = std::nullopt);

  // Convenience: run a full query through the execution engine. For the
  // synchronous-loading policies (kFullLoad, kInvisibleLoading) this waits
  // for queued writes to drain before returning — loading is part of the
  // query there. Speculative/buffered writes keep draining in the
  // background; the next query's READ contends with them via the arbiter,
  // exactly the §4 admission rule.
  Result<QueryResult> ExecuteQuery(const QuerySpec& spec);

  // EXPLAIN ANALYZE variant: same execution, but when `explain` is non-null
  // it is filled with the query's span profile (per-stage busy time,
  // critical path), chunk provenance and pruning, speculative-write payoff,
  // and cache / positional-map hit rates. Every count comes from the
  // query's own run, so concurrent queries on one operator each report
  // exactly their own chunks. Only the DISK_WAIT and THROTTLE_WAIT spans are
  // deltas of the arbiter's and limiter's cumulative wait totals: those
  // devices are shared, so a concurrent query's waits can show up there.
  // Background writes are credited to the query that is active when they
  // land, and the report waits for the write queue to drain first.
  Result<QueryResult> ExecuteQuery(const QuerySpec& spec,
                                   obs::ExplainReport* explain);

  // Multi-query processing over raw files (the paper's §7 future work):
  // executes several queries in ONE shared pass. The pipeline converts the
  // union of the queries' required columns once; every delivered chunk is
  // fanned out to all query executors. Results are returned in input
  // order. Loading policies apply to the single shared scan.
  Result<std::vector<QueryResult>> ExecuteQueries(
      const std::vector<QuerySpec>& specs);

  // Persists the positional-map cache to the sidecar at `path` through
  // AtomicWriteFile, recording the raw file's exact stat and the operator's
  // tokenize dialect in the header. No-op (returning OK) when persistence
  // is not enabled, the cache is off, or there is nothing to save — an
  // existing sidecar is never clobbered with an empty one. Called after
  // cold scans (when posmap_sidecar_path is set) and by the manager before
  // each catalog save, so the sidecar (data) is durable before the catalog
  // (metadata) that a restart trusts.
  Status SavePositionalMaps(const std::string& path);

  // Pre-populates the cache from a loaded sidecar with `posmap-disk`
  // provenance. Refuses (returning 0) when the sidecar's dialect does not
  // match this operator's tokenize dialect — a map built under different
  // delimiter/quote rules must be rebuilt, not reused. Returns the number
  // of maps inserted.
  size_t PrepopulatePositionalMaps(
      const PosmapDialect& dialect,
      std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
          entries);

  // Blocks until the WRITE queue is empty and no write is in flight.
  void WaitForWrites() EXCLUDES(write_mu_);
  // First error raised by the WRITE thread, sticky (OK if none).
  Status write_status() const EXCLUDES(write_mu_);

  const std::string& table() const { return table_; }
  const ScanRawOptions& options() const { return options_; }
  PipelineProfile& profile() { return profile_; }
  // Telemetry sink wired at construction (null when options.telemetry was
  // unset).
  obs::Telemetry* telemetry() const { return options_.telemetry; }
  ChunkCache& cache() { return cache_; }
  PositionalMapCache& positional_maps() { return positional_maps_; }
  // Distinct/sample sketches collected during conversion; only populated
  // when options.collect_sketches is set.
  const TableSketches& sketches() const { return sketches_; }

  // /statusz section for this operator: load progress, cache occupancy,
  // and — when a query is running — its per-stage span state from the
  // active SpanProfiler. One line per fact, two-space indented.
  std::string StatuszSection() const EXCLUDES(active_mu_);

  // Loading progress, from the catalog.
  double LoadedFraction() const;
  // True once every chunk/column is in the database — the operator can be
  // retired (§3.3: "Whenever it loaded the entire raw file").
  bool FullyLoaded() const;

 private:
  struct WriteRequest {
    uint64_t chunk_index = 0;
    BinaryChunkPtr chunk;
  };

  // Queues `chunk` for loading unless it is already loaded, pending, or the
  // operator is shutting down. Returns true if the write was queued.
  bool EnqueueWrite(uint64_t chunk_index, BinaryChunkPtr chunk);

  // Speculative trigger: called when READ blocks on a full text buffer.
  // Writes the oldest unloaded cached chunk, one at a time (§4). `run` is
  // the blocked query's counts.
  void MaybeTriggerSpeculativeWrite(ChunkCounts* run);

  // End-of-scan safeguard (§4): queue every unloaded cached chunk.
  void SafeguardFlush();

  // LogQueryEvent into options_.query_log under this operator's table,
  // policy and advisor use.
  void LogQuery(const QuerySpec& spec, const Status& status,
                double wall_seconds, const obs::ExplainReport* report,
                const QueryResult* result, uint64_t bytes_read);

  // Stand-alone WRITE thread body (runs for the operator's lifetime).
  void WriteLoop();

  // Folds a freshly converted chunk into the sketches exactly once.
  void MaybeUpdateSketches(const BinaryChunk& chunk);

  const std::string table_;
  Catalog* const catalog_;
  StorageManager* const storage_;
  DiskArbiter* const arbiter_;
  RateLimiter* const raw_limiter_;
  const ScanRawOptions options_;

  ChunkCache cache_;
  PositionalMapCache positional_maps_;
  // Buffer recycler shared by READ/PARSE and the chunk release paths.
  const std::shared_ptr<ChunkBufferPool> buffer_pool_;
  TableSketches sketches_;
  // Chunks already folded into the sketches, so re-scans do not bias the
  // reservoir sample (the KMV sketch is naturally idempotent).
  Mutex sketched_mu_{LockRank::kScanSketched, "ScanRaw.sketched_mu"};
  std::set<uint64_t> sketched_chunks_ GUARDED_BY(sketched_mu_);
  PipelineProfile profile_;
  // Advice-state occurrence counters, indexed by ResourceSnapshot::Advice
  // (null when telemetry is unset); bumped by the per-query sampler.
  obs::Counter* advice_counters_[4] = {nullptr, nullptr, nullptr, nullptr};
  // Watchdog heartbeat board from the telemetry sink (null when telemetry
  // is unset); stages beat through this on every chunk boundary.
  obs::StageHeartbeats* heartbeats_ = nullptr;

  // Chunks with a write queued or in flight, to keep loading exactly-once.
  Mutex pending_mu_{LockRank::kScanPending, "ScanRaw.pending_mu"};
  std::set<uint64_t> pending_writes_ GUARDED_BY(pending_mu_);

  // The query the WRITE thread credits its stage records and counts to: the
  // most recently started run, registered for its lifetime and cleared
  // before it is destroyed (null when no query is running).
  mutable Mutex active_mu_{LockRank::kScanActive, "ScanRaw.active_mu"};
  QueryRun::Impl* active_run_ GUARDED_BY(active_mu_) = nullptr;

  // WRITE thread state.
  BoundedQueue<WriteRequest> write_queue_;
  std::thread write_thread_;
  mutable Mutex write_mu_{LockRank::kScanWrite, "ScanRaw.write_mu"};
  CondVar write_cv_;
  size_t writes_outstanding_ GUARDED_BY(write_mu_) = 0;  // queued + in flight
  Status write_status_ GUARDED_BY(write_mu_);
  // Speculative triggers are suppressed until this deadline after a failed
  // background write (graceful degradation; 0 = no backoff active).
  std::atomic<int64_t> write_backoff_until_nanos_{0};
};

// Appends one query's event to `log` (no-op when null). A query that ran
// (`report` and `result` set) logs its rows, stage times, chunk provenance
// and payoff from its EXPLAIN report; a failed one (both null) logs only its
// spec, policy, wall time and error, so it still advances the history's
// recency clock. A failed append is logged, never returned: the log is
// advisory. Live operators and the manager's retired heap scan both log
// through it.
void LogQueryEvent(obs::QueryLog* log, std::string table, std::string policy,
                   bool advisor_used, const QuerySpec& spec,
                   const Status& status, double wall_seconds,
                   const obs::ExplainReport* report, const QueryResult* result,
                   uint64_t bytes_read);

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_SCAN_RAW_H_
