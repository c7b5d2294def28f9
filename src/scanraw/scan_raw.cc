#include "scanraw/scan_raw.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>

#include "common/clock.h"
#include "io/fault_injection.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/load_advisor.h"
#include "obs/query_log.h"
#include "db/statistics.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/json_tokenizer.h"
#include "format/structural_index.h"
#include "format/tokenizer.h"
#include "pipeline/thread_pool.h"
#include "pipeline/ticker.h"
#include "scanraw/raw_reader.h"

namespace scanraw {

std::string_view LoadPolicyName(LoadPolicy policy) {
  switch (policy) {
    case LoadPolicy::kExternalTables:
      return "external-tables";
    case LoadPolicy::kFullLoad:
      return "full-load";
    case LoadPolicy::kSpeculativeLoading:
      return "speculative-loading";
    case LoadPolicy::kInvisibleLoading:
      return "invisible-loading";
    case LoadPolicy::kBufferedLoading:
      return "buffered-loading";
  }
  return "unknown";
}

std::string_view AdviceName(ResourceSnapshot::Advice advice) {
  switch (advice) {
    case ResourceSnapshot::Advice::kNeedMoreCpu:
      return "need-more-cpu";
    case ResourceSnapshot::Advice::kIoBound:
      return "io-bound";
    case ResourceSnapshot::Advice::kEngineBound:
      return "engine-bound";
    case ResourceSnapshot::Advice::kBalanced:
      return "balanced";
  }
  return "unknown";
}

ResourceSnapshot::Advice ResourceSnapshot::ComputeAdvice() const {
  if (num_workers > 0 && busy_workers == num_workers &&
      text_buffer_size >= text_buffer_capacity) {
    return Advice::kNeedMoreCpu;
  }
  if (output_buffer_size >= output_buffer_capacity) {
    return Advice::kEngineBound;
  }
  if (busy_workers == 0 && text_buffer_size == 0 &&
      position_buffer_size == 0) {
    return Advice::kIoBound;
  }
  return Advice::kBalanced;
}

namespace {

// What the stage record feeds for each pipeline stage, indexed by
// obs::QueryStage's READ, TOKENIZE, PARSE and WRITE.
struct StageSinks {
  Stopwatch PipelineProfile::*time;
  const char* latency_metric;
  obs::FlightEvent flight;
  obs::HeartbeatStage heartbeat;
};
constexpr StageSinks kStageSinks[] = {
    {&PipelineProfile::read_time, "scanraw.stage.read_nanos",
     obs::FlightEvent::kRead, obs::HeartbeatStage::kRead},
    {&PipelineProfile::tokenize_time, "scanraw.stage.tokenize_nanos",
     obs::FlightEvent::kTokenize, obs::HeartbeatStage::kTokenize},
    {&PipelineProfile::parse_time, "scanraw.stage.parse_nanos",
     obs::FlightEvent::kParse, obs::HeartbeatStage::kParse},
    {&PipelineProfile::write_time, "scanraw.stage.write_nanos",
     obs::FlightEvent::kWrite, obs::HeartbeatStage::kWrite},
};

// Byte bound of the positional-map cache, enforced alongside its chunk
// bound: a wide-schema table can reach it long before the chunk bound.
constexpr size_t kPositionalMapCacheBytes = 64u << 20;

// Graceful degradation: after a background WRITE fails (disk full, I/O
// error), new speculative triggers are suppressed for this long. The failed
// chunk stays unloaded, queries keep running from the raw side, and loading
// is retried once the backoff expires.
constexpr int64_t kWriteFailureBackoffNanos = 100'000'000;  // 100 ms

bool ChunkHasColumns(const BinaryChunk& chunk,
                     const std::vector<size_t>& columns) {
  for (size_t c : columns) {
    if (!chunk.HasColumn(c)) return false;
  }
  return true;
}

// Full and invisible loading store chunks as part of the query: a query
// under them ends only once its writes have drained, and a failed write is
// a query error.
bool LoadsSynchronously(LoadPolicy policy) {
  return policy == LoadPolicy::kFullLoad ||
         policy == LoadPolicy::kInvisibleLoading;
}

}  // namespace

void PipelineProfile::Bind(obs::MetricsRegistry* registry) {
  for (size_t i = 0; i < std::size(stage_latency); ++i) {
    stage_latency[i] = registry->GetHistogram(kStageSinks[i].latency_metric);
  }
  for (size_t i = 0; i < std::size(kNamed); ++i) {
    mirrors[i] = registry->GetCounter(kNamed[i].metric);
  }
  pool_tasks_metric = registry->GetCounter("scanraw.pool.tasks_submitted");
  pool_busy_metric = registry->GetGauge("scanraw.pool.busy_workers");
  pool_queue_metric = registry->GetGauge("scanraw.pool.queue_depth");
}

void PipelineProfile::Reset() {
  // Registry mirrors follow the same single-threaded-reset contract; the
  // histograms are shared objects, so this clears the aggregated view too.
  for (size_t i = 0; i < std::size(stage_latency); ++i) {
    (this->*kStageSinks[i].time).Reset();
    if (stage_latency[i] != nullptr) stage_latency[i]->Reset();
  }
  for (size_t i = 0; i < std::size(kNamed); ++i) {
    (this->*kNamed[i].field) = 0;
    if (mirrors[i] != nullptr) mirrors[i]->Reset();
  }
}

// ------------------------------------------------------------ QueryRun ----

// One query's pass over the file, run as tasks on the process-wide pool
// (§3.1-3.2). Cache hits are handed out by Next() on the caller's thread.
// Everything else is a step: READ of one database or raw chunk, TOKENIZE of
// one chunk, or PARSE of one chunk. At most `num_workers` runner tasks of
// this query claim steps, READ first, then TOKENIZE, then PARSE; with
// num_workers = 0 the caller claims them inside Next(), the paper's
// sequential configuration. A step is claimed only when the buffer it fills
// has room, so no task ever blocks on a full buffer. READ only reads; the
// raw chunk it fills holds one text-buffer slot from READ's claim until its
// PARSE returns, because PARSE reads the text. READ stops when the run holds
// text_buffer_capacity raw chunks (the §4 speculative-WRITE trigger), and
// the PARSE that frees a slot makes READ claimable again.
struct ScanRaw::QueryRun::Impl {
  struct Tokenized {
    std::shared_ptr<TextChunk> text;
    std::shared_ptr<const PositionalMap> map;
  };

  // A chunk crossing one stage boundary, as the stage record logs it.
  struct Crossing {
    bool from_db = false;  // a READ of a database chunk
    uint64_t chunk_index = 0;
    uint64_t bytes = 0;  // raw bytes read or delivered, or bytes stored
    uint64_t rows = 0;   // rows tokenized or parsed
    // TOKENIZE ran as byte ranges that recorded their own profiler spans.
    bool ranged = false;
  };

  // The stage record (§5's profiling hooks): the one call that logs a chunk
  // crossing a stage boundary, READ (discovery, database or raw), cache
  // hit, TOKENIZE, PARSE or WRITE. It reads the clock when constructed at
  // the start of the stage, and once more in Record(), which feeds every
  // sink of the boundary from that one interval: the query's SpanProfiler,
  // the stage's Stopwatch and latency histogram, one flight-recorder span,
  // the heartbeat board and the progress tracker. A cache hit feeds only
  // the span, the READ heartbeat and progress. A stage that
  // produced no chunk (an error, the discovery scan's EOF probe) never
  // calls Record() and leaves no trace but its heartbeat.
  class StageRecord {
   public:
    StageRecord(ScanRaw* op, obs::QueryStage stage)
        : op_(op),
          stage_(stage),
          start_nanos_(RealClock::Instance()->NowNanos()) {
      if (HoldsHeartbeat()) op_->heartbeats_->Enter(Sinks().heartbeat);
    }
    ~StageRecord() {
      if (HoldsHeartbeat()) op_->heartbeats_->Leave(Sinks().heartbeat);
    }
    StageRecord(const StageRecord&) = delete;
    StageRecord& operator=(const StageRecord&) = delete;

    // `run` is the query the chunk belongs to; for WRITE, the operator's
    // active run, or null when no query is running.
    void Record(Impl* run, const Crossing& c) {
      const int64_t dur = std::max<int64_t>(
          0, RealClock::Instance()->NowNanos() - start_nanos_);
      const bool cache_hit = stage_ == obs::QueryStage::kCacheHit;
      if (!cache_hit) {
        PipelineProfile& profile = op_->profile_;
        (profile.*Sinks().time).AddNanos(dur);
        obs::Histogram* latency =
            profile.stage_latency[static_cast<size_t>(stage_)];
        if (latency != nullptr) latency->Record(static_cast<uint64_t>(dur));
        const bool counts_rows = stage_ == obs::QueryStage::kTokenize ||
                                 stage_ == obs::QueryStage::kParse;
        obs::FlightRecorder::Global()->RecordSpan(
            c.from_db ? obs::FlightEvent::kReadDb : Sinks().flight,
            start_nanos_, dur, c.chunk_index, counts_rows ? c.rows : c.bytes);
      }
      if (!HoldsHeartbeat() && op_->heartbeats_ != nullptr) {
        op_->heartbeats_->Beat(obs::HeartbeatStage::kRead);
      }
      if (run == nullptr) return;
      if (!c.ranged) {
        run->profiler.RecordSpan(stage_, obs::CurrentThreadId(), start_nanos_,
                                 dur);
      }
      // Progress counts a chunk once it is ready for the engine: a cache
      // hit, a database READ or a PARSE.
      if (stage_ == obs::QueryStage::kWrite) {
        run->progress.CountLoaded();
      } else if (cache_hit || stage_ == obs::QueryStage::kParse ||
                 c.from_db) {
        run->progress.AddBytes(c.bytes);
        run->progress.CountChunk();
      }
    }

   private:
    // TOKENIZE, PARSE and WRITE are active on the heartbeat board while
    // they work. READ beats once per chunk: the run holds its whole phase
    // active (read_heartbeat), and cache hits beat for it.
    bool HoldsHeartbeat() const {
      return op_->heartbeats_ != nullptr &&
             stage_ != obs::QueryStage::kRead &&
             stage_ != obs::QueryStage::kCacheHit;
    }
    const StageSinks& Sinks() const {
      return kStageSinks[static_cast<size_t>(stage_)];
    }

    ScanRaw* const op_;
    const obs::QueryStage stage_;
    const int64_t start_nanos_;
  };

  Impl(ScanRaw* parent_op, std::vector<size_t> columns,
       std::optional<RangePredicate> filter, TableMetadata snapshot)
      : parent(parent_op),
        required_columns(std::move(columns)),
        skip_filter(std::move(filter)),
        meta(std::move(snapshot)),
        max_tasks(parent_op->options_.num_workers),
        text_capacity(
            std::max<size_t>(1, parent_op->options_.text_buffer_capacity)),
        out_capacity(
            std::max<size_t>(1, parent_op->options_.output_buffer_capacity)),
        json(parent_op->options_.raw_format == RawFormat::kJsonLines),
        topts(MakeTokenizeOptions()),
        map_dialect{topts.delimiter, topts.quoted, topts.quote},
        popts(MakeParseOptions()),
        invisible_budget(static_cast<int64_t>(
            parent_op->options_.invisible_chunks_per_query)) {}

  // Must match TokenizeDialectFor: the dialect tag under which maps are
  // cached, persisted, and validated.
  TokenizeOptions MakeTokenizeOptions() const {
    TokenizeOptions options;
    options.delimiter = meta.schema.delimiter();
    options.schema_fields = meta.schema.num_columns();
    // Selective tokenizing: stop the scan after the last needed attribute.
    // (JSON members are unordered, so its tokenizer always maps the full
    // schema and selective tokenizing does not apply.)
    size_t max_needed = 0;
    for (size_t c : required_columns) max_needed = std::max(max_needed, c + 1);
    options.max_fields = json ? 0 : max_needed;
    options.quoted = Dialect().quoted;
    return options;
  }

  ParseOptions MakeParseOptions() const {
    ParseOptions options;
    options.projected_columns = required_columns;
    options.recycler = parent->buffer_pool_.get();
    options.unescape_quotes = Dialect().quoted;
    return options;
  }

  // Splits the known layout into cache hits (handed out by Next()), then
  // database-resident chunks, then raw chunks (§3.2.1), and starts READ.
  void Start() {
    profiler.Begin();  // re-anchor: setup (catalog reads) is not query time
    {
      MutexLock lock(parent->active_mu_);
      parent->active_run_ = this;
    }
    if (meta.layout_known) {
      std::vector<const ChunkMetadata*> from_raw;
      uint64_t total_bytes = 0;
      for (const ChunkMetadata& cm : meta.chunks) {
        if (skip_filter.has_value() &&
            cm.CanSkipForRange(skip_filter->column, skip_filter->lo,
                               skip_filter->hi)) {
          Add(&ChunkCounts::chunks_skipped);  // min/max proved no match (§3.3)
          continue;
        }
        total_bytes += cm.raw_size;
        BinaryChunkPtr hit = parent->cache_.Lookup(cm.chunk_index);
        ++(hit != nullptr ? cache_hits : cache_misses);
        if (hit != nullptr && ChunkHasColumns(*hit, required_columns)) {
          cached.emplace_back(&cm, std::move(hit));
        } else if (cm.HasColumnsLoaded(required_columns)) {
          to_read.push_back(&cm);
        } else {
          from_raw.push_back(&cm);
        }
      }
      db_count = to_read.size();
      to_read.insert(to_read.end(), from_raw.begin(), from_raw.end());
      // Progress totals are known only once the layout is (discovery scans
      // report byte counts without a percentage). Skipped chunks are
      // excluded so the fraction reaches 1.0.
      progress.set_totals(total_bytes, cached.size() + to_read.size());
    }
    const bool read_work = !meta.layout_known || !to_read.empty();
    // READ stays "in" its stage while it waits for buffer room: a wedge there
    // is exactly what the watchdog must see as active-with-frozen-beats.
    if (read_work) {
      read_heartbeat.emplace(parent->heartbeats_, obs::HeartbeatStage::kRead);
    }
    bool spawn = false;
    {
      MutexLock lock(mu);
      read_done = !read_work;
      spawn = SpawnLocked();
    }
    SubmitRunner(spawn);
    // The first resource sample and progress report, then one per interval
    // on the process's ticker until JoinAll takes the final ones.
    const ScanRawOptions& options = parent->options_;
    if (options.telemetry != nullptr &&
        options.resource_sample_interval_ms > 0) {
      SampleResources();
      sample_tick = Ticker::Shared().Every(
          std::chrono::milliseconds(options.resource_sample_interval_ms),
          [this] { SampleResources(); });
    }
    if (options.progress_callback) {
      ReportProgress();
      progress_tick = Ticker::Shared().Every(
          std::chrono::milliseconds(options.progress_interval_ms),
          [this] { ReportProgress(); });
    }
  }

  void ReportProgress() {
    parent->options_.progress_callback(progress.Snapshot());
  }

  // Point-in-time utilization of the live pipeline (§3.3).
  ResourceSnapshot SnapshotResources() const {
    ResourceSnapshot snapshot;
    {
      MutexLock lock(mu);
      snapshot.text_buffer_size = held;
      snapshot.position_buffer_size = pos.size();
      snapshot.output_buffer_size = out.size();
      snapshot.busy_workers = runners - queued_runners;
    }
    snapshot.text_buffer_capacity = text_capacity;
    // Every chunk in the position buffer is a held text chunk.
    snapshot.position_buffer_capacity = text_capacity;
    snapshot.output_buffer_capacity = out_capacity;
    snapshot.num_workers = max_tasks;
    snapshot.cache_size = parent->cache_.size();
    snapshot.cache_capacity = parent->cache_.capacity();
    snapshot.UpdateAdvice();
    return snapshot;
  }

  // Appends one §3.3 resource-advice sample to the telemetry's resource
  // log and mirrors the advice into the registry counters. Takes only
  // in-memory locks below the I/O boundary, so it never blocks the ticker.
  void SampleResources() const {
    const ResourceSnapshot snap = SnapshotResources();
    obs::ResourceSample sample;
    sample.ts_nanos = RealClock::Instance()->NowNanos();
    sample.advice = std::string(AdviceName(snap.advice));
    sample.text_buffer_size = snap.text_buffer_size;
    sample.text_buffer_capacity = snap.text_buffer_capacity;
    sample.position_buffer_size = snap.position_buffer_size;
    sample.position_buffer_capacity = snap.position_buffer_capacity;
    sample.output_buffer_size = snap.output_buffer_size;
    sample.output_buffer_capacity = snap.output_buffer_capacity;
    sample.busy_workers = snap.busy_workers;
    sample.num_workers = snap.num_workers;
    sample.cache_size = snap.cache_size;
    sample.cache_capacity = snap.cache_capacity;
    if (parent->arbiter_ != nullptr) {
      sample.disk_reader_busy_nanos = parent->arbiter_->reader_busy_nanos();
      sample.disk_writer_busy_nanos = parent->arbiter_->writer_busy_nanos();
    }
    obs::Counter* advice_counter =
        parent->advice_counters_[static_cast<size_t>(snap.advice)];
    if (advice_counter != nullptr) advice_counter->Add(1);
    parent->options_.telemetry->resources().Append(std::move(sample));
  }

  // Latches the first error; no further step is claimed.
  void ReportError(const Status& status) {
    obs::FlightRecord(obs::FlightEvent::kError,
                      static_cast<uint64_t>(status.code()), 0);
    MutexLock lock(mu);
    if (first_error.ok()) first_error = status;
    cv.NotifyAll();
  }

  Status GetStatus() const {
    MutexLock lock(mu);
    return first_error;
  }

  template <typename T>
  static T PopFront(std::deque<T>& queue) {
    T item = std::move(queue.front());
    queue.pop_front();
    return item;
  }

  // A step is claimable when the buffer it fills has a free slot. READ
  // fetches database chunks straight into the output buffer and raw chunks
  // into the text buffer, whose slots the held raw chunks fill.
  bool ReadClaimable() const REQUIRES(mu) {
    if (read_busy || read_done) return false;
    return next_read < db_count ? out.size() < out_capacity
                                : held < text_capacity;
  }
  bool TokenizeClaimable() const REQUIRES(mu) { return !text.empty(); }
  bool ParseClaimable() const REQUIRES(mu) {
    return !pos.empty() && out.size() + parsing < out_capacity;
  }

  // Claims the next step and reserves its output slot; empty when none can
  // start.
  std::function<void()> ClaimLocked() REQUIRES(mu) {
    std::function<void()> step;
    if (!first_error.ok() || abandoned) return step;
    if (ReadClaimable()) {
      read_busy = true;
      if (!meta.layout_known) {
        read_holds_slot = true;
        step = [this] { DiscoveryStep(); };
      } else {
        const ChunkMetadata* cm = to_read[next_read];
        const bool from_db = next_read++ < db_count;
        read_done = next_read == to_read.size();
        read_holds_slot = !from_db;
        step = [this, cm, from_db] { from_db ? DbStep(*cm) : RawStep(*cm); };
      }
      if (read_holds_slot) ++held;
    } else if (TokenizeClaimable()) {
      step = [this, chunk = PopFront(text)]() mutable {
        TokenizeStep(std::move(chunk));
      };
    } else if (ParseClaimable()) {
      ++parsing;
      step = [this, tokenized = PopFront(pos)]() mutable {
        ParseStep(std::move(tokenized));
      };
    }
    if (step) AddToMetric(parent->profile_.pool_tasks_metric, 1);
    return step;
  }

  // Reserves one more runner task when a step is claimable, no runner is
  // queued to take it, and the query is under its cap. Counting it here
  // keeps the run alive until it exits; the caller submits it unlocked.
  bool SpawnLocked() REQUIRES(mu) {
    if (runners == max_tasks || queued_runners > 0 || !first_error.ok() ||
        abandoned || !(ReadClaimable() || TokenizeClaimable() ||
                       ParseClaimable())) {
      return false;
    }
    ++runners;
    ++queued_runners;
    AddToMetric(parent->profile_.pool_queue_metric, 1);
    return true;
  }

  template <typename Metric>
  static void AddToMetric(Metric* metric, int delta) {
    if (metric != nullptr) metric->Add(delta);
  }

  void SubmitRunner(bool spawn) {
    if (spawn) ThreadPool::Shared().Submit([this] { RunSteps(); });
  }

  // Body of one runner task: runs this query's steps until none can be
  // claimed. The last thing it touches is `mu`, released on return.
  void RunSteps() {
    {
      MutexLock lock(mu);
      --queued_runners;
      AddToMetric(parent->profile_.pool_queue_metric, -1);
      AddToMetric(parent->profile_.pool_busy_metric, 1);
    }
    while (true) {
      std::function<void()> step;
      bool spawn = false;
      {
        MutexLock lock(mu);
        step = ClaimLocked();
        if (!step) {
          AddToMetric(parent->profile_.pool_busy_metric, -1);
          --runners;
          cv.NotifyAll();
          return;
        }
        spawn = SpawnLocked();  // ramps up to the cap while work remains
      }
      SubmitRunner(spawn);
      step();
    }
  }

  // Every raw chunk is converted and delivered or buffered for delivery.
  bool ScanCompleteLocked() const REQUIRES(mu) {
    return read_done && !read_busy && held == 0;
  }

  // Cache hits go to the caller without a hand-off; then the output buffer.
  Result<std::optional<BinaryChunkPtr>> Next() {
    if (next_cached < cached.size()) {
      auto& [cm, chunk] = cached[next_cached++];
      StageRecord stage(parent, obs::QueryStage::kCacheHit);
      Add(&ChunkCounts::chunks_from_cache);
      // Invisible loading charges its per-query quota against any unloaded
      // chunk that passes through, cached or freshly converted.
      if (parent->options_.policy == LoadPolicy::kInvisibleLoading) {
        MaybeInvisibleWrite(cm->chunk_index, chunk);
      }
      stage.Record(this, {.chunk_index = cm->chunk_index,
                          .bytes = cm->raw_size});
      return std::optional<BinaryChunkPtr>(std::move(chunk));
    }
    while (true) {
      std::function<void()> step;
      BinaryChunkPtr item;
      bool spawn = false;
      bool flush = false;
      {
        MutexLock lock(mu);
        while (out.empty() && first_error.ok() && !ScanCompleteLocked() &&
               max_tasks > 0) {
          cv.Wait(lock);
        }
        if (!out.empty()) {
          item = PopFront(out);
          spawn = SpawnLocked();
        } else if (!first_error.ok()) {
          return first_error;
        } else if (ScanCompleteLocked()) {
          flush = !end_of_scan;
          end_of_scan = true;
        } else {
          step = ClaimLocked();  // sequential configuration: caller works
        }
      }
      if (step) {
        step();
        continue;
      }
      SubmitRunner(spawn);
      // End of scan: every raw chunk is converted and resident (or already
      // delivered). The safeguard flushes the unloaded cache tail (§4).
      if (flush && parent->options_.safeguard_enabled &&
          parent->options_.policy == LoadPolicy::kSpeculativeLoading) {
        parent->SafeguardFlush();
      }
      if (item == nullptr) return std::optional<BinaryChunkPtr>();
      return std::optional<BinaryChunkPtr>(std::move(item));
    }
  }

  // Bumps one of this query's counts together with the operator's.
  void Add(ChunkCounts::Field field, uint64_t n = 1) {
    parent->profile_.Add(field, n, &counts);
  }

  // Folds the speculation outcomes a step accrued into the counts: `now`
  // minus `before`, for a source whose totals are cumulative.
  void AddSpeculation(const SpeculationStats& now,
                      const SpeculationStats& before = {}) {
    Add(&ChunkCounts::tokenize_ranges, now.ranges - before.ranges);
    Add(&ChunkCounts::tokenize_misspeculations,
        now.misspeculations - before.misspeculations);
    Add(&ChunkCounts::tokenize_repair_bytes,
        now.repair_bytes - before.repair_bytes);
  }

  // Text dialect for record discovery and TOKENIZE, from the options.
  RecordDialect Dialect() const {
    RecordDialect dialect;
    dialect.quoted = parent->options_.quoted_fields &&
                     parent->options_.raw_format == RawFormat::kDelimitedText;
    return dialect;
  }

  // Pool for fanning one chunk's record scan or TOKENIZE out over idle
  // workers; null in the sequential configuration (num_workers = 0), where
  // the caller's thread does all the work.
  ThreadPool* ScanPool() const {
    return max_tasks > 0 ? &ThreadPool::Shared() : nullptr;
  }

  // Ends a READ step: a database chunk joins the output buffer, a raw chunk
  // the text buffer. A raw chunk that takes the last free text-buffer slot
  // stops READ with the disk idle, which is when §4 triggers a speculative
  // WRITE. A raw READ that produced no chunk gives its slot back.
  void EndRead(std::optional<TextChunk> raw, BinaryChunkPtr db, bool last) {
    const uint64_t raw_index = raw.has_value() ? raw->chunk_index : 0;
    bool blocked = false;
    bool finished = false;
    bool spawn = false;
    {
      MutexLock lock(mu);
      read_busy = false;
      read_done = read_done || last;
      finished = read_done;
      if (db != nullptr) out.push_back(std::move(db));
      if (raw.has_value()) {
        text.push_back(std::move(*raw));
        blocked = held >= text_capacity;
      } else if (read_holds_slot) {
        --held;
      }
      read_holds_slot = false;
      spawn = SpawnLocked();
      cv.NotifyAll();
    }
    SubmitRunner(spawn);
    if (finished) read_heartbeat.reset();
    if (blocked) {
      Add(&ChunkCounts::read_blocked_events);
      obs::FlightRecord(obs::FlightEvent::kReadBlocked, raw_index);
      parent->MaybeTriggerSpeculativeWrite(&counts);
    }
  }

  void ReadFailed(const Status& status) {
    ReportError(status);
    EndRead(std::nullopt, nullptr, /*last=*/true);
  }

  // First access to the file: sequential scan, chunk layout recorded into
  // the catalog as chunks are produced.
  void DiscoveryStep() {
    if (chunker == nullptr) {
      auto opened = SequentialChunker::Open(
          meta.raw_path, parent->options_.chunk_rows, parent->raw_limiter_,
          &raw_io, parent->buffer_pool_.get(), Dialect(), ScanPool());
      if (!opened.ok()) return ReadFailed(opened.status());
      chunker = std::move(*opened);
    }
    std::optional<TextChunk> chunk;
    {
      ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
      StageRecord stage(parent, obs::QueryStage::kRead);
      const SpeculationStats before = chunker->speculation();
      auto next = chunker->Next();
      AddSpeculation(chunker->speculation(), before);
      if (!next.ok()) return ReadFailed(next.status());
      chunk = std::move(*next);
      // The final step only probes for EOF: no chunk, so no READ.
      if (chunk.has_value()) {
        stage.Record(this, {.chunk_index = chunk->chunk_index,
                            .bytes = chunk->data.size()});
      }
    }
    if (!chunk.has_value()) {
      Status s = parent->catalog_->MarkLayoutComplete(parent->table_);
      if (!s.ok()) ReportError(s);
      return EndRead(std::nullopt, nullptr, /*last=*/true);
    }
    ChunkMetadata cm;
    cm.chunk_index = chunk->chunk_index;
    cm.raw_offset = chunk->file_offset;
    cm.raw_size = chunk->data.size();
    cm.num_rows = chunk->num_rows();
    Status s = parent->catalog_->AppendChunk(parent->table_, cm);
    if (!s.ok()) return ReadFailed(s);
    Add(&ChunkCounts::chunks_from_raw);
    EndRead(std::move(chunk), nullptr, /*last=*/false);
  }

  void DbStep(const ChunkMetadata& cm) {
    BinaryChunkPtr ptr;
    {
      ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
      StageRecord stage(parent, obs::QueryStage::kRead);
      auto chunk = parent->storage_->ReadChunkColumns(cm, required_columns);
      if (!chunk.ok()) return ReadFailed(chunk.status());
      ptr = std::make_shared<const BinaryChunk>(std::move(*chunk));
      stage.Record(this, {.from_db = true,
                          .chunk_index = cm.chunk_index,
                          .bytes = cm.raw_size});
    }
    Add(&ChunkCounts::chunks_from_db);
    // Database chunks are cached too (pre-fetching works for both sources,
    // §3.1) and arrive already loaded.
    HandleEvictions(
        parent->cache_.Insert(cm.chunk_index, ptr, /*loaded=*/true));
    EndRead(std::nullopt, std::move(ptr), /*last=*/false);
  }

  void RawStep(const ChunkMetadata& cm) {
    if (raw_file == nullptr) {
      auto file = RandomAccessFile::Open(meta.raw_path, parent->raw_limiter_,
                                         &raw_io);
      if (!file.ok()) return ReadFailed(file.status());
      raw_file = std::move(*file);
    }
    std::optional<TextChunk> chunk;
    {
      ScopedDiskAccess disk(parent->arbiter_, DiskUser::kReader);
      StageRecord stage(parent, obs::QueryStage::kRead);
      auto read = ReadChunkAt(*raw_file, cm, parent->buffer_pool_.get());
      if (!read.ok()) return ReadFailed(read.status());
      chunk = std::move(*read);
      stage.Record(this, {.chunk_index = cm.chunk_index,
                          .bytes = cm.raw_size});
    }
    Add(&ChunkCounts::chunks_from_raw);
    EndRead(std::move(chunk), nullptr, /*last=*/false);
  }

  void TokenizeStep(TextChunk chunk) {
    // Positional map cache (§2): a cached map that already covers the needed
    // fields skips TOKENIZE outright; a partial one is extended from its last
    // mapped attribute. A map cached under a different dialect is dropped by
    // the cache and counts as a miss.
    const bool use_map_cache = parent->options_.cache_positional_maps;
    std::shared_ptr<const PositionalMap> map;
    if (use_map_cache) {
      PosmapOrigin origin = PosmapOrigin::kBuilt;
      map = parent->positional_maps_.Lookup(chunk.chunk_index, map_dialect,
                                            &origin);
      if (map != nullptr) {
        posmap_hits.fetch_add(1, std::memory_order_relaxed);
        if (origin == PosmapOrigin::kDisk) {
          Add(&ChunkCounts::posmap_disk_chunks);
        }
      } else {
        posmap_misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (map == nullptr || map->fields_per_row() < topts.EffectiveFields()) {
      auto built = Tokenize(&chunk, map.get());
      // The extend path scans only the unmapped suffix, but the whole chunk
      // was subjected to TOKENIZE-stage work; count it all — the
      // fully-mapped skip path above is the only zero-byte outcome.
      Add(&ChunkCounts::bytes_tokenized, chunk.data.size());
      map.reset();
      if (built.ok()) {
        map = std::move(*built);
        if (use_map_cache) {
          parent->positional_maps_.Insert(chunk.chunk_index, map,
                                          map_dialect);
        }
      } else {
        ReportError(built.status());
      }
    } else if (Status found = FindRecordsInSpan(&chunk); !found.ok()) {
      // A full hit skips TOKENIZE but not record discovery: the re-read
      // bytes must still hold the records the catalog and the map count.
      ReportError(found);
      map.reset();
    }
    // The chunk is shared by the TOKENIZE and PARSE steps; wrapping it
    // through the pool returns its text buffer for reuse only when the last
    // holder lets go (outside this run's lock).
    auto text =
        ChunkBufferPool::WrapText(std::move(chunk), parent->buffer_pool_);
    bool spawn = false;
    {
      MutexLock lock(mu);
      if (map != nullptr) {
        pos.push_back(Tokenized{std::move(text), std::move(map)});
      } else {
        --held;  // dropped on an error: its slot is free
      }
      spawn = SpawnLocked();
    }
    SubmitRunner(spawn);
  }

  // The catalog's record count for a chunk of a known layout; none during
  // discovery, whose chunker counted the records itself.
  std::optional<uint64_t> ExpectedRows(const TextChunk& text) const {
    if (!meta.layout_known || text.chunk_index >= meta.chunks.size()) {
      return std::nullopt;
    }
    return meta.chunks[text.chunk_index].num_rows;
  }

  // Record starts of a chunk that READ handed over as bare bytes, for every
  // path but the structural pass: split at newlines, or at newlines outside
  // quotes by the (speculative parallel) record scan. Their count must match
  // the catalog's. A discovery chunk arrives with the starts its chunker
  // found.
  Status FindRecords(TextChunk* text, SpeculationStats* spec) {
    if (!text->line_starts.empty() || text->data.empty()) return Status::OK();
    std::vector<uint32_t>& starts = text->line_starts;
    starts = parent->buffer_pool_->AcquireLineStarts();
    if (!Dialect().quoted) {
      FindLineStarts(text->data, &starts);
    } else {
      // Chunk extents were cut at record boundaries, so the buffer starts at
      // outside-quote parity. Every record-terminating newline opens the
      // next record, except a final-byte terminator.
      RecordScanOptions sopts;
      sopts.dialect = Dialect();
      sopts.pool = ScanPool();
      starts.push_back(0);
      ParallelFindRecordNewlines(text->data.data(), 0, text->data.size(),
                                 /*start_inside=*/false, sopts, spec, &starts);
      for (size_t i = 1; i < starts.size(); ++i) ++starts[i];
      if (starts.back() == text->data.size()) starts.pop_back();
    }
    const std::optional<uint64_t> expected = ExpectedRows(*text);
    if (expected.has_value() && *expected != text->num_rows()) {
      return RowCountMismatch(text->chunk_index, *expected, text->num_rows());
    }
    return Status::OK();
  }

  // FindRecords outside a ranged TOKENIZE or a stage record: its time is a
  // TOKENIZE span of its own, and its speculation counts go to the run.
  Status FindRecordsInSpan(TextChunk* text) {
    SpeculationStats spec;
    const int64_t t0 = RealClock::Instance()->NowNanos();
    const Status found = FindRecords(text, &spec);
    profiler.RecordSpan(obs::QueryStage::kTokenize, obs::CurrentThreadId(), t0,
                        RealClock::Instance()->NowNanos() - t0);
    AddSpeculation(spec);
    return found;
  }

  static Result<std::shared_ptr<const PositionalMap>> Share(
      Result<PositionalMap> map) {
    if (!map.ok()) return map.status();
    return std::shared_ptr<const PositionalMap>(
        std::make_shared<const PositionalMap>(std::move(*map)));
  }

  // TOKENIZE of one chunk: finds its records when READ handed over bare
  // bytes, checks their count against the catalog's, and builds the
  // positional map, extending `partial` (a cached map missing some needed
  // fields) when there is one.
  Result<std::shared_ptr<const PositionalMap>> Tokenize(
      TextChunk* text, const PositionalMap* partial) {
    StageRecord stage(parent, obs::QueryStage::kTokenize);
    bool ranged = false;
    auto map = [&]() -> Result<std::shared_ptr<const PositionalMap>> {
      if (json) {
        SCANRAW_RETURN_IF_ERROR(FindRecords(text, nullptr));
        return Share(TokenizeJsonChunk(*text, meta.schema));
      }
      // Delimited text: extend a cached partial map when available, over
      // the records found in the re-read bytes.
      if (partial != nullptr && !partial->explicit_ends()) {
        SpeculationStats spec;
        const Status found = FindRecords(text, &spec);
        AddSpeculation(spec);
        SCANRAW_RETURN_IF_ERROR(found);
        return Share(ExtendTokenizeMap(*text, *partial, topts));
      }
      // A full TOKENIZE fans byte ranges out over idle pool workers (one
      // range for a small chunk or without a pool) while this step claims
      // ranges too. Busy time reaches the span profiler as one span per
      // range from whichever thread ran it, so the stage record adds no
      // span of its own, or the ranges would be double-counted.
      ranged = true;
      ParallelTokenizeOptions ptopts;
      ptopts.pool = ScanPool();
      ptopts.range_span = [this](size_t, int64_t start, int64_t dur) {
        profiler.RecordSpan(obs::QueryStage::kTokenize,
                            obs::CurrentThreadId(), start, dur);
      };
      SpeculationStats spec;
      if (topts.quoted) {
        // The record scan is not ranged; it gets a span of its own.
        const Status found = FindRecordsInSpan(text);
        auto full = found.ok()
                        ? ParallelTokenizeChunk(*text, topts, ptopts, &spec)
                        : Result<PositionalMap>(found);
        AddSpeculation(spec);
        return Share(std::move(full));
      }
      // Unquoted text: one structural pass finds the records and fills a
      // map whose slot array comes from, and returns to, the pool.
      auto full = IndexUnquotedChunk(text, topts, ptopts, &spec,
                                     ExpectedRows(*text),
                                     parent->buffer_pool_->AcquireMapSlots());
      AddSpeculation(spec);
      if (!full.ok()) return full.status();
      return ChunkBufferPool::WrapMap(std::move(*full), parent->buffer_pool_);
    }();
    if (map.ok()) {
      stage.Record(this, {.chunk_index = text->chunk_index,
                          .rows = (*map)->num_rows(),
                          .ranged = ranged});
    }
    return map;
  }

  void ParseStep(Tokenized tokenized) {
    const TextChunk& text = *tokenized.text;
    BinaryChunkPtr chunk;
    {
      StageRecord stage(parent, obs::QueryStage::kParse);
      auto parsed = ParseChunk(text, *tokenized.map, meta.schema, popts);
      if (parsed.ok()) {
        stage.Record(this, {.chunk_index = text.chunk_index,
                            .bytes = text.data.size(),
                            .rows = parsed->num_rows()});
        Add(&ChunkCounts::rows_delivered, parsed->num_rows());
        Add(&ChunkCounts::bytes_converted, text.data.size());
        chunk = DeliverConverted(ChunkBufferPool::WrapChunk(
            std::move(*parsed), parent->buffer_pool_));
      } else {
        ReportError(parsed.status());
      }
    }
    bool spawn = false;
    {
      MutexLock lock(mu);
      --parsing;
      --held;  // PARSE is done with the text: its slot is free
      if (chunk != nullptr) out.push_back(std::move(chunk));
      spawn = SpawnLocked();
      cv.NotifyAll();
    }
    SubmitRunner(spawn);
  }

  // Caches a freshly converted chunk and applies the WRITE policy; returns
  // the chunk for the execution engine.
  BinaryChunkPtr DeliverConverted(BinaryChunkPtr chunk) {
    const uint64_t index = chunk->chunk_index();
    obs::FlightRecord(obs::FlightEvent::kDeliver, index, chunk->num_rows());
    // Crash point for the recovery matrix: a chunk has been extracted
    // (tokenized + parsed) but nothing about it has been persisted yet.
    FaultKillPoint("scanraw.extract.converted");
    HandleEvictions(parent->cache_.Insert(index, chunk, /*loaded=*/false));
    switch (parent->options_.policy) {
      case LoadPolicy::kFullLoad:
        parent->EnqueueWrite(index, chunk);
        break;
      case LoadPolicy::kInvisibleLoading:
        MaybeInvisibleWrite(index, chunk);
        break;
      case LoadPolicy::kExternalTables:
      case LoadPolicy::kSpeculativeLoading:
      case LoadPolicy::kBufferedLoading:
        break;  // nothing on the conversion path
    }
    return chunk;
  }

  // Invisible loading: spend one unit of the per-query quota on this chunk
  // if any remains and the chunk is not already loaded or pending.
  void MaybeInvisibleWrite(uint64_t index, const BinaryChunkPtr& chunk) {
    if (invisible_budget.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      if (!parent->EnqueueWrite(index, chunk)) {
        invisible_budget.fetch_add(1, std::memory_order_acq_rel);
      }
    } else {
      invisible_budget.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  // Buffered loading: a chunk expelled from a full cache is written to the
  // database ([10]'s flush-on-full behavior).
  void HandleEvictions(std::vector<EvictedChunk> evicted) {
    for (const EvictedChunk& ev : evicted) {
      obs::FlightRecord(obs::FlightEvent::kCacheEvict, ev.chunk_index,
                        ev.was_loaded ? 1 : 0);
    }
    if (parent->options_.policy != LoadPolicy::kBufferedLoading) return;
    for (EvictedChunk& ev : evicted) {
      if (!ev.was_loaded) {
        parent->EnqueueWrite(ev.chunk_index, std::move(ev.chunk));
      }
    }
  }

  // Waits for this query's runner tasks (never for the whole pool).
  void JoinAll() {
    if (joined) return;
    joined = true;
    bool clean = false;
    {
      MutexLock lock(mu);
      while (runners != 0) cv.Wait(lock);
      clean = !abandoned && first_error.ok();
    }
    read_heartbeat.reset();
    // Loading is part of a synchronous-loading query: its writes drain
    // before the final report, which then counts every chunk it loaded.
    if (clean && LoadsSynchronously(parent->options_.policy)) {
      parent->WaitForWrites();
    }
    // A cleanly drained pipeline pins the tracker to 100% so the final
    // report always reads completion — even when totals were estimates
    // (discovery scans) or rounding left the fraction short. Abandoned or
    // failed runs skip the pin: their final report shows honest partial
    // progress.
    if (clean) progress.MarkComplete();
    // After the drain, so the final sample and report show the settled end
    // state.
    if (sample_tick) {
      sample_tick.Cancel();
      SampleResources();
    }
    if (progress_tick) {
      progress_tick.Cancel();
      ReportProgress();
    }
  }

  void Abandon() {
    {
      MutexLock lock(mu);
      abandoned = true;  // running steps finish; nothing new is claimed
    }
    JoinAll();
    // Only now: the run is about to be destroyed, so background writes that
    // continue past it are no longer its own. (Unregistering waits for
    // destruction rather than Finish so the WRITE drain of the
    // synchronous-loading policies is still attributed.) Identity-checked:
    // a newer query may have registered already.
    MutexLock lock(parent->active_mu_);
    if (parent->active_run_ == this) parent->active_run_ = nullptr;
  }

  ScanRaw* const parent;
  const std::vector<size_t> required_columns;
  const std::optional<RangePredicate> skip_filter;
  const TableMetadata meta;
  const size_t max_tasks;  // num_workers: this query's concurrent runners
  const size_t text_capacity;  // raw chunks the run may hold
  const size_t out_capacity;
  const bool json;
  const TokenizeOptions topts;
  const PosmapDialect map_dialect;
  const ParseOptions popts;

  // Set by Start: cache hits, consumed by Next() on the caller's thread,
  // then the chunks READ fetches, database-resident ones first.
  std::vector<std::pair<const ChunkMetadata*, BinaryChunkPtr>> cached;
  size_t next_cached = 0;
  std::vector<const ChunkMetadata*> to_read;
  size_t db_count = 0;

  // READ state, touched by one READ step at a time.
  std::unique_ptr<SequentialChunker> chunker;
  std::unique_ptr<RandomAccessFile> raw_file;
  std::optional<obs::StageHeartbeats::Scope> read_heartbeat;

  // Query-scoped observability: every stage records spans here, and the
  // progress tracker feeds the optional progress reports.
  obs::SpanProfiler profiler;
  obs::ProgressTracker progress;
  // Registered by Start, cancelled by JoinAll.
  Ticker::Handle sample_tick;
  Ticker::Handle progress_tick;
  bool joined = false;

  mutable Mutex mu{LockRank::kScanInflight, "ScanRaw.query_mu"};
  CondVar cv;  // output, scan completion, errors, runner exits
  std::deque<TextChunk> text GUARDED_BY(mu);
  std::deque<Tokenized> pos GUARDED_BY(mu);
  std::deque<BinaryChunkPtr> out GUARDED_BY(mu);
  // Raw chunks from READ's claim until their PARSE returns (or the chunk is
  // dropped on an error): the text buffer's occupied slots.
  size_t held GUARDED_BY(mu) = 0;
  size_t next_read GUARDED_BY(mu) = 0;
  bool read_busy GUARDED_BY(mu) = false;
  bool read_holds_slot GUARDED_BY(mu) = false;  // the running READ is raw
  bool read_done GUARDED_BY(mu) = false;
  size_t parsing GUARDED_BY(mu) = 0;
  // Runner tasks submitted and not yet exited; queued_runners of them have
  // not started.
  size_t runners GUARDED_BY(mu) = 0;
  size_t queued_runners GUARDED_BY(mu) = 0;
  bool end_of_scan GUARDED_BY(mu) = false;
  bool abandoned GUARDED_BY(mu) = false;
  Status first_error GUARDED_BY(mu);

  // This query's own counts, which EXPLAIN and the query log report: the
  // profile's counters (bumped together with the operator's by Add), and
  // the cache and positional-map lookups, stored segment bytes and raw-file
  // reads, which have no twin in the profile. Concurrent queries on the
  // operator never touch each other's.
  ChunkCounts counts;
  uint64_t cache_hits = 0;  // set by Start
  uint64_t cache_misses = 0;
  std::atomic<uint64_t> posmap_hits{0};
  std::atomic<uint64_t> posmap_misses{0};
  std::atomic<uint64_t> bytes_written{0};  // credited by the WRITE thread
  IoStats raw_io;

  std::atomic<int64_t> invisible_budget;
};

ScanRaw::QueryRun::QueryRun(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ScanRaw::QueryRun::~QueryRun() {
  if (impl_ != nullptr) impl_->Abandon();
}

Result<std::optional<BinaryChunkPtr>> ScanRaw::QueryRun::Next() {
  return impl_->Next();
}

void ScanRaw::QueryRun::Finish() { impl_->JoinAll(); }

Status ScanRaw::QueryRun::status() const { return impl_->GetStatus(); }

ResourceSnapshot ScanRaw::QueryRun::Resources() const {
  return impl_->SnapshotResources();
}

// -------------------------------------------------------------- ScanRaw ---

ScanRaw::ScanRaw(std::string table, Catalog* catalog, StorageManager* storage,
                 DiskArbiter* arbiter, RateLimiter* raw_limiter,
                 ScanRawOptions options)
    : table_(std::move(table)),
      catalog_(catalog),
      storage_(storage),
      arbiter_(arbiter),
      raw_limiter_(raw_limiter),
      options_(options),
      cache_(options.cache_capacity_chunks),
      positional_maps_(options.cache_positional_maps
                           ? options.positional_map_cache_chunks
                           : 0,
                       kPositionalMapCacheBytes),
      buffer_pool_(std::make_shared<ChunkBufferPool>()),
      write_queue_(1 << 20) {
  if (options_.telemetry != nullptr) {
    // Bind every registry mirror before the WRITE thread (or any query
    // pipeline) starts, so the hot paths read the pointers race-free.
    obs::MetricsRegistry& registry = options_.telemetry->metrics();
    profile_.Bind(&registry);
    positional_maps_.BindMetrics(
        registry.GetCounter("scanraw.posmap.hits"),
        registry.GetCounter("scanraw.posmap.misses"),
        registry.GetCounter("scanraw.posmap.disk_hits"),
        registry.GetCounter("scanraw.posmap.dialect_drops"));
    buffer_pool_->BindMetrics(registry.GetCounter("scanraw.pool.buffer_hits"),
                              registry.GetCounter("scanraw.pool.buffer_misses"),
                              registry.GetGauge("scanraw.pool.idle_buffers"));
    cache_.BindMetrics(registry.GetCounter("scanraw.cache.hits"),
                       registry.GetCounter("scanraw.cache.misses"),
                       registry.GetCounter("scanraw.cache.evictions"),
                       registry.GetCounter("scanraw.cache.biased_evictions"));
    advice_counters_[static_cast<size_t>(
        ResourceSnapshot::Advice::kNeedMoreCpu)] =
        registry.GetCounter("scanraw.advice.need_more_cpu");
    advice_counters_[static_cast<size_t>(ResourceSnapshot::Advice::kIoBound)] =
        registry.GetCounter("scanraw.advice.io_bound");
    advice_counters_[static_cast<size_t>(
        ResourceSnapshot::Advice::kEngineBound)] =
        registry.GetCounter("scanraw.advice.engine_bound");
    advice_counters_[static_cast<size_t>(ResourceSnapshot::Advice::kBalanced)] =
        registry.GetCounter("scanraw.advice.balanced");
    heartbeats_ = &options_.telemetry->heartbeats();
    if (arbiter_ != nullptr) arbiter_->BindHeartbeats(heartbeats_);
    options_.telemetry->timeseries().TrackPipelineDefaults(&registry);
  }
  // scanraw-lint: allow(thread-spawn) the operator's WRITE stage (§4)
  write_thread_ = std::thread([this] { WriteLoop(); });
}

ScanRaw::~ScanRaw() {
  write_queue_.Close();
  if (write_thread_.joinable()) write_thread_.join();
}

Result<std::unique_ptr<ScanRaw::QueryRun>> ScanRaw::StartQuery(
    std::vector<size_t> required_columns,
    std::optional<RangePredicate> skip_filter) {
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return meta.status();
  if (required_columns.empty()) {
    required_columns.resize(meta->schema.num_columns());
    for (size_t i = 0; i < required_columns.size(); ++i) {
      required_columns[i] = i;
    }
  }
  std::sort(required_columns.begin(), required_columns.end());
  required_columns.erase(
      std::unique(required_columns.begin(), required_columns.end()),
      required_columns.end());
  for (size_t c : required_columns) {
    if (c >= meta->schema.num_columns()) {
      return Status::InvalidArgument(
          StringPrintf("column %zu out of range for table %s", c,
                       table_.c_str()));
    }
  }
  auto impl = std::make_unique<QueryRun::Impl>(
      this, std::move(required_columns), std::move(skip_filter),
      std::move(*meta));
  impl->Start();
  return std::unique_ptr<QueryRun>(new QueryRun(std::move(impl)));
}

Result<QueryResult> ScanRaw::ExecuteQuery(const QuerySpec& spec) {
  return ExecuteQuery(spec, nullptr);
}

Result<QueryResult> ScanRaw::ExecuteQuery(const QuerySpec& spec,
                                          obs::ExplainReport* explain) {
  // Baselines for the only deltas the report shows: the arbiter and the
  // limiter are devices shared with every other query and operator, and
  // expose only cumulative wait totals. Every other number is counted by
  // this query's own run.
  const int64_t base_disk_wait =
      arbiter_ != nullptr
          ? arbiter_->reader_wait_nanos() + arbiter_->writer_wait_nanos()
          : 0;
  const uint64_t base_throttle_wait =
      raw_limiter_ != nullptr ? raw_limiter_->total_wait_nanos() : 0;
  // The report is filled for an explicit EXPLAIN, and also locally when a
  // query log is attached: the logged event is built from the report. Only
  // a report reads the loaded fraction, which copies the table's catalog
  // entry.
  obs::ExplainReport local_report;
  obs::ExplainReport* report =
      explain != nullptr
          ? explain
          : (options_.query_log != nullptr ? &local_report : nullptr);
  const double loaded_before = report != nullptr ? LoadedFraction() : 0.0;
  const std::vector<size_t> columns = spec.RequiredColumns();
  const double query_start = RealClock::Instance()->NowSeconds();

  auto fail = [&](const Status& failure) {
    LogQuery(spec, failure, RealClock::Instance()->NowSeconds() - query_start,
             nullptr, nullptr, 0);
    obs::FlightRecord(obs::FlightEvent::kQueryEnd, /*a=*/1, /*b=*/0);
    return failure;
  };

  obs::FlightRecord(obs::FlightEvent::kQueryBegin, columns.size(),
                    static_cast<uint64_t>(options_.policy));

  auto started = StartQuery(columns, spec.predicate.range);
  if (!started.ok()) return fail(started.status());
  QueryRun::Impl& run = *(*started)->impl_;
  auto result = RunQuery(spec, started->get(), &run.profiler);
  run.JoinAll();
  Status s = run.GetStatus();
  if (!s.ok()) return fail(s);
  if (!result.ok()) return fail(result.status());
  if (LoadsSynchronously(options_.policy)) {
    // JoinAll drained the writes: a failed one fails the query.
    Status ws = write_status();
    if (!ws.ok()) return fail(ws);
  }

  if (report != nullptr) {
    // An explicit EXPLAIN includes the background-write drain (speculative
    // writes, safeguard flush) in the report's window: EXPLAIN ANALYZE
    // answers "what did this query load", and the WRITE thread credits a
    // write to the run that is registered when it lands. This run stays
    // registered until it is destroyed, so the drained writes are its own.
    // A logged query does not drain: its flush overlaps the next query
    // (§4), and the event counts the writes that landed while this run was
    // registered, an earlier query's flush included.
    if (explain != nullptr) WaitForWrites();

    // The blocked time enters the profile as one synthetic span per
    // category anchored at query start — correct busy/blocked accounting,
    // excluded from critical-path selection (wait stages always are).
    obs::SpanProfiler& profiler = run.profiler;
    if (arbiter_ != nullptr) {
      const int64_t d = arbiter_->reader_wait_nanos() +
                        arbiter_->writer_wait_nanos() - base_disk_wait;
      if (d > 0) {
        profiler.RecordSpan(obs::QueryStage::kDiskWait, /*tid=*/0,
                            profiler.start_nanos(), d);
      }
    }
    if (raw_limiter_ != nullptr) {
      const int64_t d = static_cast<int64_t>(raw_limiter_->total_wait_nanos() -
                                             base_throttle_wait);
      if (d > 0) {
        profiler.RecordSpan(obs::QueryStage::kThrottleWait, /*tid=*/0,
                            profiler.start_nanos(), d);
      }
    }
    profiler.End();
    report->table = table_;
    report->policy = std::string(LoadPolicyName(options_.policy));
    report->workers = options_.num_workers;
    report->FillFromProfile(profiler.Aggregate());
    const ChunkCounts& counts = run.counts;
    report->chunks_from_cache = counts.chunks_from_cache.load();
    report->chunks_from_db = counts.chunks_from_db.load();
    report->chunks_from_raw = counts.chunks_from_raw.load();
    report->chunks_skipped = counts.chunks_skipped.load();
    report->chunks_written = counts.chunks_written.load();
    report->speculative_triggers = counts.speculative_triggers.load();
    report->read_blocked_events = counts.read_blocked_events.load();
    report->bytes_written = run.bytes_written.load();
    report->useful_bytes_written = counts.useful_bytes_written.load();
    report->tokenize_ranges = counts.tokenize_ranges.load();
    report->tokenize_misspeculations = counts.tokenize_misspeculations.load();
    report->tokenize_repair_bytes = counts.tokenize_repair_bytes.load();
    report->cache_hits = run.cache_hits;
    report->cache_misses = run.cache_misses;
    report->posmap_hits = run.posmap_hits.load();
    report->posmap_misses = run.posmap_misses.load();
    report->posmap_disk_hits = counts.posmap_disk_chunks.load();
    report->bytes_tokenized = counts.bytes_tokenized.load();
    report->loaded_fraction_before = loaded_before;
    report->loaded_fraction_after = LoadedFraction();
    report->speculation_paid_off =
        report->chunks_written > 0 &&
        report->loaded_fraction_after > loaded_before;
    report->advisor_used = options_.advisor != nullptr &&
                           options_.policy == LoadPolicy::kSpeculativeLoading;
    if (report->advisor_used) {
      report->advisor_note = options_.advisor->Plan(table_).note;
    }
    LogQuery(spec, Status::OK(), report->wall_seconds, report, &*result,
             run.raw_io.bytes_read.load());
  }
  // After-cold-scan persistence hook: a query that tokenized raw bytes
  // just built (or widened) positional maps; save them now so a crash or
  // restart before the next catalog save still finds a warm index. A scan
  // answered entirely from cached or persisted maps skips the save — the
  // sidecar on disk already covers it, and rewriting would put two fsyncs
  // on the warm-restart fast path. The sidecar is advisory — a failed
  // save never fails the query.
  if (options_.persist_positional_maps &&
      !options_.posmap_sidecar_path.empty() &&
      run.counts.bytes_tokenized.load() > 0) {
    const Status saved = SavePositionalMaps(options_.posmap_sidecar_path);
    if (!saved.ok()) {
      LOG_WARN("scanraw: posmap sidecar save failed: %s",
               saved.ToString().c_str());
    }
  }
  obs::FlightRecord(obs::FlightEvent::kQueryEnd, /*a=*/0,
                    result->rows_matched);
  return result;
}

void ScanRaw::LogQuery(const QuerySpec& spec, const Status& status,
                       double wall_seconds, const obs::ExplainReport* report,
                       const QueryResult* result, uint64_t bytes_read) {
  LogQueryEvent(options_.query_log, table_,
                std::string(LoadPolicyName(options_.policy)),
                options_.advisor != nullptr &&
                    options_.policy == LoadPolicy::kSpeculativeLoading,
                spec, status, wall_seconds, report, result, bytes_read);
}

void LogQueryEvent(obs::QueryLog* log, std::string table, std::string policy,
                   bool advisor_used, const QuerySpec& spec,
                   const Status& status, double wall_seconds,
                   const obs::ExplainReport* report, const QueryResult* result,
                   uint64_t bytes_read) {
  if (log == nullptr) return;
  obs::QueryLogEvent event;
  event.table = std::move(table);
  event.policy = std::move(policy);
  if (!status.ok()) event.status = status.ToString();
  event.wall_seconds = wall_seconds;
  event.columns = spec.RequiredColumns();
  if (spec.predicate.range.has_value()) {
    event.predicate_columns.push_back(spec.predicate.range->column);
  }
  if (spec.predicate.pattern.has_value()) {
    event.predicate_columns.push_back(spec.predicate.pattern->column);
  }
  event.advisor_used = advisor_used;
  if (report != nullptr) {
    event.rows_scanned = result->rows_scanned;
    event.rows_matched = result->rows_matched;
    for (const obs::ExplainStage& stage : report->stages) {
      event.stage_busy_seconds.emplace_back(stage.name, stage.busy_seconds);
    }
    event.chunks_from_cache = report->chunks_from_cache;
    event.chunks_from_db = report->chunks_from_db;
    event.chunks_from_raw = report->chunks_from_raw;
    event.chunks_skipped = report->chunks_skipped;
    event.chunks_written = report->chunks_written;
    event.speculative_triggers = report->speculative_triggers;
    event.bytes_read = bytes_read;
    event.bytes_written = report->bytes_written;
    event.useful_bytes_written = report->useful_bytes_written;
    event.cache_hit_rate =
        report->HitRate(report->cache_hits, report->cache_misses);
    event.posmap_hit_rate =
        report->HitRate(report->posmap_hits, report->posmap_misses);
    event.speculation_paid_off = report->speculation_paid_off;
  }
  const Status append = log->Append(std::move(event));
  if (!append.ok()) {
    // The log is advisory: a failed append never fails the query.
    LOG_WARN("scanraw: query log append failed: %s",
             append.ToString().c_str());
  }
}

Result<std::vector<QueryResult>> ScanRaw::ExecuteQueries(
    const std::vector<QuerySpec>& specs) {
  if (specs.empty()) return std::vector<QueryResult>();
  // One pass over the union of every query's columns. Chunk skipping is
  // only safe when a chunk is irrelevant to every query, so it is applied
  // only if all queries share the same range predicate.
  std::set<size_t> column_union;
  for (const QuerySpec& spec : specs) {
    for (size_t c : spec.RequiredColumns()) column_union.insert(c);
  }
  std::optional<RangePredicate> shared_filter = specs[0].predicate.range;
  for (const QuerySpec& spec : specs) {
    const auto& r = spec.predicate.range;
    const bool same =
        r.has_value() == shared_filter.has_value() &&
        (!r.has_value() || (r->column == shared_filter->column &&
                            r->lo == shared_filter->lo &&
                            r->hi == shared_filter->hi));
    if (!same) {
      shared_filter.reset();
      break;
    }
  }

  auto run = StartQuery(
      std::vector<size_t>(column_union.begin(), column_union.end()),
      shared_filter);
  if (!run.ok()) return run.status();
  std::vector<QueryExecutor> executors;
  executors.reserve(specs.size());
  for (const QuerySpec& spec : specs) executors.emplace_back(spec);
  while (true) {
    auto next = (*run)->Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    for (QueryExecutor& executor : executors) {
      SCANRAW_RETURN_IF_ERROR(executor.Consume(***next));
    }
  }
  (*run)->Finish();  // drains synchronous loading's writes
  SCANRAW_RETURN_IF_ERROR((*run)->status());
  if (LoadsSynchronously(options_.policy)) {
    SCANRAW_RETURN_IF_ERROR(write_status());
  }
  std::vector<QueryResult> results;
  results.reserve(executors.size());
  for (QueryExecutor& executor : executors) {
    results.push_back(executor.Finish());
  }
  return results;
}

PosmapDialect TokenizeDialectFor(const Schema& schema,
                                 const ScanRawOptions& options) {
  // Mirrors the TokenizeOptions a query's TOKENIZE steps use: the schema's
  // delimiter, RecordDialect's quoting rule (quoting applies to delimited
  // text only), and the tokenizer's fixed quote character.
  PosmapDialect dialect;
  dialect.delimiter = schema.delimiter();
  dialect.quoted = options.quoted_fields &&
                   options.raw_format == RawFormat::kDelimitedText;
  dialect.quote = TokenizeOptions{}.quote;
  return dialect;
}

Status ScanRaw::SavePositionalMaps(const std::string& path) {
  if (!options_.persist_positional_maps || !options_.cache_positional_maps ||
      path.empty()) {
    return Status::OK();
  }
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return meta.status();
  const PosmapDialect dialect = TokenizeDialectFor(meta->schema, options_);
  auto snapshot = positional_maps_.Snapshot(dialect);
  // Nothing cached under the current dialect: leave any existing sidecar
  // alone rather than clobbering a warm index with an empty one (e.g. a
  // restart whose queries were all answered from the database).
  if (snapshot.empty()) return Status::OK();

  auto stat = StatFile(meta->raw_path);
  if (!stat.ok()) return stat.status();
  PosmapSidecarHeader header;
  header.table = table_;
  header.raw_size = stat->size;
  header.raw_mtime_nanos = stat->mtime_nanos;
  header.dialect = dialect;
  std::vector<PosmapSidecarEntry> entries;
  entries.reserve(snapshot.size());
  for (auto& [chunk_index, map] : snapshot) {
    entries.push_back(PosmapSidecarEntry{chunk_index, std::move(map)});
  }
  FaultKillPoint("scanraw.posmap.before_save");
  Status saved = AtomicWriteFile(path, EncodePosmapSidecar(header, entries));
  FaultKillPoint("scanraw.posmap.after_save");
  return saved;
}

size_t ScanRaw::PrepopulatePositionalMaps(
    const PosmapDialect& dialect,
    std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
        entries) {
  if (!options_.cache_positional_maps) return 0;
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return 0;
  // Dialect gate: a sidecar written under different delimiter/quote rules
  // (e.g. --quoted-csv toggled between runs) is useless here — refuse it
  // wholesale and let the table re-tokenize.
  if (dialect != TokenizeDialectFor(meta->schema, options_)) return 0;
  size_t inserted = 0;
  for (auto& [chunk_index, map] : entries) {
    if (map == nullptr) continue;
    positional_maps_.Insert(chunk_index, std::move(map), dialect,
                            PosmapOrigin::kDisk);
    ++inserted;
  }
  return inserted;
}

bool ScanRaw::EnqueueWrite(uint64_t chunk_index, BinaryChunkPtr chunk) {
  {
    MutexLock lock(pending_mu_);
    if (pending_writes_.count(chunk_index)) return false;
    auto meta = catalog_->GetTable(table_);
    if (meta.ok() && chunk_index < meta->chunks.size()) {
      const ChunkMetadata& cm = meta->chunks[chunk_index];
      bool all_loaded = true;
      for (size_t c : chunk->ColumnIds()) {
        if (!cm.loaded_columns.count(c)) {
          all_loaded = false;
          break;
        }
      }
      if (all_loaded) {
        // Already in the database (possibly loaded by an earlier query);
        // repair the cache flag so the chunk is not offered again.
        cache_.MarkLoaded(chunk_index);
        return false;
      }
    }
    pending_writes_.insert(chunk_index);
  }
  {
    MutexLock lock(write_mu_);
    ++writes_outstanding_;
  }
  if (!write_queue_.Push(WriteRequest{chunk_index, std::move(chunk)})) {
    // Operator shutting down.
    {
      MutexLock lock(pending_mu_);
      pending_writes_.erase(chunk_index);
    }
    MutexLock lock(write_mu_);
    --writes_outstanding_;
    write_cv_.NotifyAll();
    return false;
  }
  return true;
}

void ScanRaw::MaybeTriggerSpeculativeWrite(ChunkCounts* run) {
  if (options_.policy != LoadPolicy::kSpeculativeLoading) return;
  // Back off after a failed background write: the disk is unhappy (full,
  // erroring); keep serving the query from the raw side and retry later.
  const int64_t backoff_until =
      write_backoff_until_nanos_.load(std::memory_order_relaxed);
  if (backoff_until != 0 &&
      RealClock::Instance()->NowNanos() < backoff_until) {
    profile_.Add(&ChunkCounts::write_backoffs, 1, run);
    return;
  }
  {
    // One chunk at a time (§4): do not stack writes while one is queued or
    // in flight.
    MutexLock lock(write_mu_);
    if (writes_outstanding_ > 0) return;
  }
  auto victim = cache_.OldestUnloaded();
  if (!victim.has_value()) return;
  const uint64_t victim_index = victim->first;
  if (EnqueueWrite(victim_index, std::move(victim->second))) {
    profile_.Add(&ChunkCounts::speculative_triggers, 1, run);
    obs::FlightRecord(obs::FlightEvent::kSpeculativeTrigger, victim_index);
  }
}

void ScanRaw::SafeguardFlush() {
  auto unloaded = cache_.UnloadedChunks();
  obs::FlightRecord(obs::FlightEvent::kSafeguardFlush, unloaded.size());
  for (auto& [index, chunk] : unloaded) {
    EnqueueWrite(index, std::move(chunk));
  }
}

void ScanRaw::WriteLoop() {
  while (auto req = write_queue_.Pop()) {
    Status status;
    // History-driven speculative loading: store only the advisor's
    // hot-column subset, in rank order, instead of every converted column.
    // Columns already in the database are dropped either way, so repeated
    // offers of the same chunk never duplicate segments. Results stay
    // byte-identical: skipped columns are re-extracted from the raw side.
    std::vector<size_t> store_columns = req->chunk->ColumnIds();
    bool skip_write = false;
    if (options_.advisor != nullptr &&
        options_.policy == LoadPolicy::kSpeculativeLoading) {
      store_columns = options_.advisor->FilterColumns(table_, store_columns);
      auto meta = catalog_->GetTable(table_);
      if (meta.ok() && req->chunk_index < meta->chunks.size()) {
        const std::set<size_t>& loaded =
            meta->chunks[req->chunk_index].loaded_columns;
        store_columns.erase(
            std::remove_if(store_columns.begin(), store_columns.end(),
                           [&loaded](size_t c) { return loaded.count(c) != 0; }),
            store_columns.end());
      }
      // Every hot column already resident: nothing worth the write budget.
      skip_write = store_columns.empty();
    }
    if (!skip_write) {
      ScopedDiskAccess disk(arbiter_, DiskUser::kWriter);
      QueryRun::Impl::StageRecord stage(this, obs::QueryStage::kWrite);
      auto segment = storage_->WriteSegment(*req->chunk, store_columns);
      if (!segment.ok()) {
        status = segment.status();
      } else {
        // Write-ordering invariant: the segment's bytes reach stable
        // storage before any catalog record points at them, so a crash
        // can leave orphan bytes in the storage tail (harmless) but never
        // a catalog entry referencing unsynced data.
        if (options_.sync_segment_writes) status = storage_->Sync();
        FaultKillPoint("scanraw.write.before_record");
        if (status.ok()) {
          status = catalog_->RecordSegment(table_, req->chunk_index, *segment,
                                           ComputeChunkStats(*req->chunk));
          FaultKillPoint("scanraw.write.after_record");
        }
        // Credited to the query running now: the stored bytes, and on
        // success the written chunk, its stage record and its useful
        // bytes — the segment's bytes scaled by how many of its columns
        // that query required (columns in one chunk are near-equal width,
        // so proportional is a fair split).
        MutexLock lock(active_mu_);
        QueryRun::Impl* run = active_run_;
        if (run != nullptr) run->bytes_written += segment->page.size;
        if (status.ok()) {
          size_t overlap = 0;
          for (size_t c : store_columns) {
            if (run != nullptr &&
                std::binary_search(run->required_columns.begin(),
                                   run->required_columns.end(), c)) {
              ++overlap;
            }
          }
          ChunkCounts* counts = run != nullptr ? &run->counts : nullptr;
          profile_.Add(&ChunkCounts::chunks_written, 1, counts);
          profile_.Add(&ChunkCounts::useful_bytes_written,
                       segment->page.size * overlap /
                           std::max<size_t>(1, store_columns.size()),
                       counts);
          stage.Record(run, {.chunk_index = req->chunk_index,
                             .bytes = segment->page.size});
        }
      }
    }
    if (status.ok()) {
      cache_.MarkLoaded(req->chunk_index);
    } else if (LoadsSynchronously(options_.policy)) {
      // Loading is part of the query under these policies; surface it.
      MutexLock lock(write_mu_);
      if (write_status_.ok()) write_status_ = status;
    } else {
      // Graceful degradation (speculative / buffered / safeguard writes):
      // the chunk simply stays unloaded — the query keeps processing it
      // from the raw side — and new speculative triggers back off so a
      // sick disk is not hammered. Retried naturally once the backoff
      // expires.
      profile_.Add(&ChunkCounts::write_failures, 1, nullptr);
      LOG_WARN(
          "scanraw: background write of %s chunk %llu failed, "
          "falling back to raw-side processing: %s",
          table_.c_str(), static_cast<unsigned long long>(req->chunk_index),
          std::string(status.message()).c_str());
      write_backoff_until_nanos_.store(
          RealClock::Instance()->NowNanos() + kWriteFailureBackoffNanos,
          std::memory_order_relaxed);
    }
    {
      MutexLock lock(pending_mu_);
      pending_writes_.erase(req->chunk_index);
    }
    MutexLock lock(write_mu_);
    --writes_outstanding_;
    write_cv_.NotifyAll();
  }
}

void ScanRaw::WaitForWrites() {
  MutexLock lock(write_mu_);
  while (writes_outstanding_ != 0) write_cv_.Wait(lock);
}

Status ScanRaw::write_status() const {
  MutexLock lock(write_mu_);
  return write_status_;
}

std::string ScanRaw::StatuszSection() const {
  std::string out;
  out += StringPrintf("  table: %s\n", table_.c_str());
  out += StringPrintf("  policy: %s\n",
                      std::string(LoadPolicyName(options_.policy)).c_str());
  out += StringPrintf("  loaded_fraction: %.3f\n", LoadedFraction());
  out += StringPrintf("  cache: %zu/%zu chunks\n", cache_.size(),
                      cache_.capacity());
  out += StringPrintf("  writes_outstanding: %zu\n", [this] {
    MutexLock lock(write_mu_);
    return writes_outstanding_;
  }());
  out += StringPrintf(
      "  tokenize: ranges=%llu misspeculations=%llu repair_bytes=%llu\n",
      static_cast<unsigned long long>(profile_.tokenize_ranges.load()),
      static_cast<unsigned long long>(
          profile_.tokenize_misspeculations.load()),
      static_cast<unsigned long long>(profile_.tokenize_repair_bytes.load()));
  if (options_.cache_positional_maps) {
    out += StringPrintf(
        "  posmap cache: %zu maps, %zu bytes, disk_chunks=%llu\n",
        positional_maps_.size(), positional_maps_.MemoryBytes(),
        static_cast<unsigned long long>(profile_.posmap_disk_chunks.load()));
  }
  if (heartbeats_ != nullptr) {
    for (size_t i = 0; i < obs::kNumHeartbeatStages; ++i) {
      const auto stage = static_cast<obs::HeartbeatStage>(i);
      out += StringPrintf(
          "  stage %s: active=%lld beats=%llu\n",
          std::string(obs::HeartbeatStageName(stage)).c_str(),
          static_cast<long long>(heartbeats_->active(stage)),
          static_cast<unsigned long long>(heartbeats_->beats(stage)));
    }
  }
  MutexLock lock(active_mu_);
  if (active_run_ == nullptr) {
    out += "  query: idle\n";
    return out;
  }
  out += "  query: running\n";
  const obs::SpanProfiler::Report report = active_run_->profiler.Aggregate();
  for (size_t i = 0; i < obs::kNumQueryStages; ++i) {
    const auto stage = static_cast<obs::QueryStage>(i);
    const obs::SpanProfiler::StageStats& stats = report.stages[i];
    if (stats.spans == 0) continue;
    out += StringPrintf(
        "  span %s: spans=%llu busy=%.3fs threads=%zu\n",
        std::string(obs::QueryStageName(stage)).c_str(),
        static_cast<unsigned long long>(stats.spans),
        static_cast<double>(stats.busy_nanos) * 1e-9, stats.threads);
  }
  out += StringPrintf(
      "  critical_stage: %s (%.0f%% of wall)\n",
      std::string(obs::QueryStageName(report.critical_stage)).c_str(),
      report.critical_fraction * 100.0);
  return out;
}

double ScanRaw::LoadedFraction() const {
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return 0.0;
  return meta->LoadedFraction();
}

bool ScanRaw::FullyLoaded() const {
  auto meta = catalog_->GetTable(table_);
  if (!meta.ok()) return false;
  return meta->FullyLoaded();
}

}  // namespace scanraw
