// The three benchmark workloads and the round structure they share.
//
// A run repeats rounds until --seconds have passed. One round is:
//   set-up      ScanRawManager::Create + RegisterRawFile (+ the warm-up
//               query that fills the cache on cached_repeat)
//   stream      the workload's queries, one client, closed loop
//   restart     SaveCatalog, drop the manager, then Create(reuse) +
//               LoadCatalog + AttachOptions + the first answer
// and every answer is checked against the reference evaluator.
//
// The untraced run sends each query through ParseSelect and
// ScanRawManager::Query. The traced run alternates untraced rounds with
// traced ones; a traced round drives ScanRaw::StartQuery -> QueryRun::Next
// -> QueryExecutor::Consume -> QueryRun::Finish itself (the manager's
// create / retire / heap-scan rules, repeated here) and records a span
// around every call.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.h"
#include "common/random.h"
#include "scanraw/scanraw_manager.h"
#include "sql/sql_parser.h"
#include "tracer.h"

namespace perfbench {
namespace {

using scanraw::BinaryChunkPtr;
using scanraw::CsvSpec;
using NextChunk = scanraw::Result<std::optional<BinaryChunkPtr>>;
using scanraw::LoadPolicy;
using scanraw::QueryResult;
using scanraw::ScanRawManager;
using scanraw::ScanRawOptions;

constexpr char kTable[] = "t";
constexpr size_t kWorkers = 4;

struct Workload {
  std::string name;
  CsvSpec csv;
  ScanRawOptions options;
  std::vector<BenchQuery> queries;
  // queries[0] is the first query after registration. On cached_repeat it
  // is the warm-up and belongs to set-up instead of the stream.
  bool warmup_in_setup = false;
  // Whether the first query's latency also counts in the stream (never
  // when it is the set-up's warm-up).
  bool first_in_stream = true;
  // Stream queries after the first one. When `cycle_seconds` > 0 the list
  // is cycled for that long instead of run once.
  std::vector<size_t> stream;
  double cycle_seconds = 0;
  // First answer after the restart, then queries answered after it.
  size_t restart_query = 0;
  std::vector<size_t> after_restart;
  // Percentile query_tail_ms reports: the highest of the usual ones that a
  // run of this workload keeps >= 10 stream samples beyond. Fixed per
  // workload so the reported percentile does not hop between runs.
  double tail_pct = 75;
};

// ---- seeded queries -------------------------------------------------------

std::string Col(size_t c) { return "C" + std::to_string(c); }

BenchQuery MakeQuery(std::vector<size_t> sum_columns,
                     std::optional<scanraw::RangePredicate> range,
                     std::optional<scanraw::PatternPredicate> pattern) {
  BenchQuery q;
  q.sql = "SELECT ";
  if (!sum_columns.empty()) {
    q.sql += "SUM(";
    for (size_t i = 0; i < sum_columns.size(); ++i) {
      q.sql += (i == 0 ? "" : " + ") + Col(sum_columns[i]);
    }
    q.sql += "), ";
  }
  q.sql += "COUNT(*) FROM ";
  q.sql += kTable;
  std::vector<std::string> where;
  if (range.has_value()) {
    where.push_back(Col(range->column) + " BETWEEN " +
                    std::to_string(range->lo) + " AND " +
                    std::to_string(range->hi));
  }
  if (pattern.has_value()) {
    where.push_back(Col(pattern->column) + " LIKE '%" + pattern->pattern +
                    "%'");
  }
  for (size_t i = 0; i < where.size(); ++i) {
    q.sql += (i == 0 ? " WHERE " : " AND ") + where[i];
  }
  q.sum_columns = std::move(sum_columns);
  q.range = range;
  q.pattern = std::move(pattern);
  return q;
}

// `width` distinct columns whose largest index is exactly `max_column`, so
// the cost of selective TOKENIZE and PARSE depends only on the shape while
// the seed picks the columns.
std::vector<size_t> PickColumns(scanraw::Random* rng, size_t width,
                                size_t max_column) {
  std::vector<size_t> pool;
  for (size_t c = 0; c < max_column; ++c) pool.push_back(c);
  std::vector<size_t> cols{max_column};
  for (size_t i = 1; i < width && !pool.empty(); ++i) {
    const size_t k = rng->Uniform(pool.size());
    cols.push_back(pool[k]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return cols;
}

// A range over half of the value domain on one of `cols`.
scanraw::RangePredicate HalfRange(scanraw::Random* rng,
                                  const std::vector<size_t>& cols,
                                  uint32_t max_value) {
  scanraw::RangePredicate p;
  p.column = cols[rng->Uniform(cols.size())];
  const uint64_t span = max_value / 2;
  p.lo = static_cast<int64_t>(rng->Uniform(max_value - span));
  p.hi = p.lo + static_cast<int64_t>(span) - 1;
  return p;
}

std::vector<size_t> AllColumns(size_t n) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < n; ++c) cols.push_back(c);
  return cols;
}

Workload RawScan(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "raw_scan";
  w.csv.num_rows = tiny ? 1 << 14 : 1 << 20;
  w.csv.num_columns = 16;
  w.csv.seed = seed;
  w.options.policy = LoadPolicy::kExternalTables;
  w.options.num_workers = kWorkers;
  w.options.cache_capacity_chunks = 0;
  w.options.chunk_rows = tiny ? 1 << 11 : 1 << 16;
  scanraw::Random rng(seed ^ 0x5ca7ull);
  // The discovery query answers the fresh registration (first_answer_s);
  // the stream is six known-layout re-scans of one shape: half the columns,
  // the last one among them (so TOKENIZE covers whole rows), and a range
  // predicate. One shape keeps the latency distribution unimodal.
  std::vector<size_t> cols = PickColumns(&rng, 4, 15);
  w.queries.push_back(
      MakeQuery(cols, HalfRange(&rng, cols, w.csv.max_value), std::nullopt));
  for (size_t i = 0; i < 6; ++i) {
    cols = PickColumns(&rng, 8, 15);
    w.queries.push_back(
        MakeQuery(cols, HalfRange(&rng, cols, w.csv.max_value), std::nullopt));
    w.stream.push_back(i + 1);
  }
  w.first_in_stream = false;
  w.restart_query = 0;
  w.tail_pct = 90;
  return w;
}

Workload CachedRepeat(uint64_t seed, bool tiny, double seconds) {
  Workload w;
  w.name = "cached_repeat";
  w.csv.num_rows = tiny ? 20000 : 200000;
  w.csv.num_columns = 8;
  w.csv.seed = seed;
  w.options.policy = LoadPolicy::kExternalTables;
  w.options.num_workers = kWorkers;
  w.options.chunk_rows = tiny ? 1024 : 8192;
  w.options.cache_capacity_chunks =
      (w.csv.num_rows + w.options.chunk_rows - 1) / w.options.chunk_rows;
  scanraw::Random rng(seed ^ 0xcac4eull);
  // Warm-up: every column, so every cached chunk serves every later query.
  w.queries.push_back(MakeQuery(AllColumns(8), std::nullopt, std::nullopt));
  struct Shape {
    size_t width;
    bool range;
  };
  // Three of four take the engine's tight no-predicate loop, so the median
  // is a short query dominated by per-query fixed costs; the range queries
  // make up the tail.
  const Shape shapes[] = {{1, false}, {2, false}, {2, true}, {3, false}};
  const size_t kDistinct = tiny ? 16 : 256;
  for (size_t i = 0; i < kDistinct; ++i) {
    const Shape& s = shapes[i % 4];
    std::vector<size_t> cols =
        PickColumns(&rng, s.width, s.width - 1 + rng.Uniform(8 - s.width + 1));
    std::optional<scanraw::RangePredicate> range;
    if (s.range) range = HalfRange(&rng, cols, w.csv.max_value);
    w.queries.push_back(MakeQuery(cols, range, std::nullopt));
    w.stream.push_back(i + 1);
  }
  w.warmup_in_setup = true;
  w.tail_pct = 99;
  w.cycle_seconds = seconds / 10;
  w.restart_query = 0;
  return w;
}

Workload LoadSequence(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "load_sequence";
  w.csv.num_rows = tiny ? 1 << 13 : 1 << 18;
  w.csv.num_columns = 16;
  w.csv.quoted_columns = 1;
  w.csv.seed = seed;
  w.options.policy = LoadPolicy::kSpeculativeLoading;
  w.options.num_workers = kWorkers;
  w.options.quoted_fields = true;
  w.options.chunk_rows = tiny ? 1 << 9 : 1 << 14;  // 16 chunks
  w.options.cache_capacity_chunks = 4;             // 1/4 of them
  // sync_segment_writes keeps its default (true); the output says so.
  w.tail_pct = 90;
  scanraw::Random rng(seed ^ 0x10adull);
  const char* patterns[] = {",", "\"", "v1", "7"};
  const size_t kNumeric = 15;
  const size_t kText = 15;
  auto all_columns = [&] {
    return MakeQuery(AllColumns(kNumeric), std::nullopt,
                     scanraw::PatternPredicate{kText, patterns[rng.Uniform(4)]});
  };
  auto subset = [&](bool range_predicate) {
    std::vector<size_t> cols = PickColumns(&rng, 4, 4 + rng.Uniform(11));
    std::optional<scanraw::RangePredicate> range;
    if (range_predicate) range = HalfRange(&rng, cols, w.csv.max_value);
    return MakeQuery(cols, range, std::nullopt);
  };
  // Nine queries; every third touches all columns, so the operator can
  // retire midway and the rest run from the database.
  for (size_t i = 0; i < 9; ++i) {
    w.queries.push_back(i % 3 == 2 ? all_columns() : subset(i % 2 == 0));
  }
  for (size_t i = 1; i < 9; ++i) w.stream.push_back(i);
  w.restart_query = w.queries.size();
  w.queries.push_back(all_columns());
  for (size_t i = 0; i < 3; ++i) {
    w.after_restart.push_back(w.queries.size());
    w.queries.push_back(subset(i != 1));
  }
  return w;
}

// ---- one manager lifetime -------------------------------------------------

// Counters the traced rounds fold together.
struct LayerCounters {
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_db = 0;
  uint64_t chunks_from_raw = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_evictions = 0;
  uint64_t read_blocked = 0;
  uint64_t speculative_triggers = 0;
  uint64_t chunks_written = 0;
  uint64_t write_failures = 0;
  int64_t arbiter_reader_wait = 0;
  int64_t arbiter_writer_wait = 0;
  int64_t arbiter_writer_busy = 0;
  uint64_t db_bytes_written = 0;
  uint64_t db_bytes_read = 0;
  uint64_t raw_bytes_covered = 0;
  uint64_t raw_file_bytes = 0;  // one file per round
  uint64_t rows_consumed = 0;
  int64_t consume_nanos = 0;
  double busy_workers = 0;
  double text_fill = 0;
  double output_fill = 0;
  uint64_t resource_samples = 0;
  std::vector<double> write_drain_ms;
  std::vector<double> save_catalog_ms;
  std::vector<double> load_catalog_ms;
  std::vector<double> queries_to_retire;
};

double Fill(size_t size, size_t capacity) {
  return capacity == 0 ? 0.0
                       : static_cast<double>(size) /
                             static_cast<double>(capacity);
}

class Session {
 public:
  // `tracer` and `counters` are null for an untraced session.
  Session(const Workload& workload, const ScanRawOptions& options,
          const std::string& raw_path, uint64_t file_bytes, Tracer* tracer,
          LayerCounters* counters)
      : raw_path_(raw_path),
        schema_(scanraw::CsvSchema(workload.csv)),
        options_(options),
        file_bytes_(file_bytes),
        tracer_(tracer),
        counters_(counters) {}

  ~Session() { Close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status Open(const std::string& db_path, bool reuse) {
    ScanRawManager::Config config;
    config.db_path = db_path;
    config.reuse_existing_db = reuse;
    auto manager = ScanRawManager::Create(config);
    if (!manager.ok()) return manager.status();
    manager_ = std::move(*manager);
    return Status::OK();
  }

  Status Register() {
    return manager_->RegisterRawFile(kTable, raw_path_, schema_, options_);
  }

  Status Restore(const std::string& catalog_path) {
    const int64_t t0 = NowNanos();
    SCANRAW_RETURN_IF_ERROR(manager_->LoadCatalog(catalog_path));
    if (counters_ != nullptr) {
      counters_->load_catalog_ms.push_back(Millis(NowNanos() - t0));
    }
    return manager_->AttachOptions(kTable, options_);
  }

  Status Save(const std::string& catalog_path) {
    if (counters_ != nullptr) {
      // The manager cannot see the traced operator, so drain its writes
      // here, as SaveCatalog does for its own operators.
      const int64_t t0 = NowNanos();
      if (op_ != nullptr) op_->WaitForWrites();
      counters_->write_drain_ms.push_back(Millis(NowNanos() - t0));
    }
    const int64_t t0 = NowNanos();
    SCANRAW_RETURN_IF_ERROR(manager_->SaveCatalog(catalog_path));
    if (counters_ != nullptr) {
      counters_->save_catalog_ms.push_back(Millis(NowNanos() - t0));
    }
    return Status::OK();
  }

  Result<QueryResult> Run(const BenchQuery& query) {
    ++queries_run_;
    if (tracer_ == nullptr) {
      auto parsed = scanraw::ParseSelect(query.sql, schema_);
      if (!parsed.ok()) return parsed.status();
      return manager_->Query(parsed->table, parsed->spec);
    }
    tracer_->SetQuery(tracer_->NextQueryId());
    auto result = RunTraced(query);
    tracer_->SetQuery(0);
    return result;
  }

  ScanRawManager* manager() { return manager_.get(); }

  // Folds the traced operator and the manager's counters, then drops both
  // (operator first: it points into the manager).
  void Close() {
    if (manager_ == nullptr) return;
    if (op_ != nullptr) RetireOperator();
    if (counters_ != nullptr) {
      scanraw::DiskArbiter* arbiter = manager_->arbiter();
      counters_->arbiter_reader_wait += arbiter->reader_wait_nanos();
      counters_->arbiter_writer_wait += arbiter->writer_wait_nanos();
      counters_->arbiter_writer_busy += arbiter->writer_busy_nanos();
      counters_->db_bytes_written += manager_->storage()->bytes_written();
      counters_->db_bytes_read += manager_->io_stats()->bytes_read.load();
    }
    manager_.reset();
  }

 private:
  Result<QueryResult> RunTraced(const BenchQuery& query) {
    Tracer::Scope root(tracer_, "query");
    scanraw::ParsedSelect parsed;
    {
      Tracer::Scope span(tracer_, "sql.parse");
      auto p = scanraw::ParseSelect(query.sql, schema_);
      if (!p.ok()) return p.status();
      parsed = std::move(*p);
    }
    const scanraw::QuerySpec& spec = parsed.spec;
    Result<scanraw::TableMetadata> meta = scanraw::Status::Internal("unset");
    {
      Tracer::Scope span(tracer_, "catalog.get_table");
      meta = manager_->catalog()->GetTable(kTable);
    }
    if (!meta.ok()) return meta.status();
    counters_->raw_bytes_covered += file_bytes_;
    scanraw::QueryExecutor executor(spec);
    if (meta->FullyLoaded()) {
      if (op_ != nullptr) {
        Tracer::Scope span(tracer_, "scanraw.retire");
        RetireOperator();
        counters_->queries_to_retire.push_back(
            static_cast<double>(queries_run_ - 1));
      }
      scanraw::HeapScanStream stream(*meta, manager_->storage(),
                                     spec.RequiredColumns(),
                                     spec.predicate.range);
      while (true) {
        NextChunk next = std::optional<BinaryChunkPtr>();
        {
          Tracer::Scope span(tracer_, "db.heap_scan.next");
          next = stream.Next();
        }
        if (!next.ok()) return next.status();
        if (!next->has_value()) break;
        SCANRAW_RETURN_IF_ERROR(Consume(&executor, ***next));
      }
      return executor.Finish();
    }
    if (op_ == nullptr) {
      Tracer::Scope span(tracer_, "scanraw.create");
      ScanRawOptions options = options_;
      if (options.telemetry == nullptr) {
        options.telemetry = manager_->telemetry();
      }
      op_ = std::make_unique<scanraw::ScanRaw>(
          kTable, manager_->catalog(), manager_->storage(),
          manager_->arbiter(), manager_->limiter(), options);
    }
    std::unique_ptr<scanraw::ScanRaw::QueryRun> run;
    {
      Tracer::Scope span(tracer_, "scanraw.start");
      auto started =
          op_->StartQuery(spec.RequiredColumns(), spec.predicate.range);
      if (!started.ok()) return started.status();
      run = std::move(*started);
    }
    while (true) {
      NextChunk next = std::optional<BinaryChunkPtr>();
      {
        Tracer::Scope span(tracer_, "scanraw.next");
        next = run->Next();
      }
      if (!next.ok()) return next.status();
      if (!next->has_value()) break;
      {
        Tracer::Scope span(tracer_, "pipeline.resources");
        const scanraw::ResourceSnapshot r = run->Resources();
        counters_->busy_workers += static_cast<double>(r.busy_workers);
        counters_->text_fill +=
            Fill(r.text_buffer_size, r.text_buffer_capacity);
        counters_->output_fill +=
            Fill(r.output_buffer_size, r.output_buffer_capacity);
        ++counters_->resource_samples;
      }
      SCANRAW_RETURN_IF_ERROR(Consume(&executor, ***next));
    }
    {
      Tracer::Scope span(tracer_, "scanraw.finish");
      run->Finish();
    }
    SCANRAW_RETURN_IF_ERROR(run->status());
    return executor.Finish();
  }

  Status Consume(scanraw::QueryExecutor* executor,
                 const scanraw::BinaryChunk& chunk) {
    Tracer::Scope span(tracer_, "exec.consume");
    Status s = executor->Consume(chunk);
    counters_->consume_nanos += span.nanos_so_far();
    counters_->rows_consumed += chunk.num_rows();
    return s;
  }

  void RetireOperator() {
    op_->WaitForWrites();
    scanraw::PipelineProfile& p = op_->profile();
    counters_->chunks_from_cache += p.chunks_from_cache.load();
    counters_->chunks_from_db += p.chunks_from_db.load();
    counters_->chunks_from_raw += p.chunks_from_raw.load();
    counters_->cache_hits += op_->cache().hits();
    counters_->cache_lookups += op_->cache().hits() + op_->cache().misses();
    counters_->cache_evictions += op_->cache().evictions();
    counters_->read_blocked += p.read_blocked_events.load();
    counters_->speculative_triggers += p.speculative_triggers.load();
    counters_->chunks_written += p.chunks_written.load();
    counters_->write_failures += p.write_failures.load();
    op_.reset();
  }

  const std::string raw_path_;
  const scanraw::Schema schema_;
  const ScanRawOptions options_;
  const uint64_t file_bytes_;
  Tracer* const tracer_;
  LayerCounters* const counters_;
  uint64_t queries_run_ = 0;
  std::unique_ptr<ScanRawManager> manager_;
  std::unique_ptr<scanraw::ScanRaw> op_;
};

// ---- rounds ---------------------------------------------------------------

struct Prepared {
  Workload workload;
  std::string raw_path;
  std::string db_path;
  std::string catalog_path;
  scanraw::CsvFileInfo info;
  std::vector<Expected> expected;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_errors;

  // Checks one answer; a failure is counted and the run goes on.
  void Check(const Result<QueryResult>& result, const Expected& expected,
             const std::string& sql) {
    ++attempted;
    if (result.ok() && Matches(*result, expected)) return;
    ++failed;
    if (first_errors.size() < 3) {
      first_errors.push_back(
          (result.ok() ? std::string("wrong answer") : result.status().ToString()) +
          " for: " + sql);
    }
  }
};

// Set-ups per round. All but the last are dropped right away; they only
// add set-up samples, so setup_s is a median over many set-ups.
constexpr int kSetupsPerRound = 5;

// Resets the kernel's peak-RSS mark for this process, so each round's peak
// is its own. Returns false where /proc does not allow it.
bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak resident memory since the last reset (VmHWM), else since start.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct RoundResult {
  std::vector<double> setup_s;
  std::vector<double> first_answer_s;
  double restart_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> latencies_ms;
  double stream_seconds = 0;
  uint64_t stream_bytes = 0;
};

Result<RoundResult> RunRound(const Prepared& p, Tracer* tracer,
                             LayerCounters* counters, Tally* tally) {
  const Workload& w = p.workload;
  std::error_code ec;
  std::filesystem::remove(p.catalog_path, ec);
  RoundResult round;
  const bool per_round_peak = ResetPeakRss();
  auto timed = [&](Session* s, size_t q, bool stream) {
    const int64_t t0 = NowNanos();
    auto result = s->Run(w.queries[q]);
    const int64_t elapsed = NowNanos() - t0;
    tally->Check(result, p.expected[q], w.queries[q].sql);
    if (stream) {
      round.latencies_ms.push_back(Millis(elapsed));
      round.stream_seconds += Seconds(elapsed);
      round.stream_bytes += p.info.file_bytes;
    }
  };
  auto session_for = [&] {
    return std::make_unique<Session>(w, w.options, p.raw_path,
                                     p.info.file_bytes, tracer, counters);
  };
  if (counters != nullptr) counters->raw_file_bytes += p.info.file_bytes;

  std::unique_ptr<Session> session;
  int64_t register_start = 0;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    session.reset();
    std::filesystem::remove(p.db_path, ec);
    session = session_for();
    const int64_t setup_start = NowNanos();
    SCANRAW_RETURN_IF_ERROR(session->Open(p.db_path, /*reuse=*/false));
    register_start = NowNanos();
    SCANRAW_RETURN_IF_ERROR(session->Register());
    if (w.warmup_in_setup) {
      timed(session.get(), 0, false);
      round.first_answer_s.push_back(Seconds(NowNanos() - register_start));
    }
    round.setup_s.push_back(Seconds(NowNanos() - setup_start));
  }
  if (!w.warmup_in_setup) {
    timed(session.get(), 0, w.first_in_stream);
    round.first_answer_s.push_back(Seconds(NowNanos() - register_start));
  }
  if (w.cycle_seconds > 0) {
    const int64_t deadline =
        NowNanos() + static_cast<int64_t>(w.cycle_seconds * 1e9);
    for (size_t i = 0; NowNanos() < deadline; ++i) {
      timed(session.get(), w.stream[i % w.stream.size()], true);
    }
  } else {
    for (size_t q : w.stream) timed(session.get(), q, true);
  }
  SCANRAW_RETURN_IF_ERROR(session->Save(p.catalog_path));
  session.reset();

  session = session_for();
  const int64_t restart_start = NowNanos();
  SCANRAW_RETURN_IF_ERROR(session->Open(p.db_path, /*reuse=*/true));
  SCANRAW_RETURN_IF_ERROR(session->Restore(p.catalog_path));
  timed(session.get(), w.restart_query, false);
  round.restart_s = Seconds(NowNanos() - restart_start);
  for (size_t q : w.after_restart) timed(session.get(), q, true);
  session.reset();
  round.peak_rss_mb = per_round_peak ? PeakRssMb() : 0;

  return round;
}

// Steal and total jiffies of all CPUs from /proc/stat (zeros when absent).
// Steal is time the hypervisor gave this machine's vCPUs to someone else.
std::pair<uint64_t, uint64_t> CpuStealAndTotal() {
  std::pair<uint64_t, uint64_t> out{0, 0};
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    out.first = v[7];
    for (unsigned long long x : v) out.second += x;
  }
  std::fclose(f);
  return out;
}

// `wanted`, or the next lower usual percentile when a short run leaves
// fewer than 10 samples beyond it.
double TailPercentile(double wanted, size_t samples) {
  for (double pct : {99.0, 95.0, 90.0, 75.0}) {
    if (pct > wanted) continue;
    if (static_cast<double>(samples) * (100 - pct) >= 1000) return pct;
  }
  return 50;
}

struct StreamSummary {
  std::vector<double> setup_s, first_answer_s, restart_s, peak_rss_mb,
      latencies_ms;
  double seconds = 0;
  uint64_t bytes = 0;
  size_t rounds = 0;

  void Add(const RoundResult& r) {
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    first_answer_s.insert(first_answer_s.end(), r.first_answer_s.begin(),
                          r.first_answer_s.end());
    restart_s.push_back(r.restart_s);
    if (r.peak_rss_mb > 0) peak_rss_mb.push_back(r.peak_rss_mb);
    latencies_ms.insert(latencies_ms.end(), r.latencies_ms.begin(),
                        r.latencies_ms.end());
    seconds += r.stream_seconds;
    bytes += r.stream_bytes;
    ++rounds;
  }
  double raw_mb_s() const {
    return seconds <= 0 ? 0 : static_cast<double>(bytes) / 1e6 / seconds;
  }
};

Metrics EndToEnd(const StreamSummary& s, double wanted_tail_pct,
                 std::vector<std::string>* notes) {
  const double tail_pct = TailPercentile(wanted_tail_pct, s.latencies_ms.size());
  notes->push_back("rounds " + std::to_string(s.rounds) + ", stream queries " +
                   std::to_string(s.latencies_ms.size()) +
                   ", query_tail_ms is p" +
                   std::to_string(static_cast<int>(tail_pct)));
  // Median of per-round peaks; the whole process's peak where /proc cannot
  // reset the mark between rounds.
  const double peak_rss =
      s.peak_rss_mb.empty() ? PeakRssMb() : Median(s.peak_rss_mb);
  return {
      {"setup_s", Median(s.setup_s), "s"},
      {"first_answer_s", Median(s.first_answer_s), "s"},
      {"query_p50_ms", Median(s.latencies_ms), "ms"},
      {"query_tail_ms", Percentile(s.latencies_ms, tail_pct), "ms"},
      {"raw_mb_s", s.raw_mb_s(), "MB/s"},
      {"restart_s", Median(s.restart_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

// Seconds from a fresh registration at `workers` workers to the discovery
// scan's answer; `extents` receives the chunk layout it found.
Result<double> DiscoverySeconds(
    const Prepared& p, size_t workers, Tally* tally,
    std::vector<std::pair<uint64_t, uint64_t>>* extents) {
  std::error_code ec;
  std::filesystem::remove(p.db_path, ec);
  ScanRawOptions options = p.workload.options;
  options.num_workers = workers;
  Session session(p.workload, options, p.raw_path, p.info.file_bytes, nullptr,
                  nullptr);
  SCANRAW_RETURN_IF_ERROR(session.Open(p.db_path, false));
  SCANRAW_RETURN_IF_ERROR(session.Register());
  const int64_t t0 = NowNanos();
  auto result = session.Run(p.workload.queries[0]);
  const int64_t elapsed = NowNanos() - t0;
  tally->Check(result, p.expected[0], p.workload.queries[0].sql);
  auto meta = session.manager()->catalog()->GetTable(kTable);
  if (!meta.ok()) return meta.status();
  extents->clear();
  for (const auto& chunk : meta->chunks) {
    extents->emplace_back(chunk.raw_offset, chunk.raw_size);
  }
  return Seconds(elapsed);
}

Metrics PerLayer(const Tracer& tracer, const LayerCounters& c) {
  // Per-query sums of each top-level child span.
  std::map<std::string, std::vector<double>> per_query;
  double wall = 0;
  double unaccounted = 0;
  for (const Tracer::RootBreakdown& q : tracer.Breakdown("query")) {
    int64_t children = 0;
    for (const auto& [name, nanos] : q.children) {
      per_query[name].push_back(Millis(nanos));
      children += nanos;
    }
    wall += Millis(q.wall);
    unaccounted += Millis(q.wall - children);
  }
  auto median_of = [&](const char* name) { return Median(per_query[name]); };
  auto ratio = [](double a, double b) { return b <= 0 ? 0.0 : a / b; };
  const double samples = static_cast<double>(c.resource_samples);
  const double rounds = static_cast<double>(c.save_catalog_ms.size());
  return {
      {"scanraw.start_ms", median_of("scanraw.start"), "ms"},
      {"scanraw.next_wait_ms", median_of("scanraw.next"), "ms"},
      {"scanraw.finish_ms", median_of("scanraw.finish"), "ms"},
      {"scanraw.chunks_from_cache", static_cast<double>(c.chunks_from_cache),
       "count"},
      {"scanraw.chunks_from_db", static_cast<double>(c.chunks_from_db),
       "count"},
      {"scanraw.chunks_from_raw", static_cast<double>(c.chunks_from_raw),
       "count"},
      {"scanraw.cache_hit_ratio",
       ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_lookups)),
       "ratio"},
      {"scanraw.cache_hit_base", static_cast<double>(c.cache_lookups),
       "count"},
      {"scanraw.cache_evictions", static_cast<double>(c.cache_evictions),
       "count"},
      {"scanraw.read_blocked_events", static_cast<double>(c.read_blocked),
       "count"},
      {"scanraw.speculative_triggers",
       static_cast<double>(c.speculative_triggers), "count"},
      {"scanraw.chunks_written", static_cast<double>(c.chunks_written),
       "count"},
      {"scanraw.write_failures", static_cast<double>(c.write_failures),
       "count"},
      {"scanraw.queries_to_retire", Median(c.queries_to_retire), "count"},
      {"scanraw.write_drain_ms", Median(c.write_drain_ms), "ms"},
      {"pipeline.busy_workers", ratio(c.busy_workers, samples), "workers"},
      {"pipeline.text_buffer_fill", ratio(c.text_fill, samples), "ratio"},
      {"pipeline.output_buffer_fill", ratio(c.output_fill, samples), "ratio"},
      {"io.bytes_read_per_raw_byte",
       ratio(static_cast<double>(c.db_bytes_read),
             static_cast<double>(c.raw_bytes_covered)),
       "ratio"},
      {"io.arbiter_reader_wait_ms",
       ratio(Millis(c.arbiter_reader_wait), rounds), "ms"},
      {"io.arbiter_writer_wait_ms",
       ratio(Millis(c.arbiter_writer_wait), rounds), "ms"},
      {"io.arbiter_writer_busy_ms",
       ratio(Millis(c.arbiter_writer_busy), rounds), "ms"},
      {"db.bytes_written_per_raw_byte",
       ratio(static_cast<double>(c.db_bytes_written),
             static_cast<double>(c.raw_file_bytes)),
       "ratio"},
      {"db.heap_scan_ms", median_of("db.heap_scan.next"), "ms"},
      {"db.save_catalog_ms", Median(c.save_catalog_ms), "ms"},
      {"db.load_catalog_ms", Median(c.load_catalog_ms), "ms"},
      {"exec.consume_ms", median_of("exec.consume"), "ms"},
      {"exec.ns_per_row",
       ratio(static_cast<double>(c.consume_nanos),
             static_cast<double>(c.rows_consumed)),
       "ns"},
      {"sql.parse_us", median_of("sql.parse") * 1e3, "us"},
      {"trace.unaccounted_frac", ratio(unaccounted, wall), "ratio"},
      {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
  };
}

Result<Prepared> Prepare(const Args& args) {
  Prepared p;
  if (args.workload == "raw_scan") {
    p.workload = RawScan(args.seed, args.tiny);
  } else if (args.workload == "cached_repeat") {
    p.workload = CachedRepeat(args.seed, args.tiny, args.seconds);
  } else if (args.workload == "load_sequence") {
    p.workload = LoadSequence(args.seed, args.tiny);
  } else {
    return Status::InvalidArgument("unknown workload " + args.workload);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Status::IoError("cannot create " + args.work_dir);
  const std::string base = args.work_dir + "/" + p.workload.name;
  p.raw_path = base + ".csv";
  p.db_path = base + ".db";
  p.catalog_path = base + ".catalog";
  auto info = scanraw::GenerateCsvFile(p.raw_path, p.workload.csv);
  if (!info.ok()) return info.status();
  p.info = std::move(*info);
  // Flush the new file now, so kernel writeback does not land in the timed
  // phase; its pages stay in the page cache.
  const int fd = ::open(p.raw_path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + p.raw_path);
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    return Status::IoError("cannot sync " + p.raw_path);
  }
  auto expected = EvaluateReference(p.raw_path, p.workload.csv, p.info,
                                    p.workload.queries);
  if (!expected.ok()) return expected.status();
  p.expected = std::move(*expected);
  if (args.inject_wrong_answer) p.expected[0].total_sum += 1;
  return p;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"raw_scan", "cached_repeat",
                                              "load_sequence"};
  return names;
}

Result<RunOutcome> RunWorkload(const Args& args) {
  auto prepared = Prepare(args);
  if (!prepared.ok()) return prepared.status();
  const Prepared& p = *prepared;
  const Workload& w = p.workload;
  RunOutcome out;
  out.notes.push_back(
      "workload " + w.name + ": rows " + std::to_string(w.csv.num_rows) +
      ", columns " + std::to_string(w.csv.num_columns) + " (quoted " +
      std::to_string(w.csv.quoted_columns) + "), file_bytes " +
      std::to_string(p.info.file_bytes) + ", chunk_rows " +
      std::to_string(w.options.chunk_rows) + ", cache_chunks " +
      std::to_string(w.options.cache_capacity_chunks) + ", policy " +
      std::string(scanraw::LoadPolicyName(w.options.policy)) +
      ", num_workers " + std::to_string(w.options.num_workers) +
      ", sync_segment_writes " +
      (w.options.sync_segment_writes ? "true" : "false") + ", seed " +
      std::to_string(args.seed));

  std::error_code ec;
  Tally tally;
  const auto [steal_before, total_before] = CpuStealAndTotal();
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(args.seconds * 1e9);
  constexpr size_t kMinRounds = 2;
  // One untimed round first: the process's first pipeline pays for thread
  // start-up, page faults and allocator growth that later rounds do not.
  if (auto warmup = RunRound(p, nullptr, nullptr, &tally); !warmup.ok()) {
    return warmup.status();
  }
  if (!args.trace) {
    StreamSummary summary;
    while (summary.rounds < kMinRounds || NowNanos() < deadline) {
      auto round = RunRound(p, nullptr, nullptr, &tally);
      if (!round.ok()) return round.status();
      summary.Add(*round);
    }
    out.metrics = EndToEnd(summary, w.tail_pct, &out.notes);
  } else {
    // Untraced and traced rounds alternate, so drift hits both alike.
    Tracer tracer;
    LayerCounters counters;
    StreamSummary untraced, traced;
    while (traced.rounds < kMinRounds || NowNanos() < deadline) {
      const bool trace_this = untraced.rounds > traced.rounds;
      auto round = trace_this ? RunRound(p, &tracer, &counters, &tally)
                              : RunRound(p, nullptr, nullptr, &tally);
      if (!round.ok()) return round.status();
      (trace_this ? traced : untraced).Add(*round);
    }
    out.metrics = PerLayer(tracer, counters);
    out.metrics.push_back(
        {"trace.overhead_frac",
         untraced.raw_mb_s() <= 0
             ? 0
             : (untraced.raw_mb_s() - traced.raw_mb_s()) / untraced.raw_mb_s(),
         "ratio"});

    // pipeline.speedup_4v1: discovery at 4 workers over 1, interleaved.
    std::vector<double> one, four;
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t workers : {size_t{1}, kWorkers}) {
        auto s = DiscoverySeconds(p, workers, &tally, &extents);
        if (!s.ok()) return s.status();
        (workers == 1 ? one : four).push_back(*s);
      }
    }
    out.metrics.push_back(
        {"pipeline.speedup_4v1", Median(one) / Median(four), "x"});

    ReplayInput replay;
    replay.path = p.raw_path;
    replay.schema = scanraw::CsvSchema(w.csv);
    replay.quoted = w.options.quoted_fields;
    replay.num_workers = kWorkers;
    replay.extents = std::move(extents);
    replay.expected_rows = p.info.num_rows;
    replay.db_path = p.db_path + ".replay";
    auto layers = ReplayLayers(replay);
    std::filesystem::remove(replay.db_path, ec);
    if (!layers.ok()) return layers.status();
    for (const Metric& m : *layers) {
      auto same = [&](const Metric& x) { return x.name == m.name; };
      auto it = std::find_if(out.metrics.begin(), out.metrics.end(), same);
      if (it == out.metrics.end()) {
        out.metrics.push_back(m);
      } else if (it->value == 0) {
        // The rounds never exercised this layer (nothing was written or
        // heap-scanned), so the replay over the same chunks measures it.
        *it = m;
        out.notes.push_back(m.name + " from the layer replay");
      }
    }
    if (!args.trace_out.empty()) {
      SCANRAW_RETURN_IF_ERROR(tracer.WriteChromeTrace(args.trace_out));
      out.notes.push_back("spans written to " + args.trace_out);
    }
  }
  const auto [steal_after, total_after] = CpuStealAndTotal();
  if (total_after > total_before) {
    out.notes.push_back(
        "host cpu steal " +
        std::to_string(100.0 * static_cast<double>(steal_after - steal_before) /
                       static_cast<double>(total_after - total_before)) +
        "% while measuring");
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  for (const std::string& e : tally.first_errors) {
    out.notes.push_back("failure: " + e);
  }
  std::filesystem::remove(p.raw_path, ec);
  std::filesystem::remove(p.db_path, ec);
  std::filesystem::remove(p.catalog_path, ec);
  return out;
}

}  // namespace perfbench
