// Persistent query event log: one JSONL line per executed query capturing
// the query spec, per-stage span timings, chunk provenance, cache hit
// rates, bytes moved, and the speculative-loading payoff. The log is the
// durable substrate of the workload-intelligence loop (log -> history ->
// advisor): it survives process restarts so WorkloadHistory can be rebuilt
// or incrementally replayed after a crash.
//
// Durability discipline matches the catalog's: a versioned header line,
// append-only writes through WritableFile::OpenForAppend (so fault
// injection exercises the exact production path), size-based rotation that
// keeps one previous generation, and a torn-trailing-line-tolerant reader
// that reports what it dropped in recovery-style counters.
#ifndef SCANRAW_OBS_QUERY_LOG_H_
#define SCANRAW_OBS_QUERY_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/file.h"

namespace scanraw {
namespace obs {

// One logged query. Counter fields mirror the query's ExplainReport counts;
// the event is what the workload history aggregates.
struct QueryLogEvent {
  uint64_t seq = 0;            // assigned by QueryLog::Append
  int64_t ts_unix_micros = 0;  // wall clock; assigned on append when 0
  std::string table;
  std::string policy;
  std::string status = "ok";  // "ok" or the error message
  double wall_seconds = 0;

  std::vector<size_t> columns;            // required columns of the spec
  std::vector<size_t> predicate_columns;  // columns filtered by a predicate

  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;

  // Per-stage busy thread-seconds keyed by stage name, from SpanProfiler.
  std::vector<std::pair<std::string, double>> stage_busy_seconds;

  // Chunk provenance and speculative payoff (ExplainReport counts).
  uint64_t chunks_from_cache = 0;
  uint64_t chunks_from_db = 0;
  uint64_t chunks_from_raw = 0;
  uint64_t chunks_skipped = 0;
  uint64_t chunks_written = 0;
  uint64_t speculative_triggers = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Bytes of written segments attributed to columns the active query
  // required (proportional attribution within a segment).
  uint64_t useful_bytes_written = 0;
  double cache_hit_rate = 0;
  double posmap_hit_rate = 0;
  bool speculation_paid_off = false;
  bool advisor_used = false;

  // Single-line JSON without the trailing newline.
  std::string ToJsonLine() const;
  // Strict parse of a line produced by ToJsonLine. Returns false on torn
  // or corrupt input; `event` is untouched on failure.
  static bool FromJsonLine(std::string_view line, QueryLogEvent* event);
};

struct QueryLogOptions {
  // Rotate the current file to `<path>.1` once it exceeds this size. One
  // previous generation is kept; ReadAll reads both.
  uint64_t rotate_bytes = 64ull << 20;
};

// Append-only JSONL writer with rotation. Append is mutex-serialized; this
// is control-plane logging (one line per query), not the record path.
class QueryLog {
 public:
  // Reload-tolerance counters from ReadAll, catalog-LoadStats style.
  struct LoadStats {
    int version = 0;          // header version of the newest generation
    uint64_t generations = 0; // files read (<path>.1 first, then <path>)
    uint64_t events = 0;
    uint64_t dropped_torn = 0;     // unterminated trailing line dropped
    uint64_t dropped_corrupt = 0;  // interior lines that failed to parse
    uint64_t max_seq = 0;
  };

  // Opens (creating if needed) the log at `path`, writing the versioned
  // header into a fresh file and resuming seq numbers past any events
  // already on disk.
  static Result<std::unique_ptr<QueryLog>> Open(const std::string& path,
                                                QueryLogOptions options = {});

  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  // Assigns the event's seq (and timestamp when unset), serializes it, and
  // appends one line, rotating first when the size threshold is crossed.
  // On an append error the next successful append re-terminates the torn
  // line so at most the torn record is lost on reload.
  Status Append(QueryLogEvent event) EXCLUDES(mu_);

  // Invoked (outside IO, under the log mutex) with every successfully
  // appended event; the CLI wires this to WorkloadHistory::Observe so the
  // live history tracks the durable log.
  void SetObserver(std::function<void(const QueryLogEvent&)> observer)
      EXCLUDES(mu_);

  Status Close() EXCLUDES(mu_);

  const std::string& path() const { return path_; }
  uint64_t events_appended() const EXCLUDES(mu_);
  uint64_t append_failures() const EXCLUDES(mu_);
  uint64_t rotations() const EXCLUDES(mu_);
  uint64_t next_seq() const EXCLUDES(mu_);

  // Reads every surviving event from `<path>.1` (if present) then `<path>`,
  // dropping an unterminated trailing line and counting corrupt interior
  // lines instead of failing. Only an unreadable file or an unsupported
  // header version is an error.
  static Result<std::vector<QueryLogEvent>> ReadAll(const std::string& path,
                                                    LoadStats* stats = nullptr);

 private:
  QueryLog(std::string path, QueryLogOptions options);

  Status AppendLocked(const std::string& line) REQUIRES(mu_);
  Status RotateLocked() REQUIRES(mu_);
  Status OpenFreshLocked() REQUIRES(mu_);

  const std::string path_;
  const QueryLogOptions options_;

  mutable Mutex mu_{LockRank::kQueryLog, "QueryLog.mu"};
  std::unique_ptr<WritableFile> file_ GUARDED_BY(mu_);
  std::function<void(const QueryLogEvent&)> observer_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  uint64_t events_appended_ GUARDED_BY(mu_) = 0;
  uint64_t append_failures_ GUARDED_BY(mu_) = 0;
  uint64_t rotations_ GUARDED_BY(mu_) = 0;
  // A failed append may have left a torn, unterminated line; the next
  // append writes a lone '\n' first so the torn prefix becomes one corrupt
  // line the reader drops, instead of corrupting the next record.
  bool needs_newline_ GUARDED_BY(mu_) = false;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_QUERY_LOG_H_
