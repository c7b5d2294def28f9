// SpanProfiler: query-scoped span recording and critical-path attribution.
// Where the metrics registry aggregates process-global counters and the
// flight recorder keeps bounded event rings, the SpanProfiler answers the
// per-query question behind the paper's Fig. 9 utilization story: how much
// time each pipeline stage (READ, TOKENIZE, PARSE, WRITE, cache-hit
// delivery, heap scan, engine) was busy, on how many threads, and which
// stage bounded the query — the stage whose spans cover the largest part of
// the query's wall time once per-thread overlap is merged away.
//
// One SpanProfiler lives per query run. Recording is mutex-guarded — spans
// are per chunk-stage, orders of magnitude rarer than per-row work — and
// the span store is bounded so adversarial queries cannot grow it without
// limit (overflow is counted, aggregation still uses every recorded span).
#ifndef SCANRAW_OBS_SPAN_PROFILER_H_
#define SCANRAW_OBS_SPAN_PROFILER_H_

#include <array>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// Per-query stage taxonomy. The first group is busy work; the kWait group
// records time a stage spent blocked, split so critical-path attribution
// can distinguish disk-bound waits (the bandwidth limiter emulating the
// device) from contention-bound waits (READ and WRITE arbitrating one
// disk).
enum class QueryStage : uint8_t {
  kRead = 0,
  kTokenize = 1,
  kParse = 2,
  kWrite = 3,
  kCacheHit = 4,  // delivering a binary chunk straight from the cache
  kHeapScan = 5,  // database-resident scan (retired-operator path)
  kEngine = 6,    // execution-engine consume time
  // Wait categories (blocked, not busy).
  kDiskWait = 7,      // blocked in the DiskArbiter (READ/WRITE contention)
  kThrottleWait = 8,  // blocked in the RateLimiter (emulated device busy)
};

inline constexpr size_t kNumQueryStages = 9;
inline constexpr size_t kFirstWaitStage =
    static_cast<size_t>(QueryStage::kDiskWait);

std::string_view QueryStageName(QueryStage stage);

// True for the blocked (wait) categories.
inline bool QueryStageIsWait(QueryStage stage) {
  return static_cast<size_t>(stage) >= kFirstWaitStage;
}

class SpanProfiler {
 public:
  struct Span {
    uint32_t tid = 0;
    int64_t start_nanos = 0;
    int64_t dur_nanos = 0;
  };

  // Per-stage aggregate over the recorded spans.
  struct StageStats {
    uint64_t spans = 0;
    int64_t busy_nanos = 0;     // sum of span durations (thread-seconds)
    int64_t covered_nanos = 0;  // union of span intervals (wall footprint)
    size_t threads = 0;         // distinct thread ids that ran the stage
  };

  struct Report {
    int64_t wall_nanos = 0;
    std::array<StageStats, kNumQueryStages> stages;
    // The busy stage with the largest wall-clock footprint: it had work in
    // flight for more of the query than any other stage, so shrinking it
    // moves the finish line.
    QueryStage critical_stage = QueryStage::kRead;
    int64_t critical_covered_nanos = 0;
    double critical_fraction = 0.0;  // covered / wall
    int64_t busy_nanos_total = 0;    // across busy stages
    int64_t blocked_nanos_total = 0;  // across wait stages
    size_t distinct_threads = 0;      // across all stages
    uint64_t spans_dropped = 0;
  };

  // `max_spans_per_stage` bounds memory; spans beyond it still count into
  // busy_nanos/spans but are excluded from the interval union.
  explicit SpanProfiler(const Clock* clock = RealClock::Instance(),
                        size_t max_spans_per_stage = 1 << 16);

  // Stamps the query-start instant (the constructor does too; call again to
  // re-anchor after setup work that should not count as wall time).
  void Begin() EXCLUDES(mu_);
  // Stamps the query-end instant; idempotent, later calls win. Aggregate
  // uses "now" when End was never called.
  void End() EXCLUDES(mu_);

  void RecordSpan(QueryStage stage, uint32_t tid, int64_t start_nanos,
                  int64_t dur_nanos) EXCLUDES(mu_);

  // RAII helper: times its scope on the current thread.
  class Scope {
   public:
    Scope(SpanProfiler* profiler, QueryStage stage);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanProfiler* profiler_;
    QueryStage stage_;
    int64_t start_nanos_;
  };

  Report Aggregate() const EXCLUDES(mu_);

  int64_t start_nanos() const EXCLUDES(mu_);

 private:
  const Clock* const clock_;
  const size_t max_spans_per_stage_;
  mutable Mutex mu_{LockRank::kSpanProfiler, "SpanProfiler.mu"};
  int64_t begin_nanos_ GUARDED_BY(mu_) = 0;
  int64_t end_nanos_ GUARDED_BY(mu_) = 0;  // 0 = not ended
  std::array<std::vector<Span>, kNumQueryStages> spans_ GUARDED_BY(mu_);
  std::array<StageStats, kNumQueryStages> totals_ GUARDED_BY(mu_);
  std::array<std::set<uint32_t>, kNumQueryStages> stage_tids_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_SPAN_PROFILER_H_
