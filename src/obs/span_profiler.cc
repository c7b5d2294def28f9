#include "obs/span_profiler.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace scanraw {
namespace obs {

std::string_view QueryStageName(QueryStage stage) {
  switch (stage) {
    case QueryStage::kRead:
      return "READ";
    case QueryStage::kTokenize:
      return "TOKENIZE";
    case QueryStage::kParse:
      return "PARSE";
    case QueryStage::kWrite:
      return "WRITE";
    case QueryStage::kCacheHit:
      return "CACHE_HIT";
    case QueryStage::kHeapScan:
      return "HEAP_SCAN";
    case QueryStage::kEngine:
      return "ENGINE";
    case QueryStage::kDiskWait:
      return "DISK_WAIT";
    case QueryStage::kThrottleWait:
      return "THROTTLE_WAIT";
  }
  return "UNKNOWN";
}

SpanProfiler::SpanProfiler(const Clock* clock, size_t max_spans_per_stage)
    : clock_(clock), max_spans_per_stage_(max_spans_per_stage) {
  begin_nanos_ = clock_->NowNanos();
}

void SpanProfiler::Begin() {
  MutexLock lock(mu_);
  begin_nanos_ = clock_->NowNanos();
}

void SpanProfiler::End() {
  MutexLock lock(mu_);
  end_nanos_ = clock_->NowNanos();
}

int64_t SpanProfiler::start_nanos() const {
  MutexLock lock(mu_);
  return begin_nanos_;
}

void SpanProfiler::RecordSpan(QueryStage stage, uint32_t tid,
                              int64_t start_nanos, int64_t dur_nanos) {
  if (dur_nanos < 0) dur_nanos = 0;
  const size_t s = static_cast<size_t>(stage);
  MutexLock lock(mu_);
  StageStats& t = totals_[s];
  ++t.spans;
  t.busy_nanos += dur_nanos;
  stage_tids_[s].insert(tid);
  if (spans_[s].size() < max_spans_per_stage_) {
    spans_[s].push_back(Span{tid, start_nanos, dur_nanos});
  } else {
    ++dropped_;
  }
}

SpanProfiler::Scope::Scope(SpanProfiler* profiler, QueryStage stage)
    : profiler_(profiler),
      stage_(stage),
      start_nanos_(profiler != nullptr ? profiler->clock_->NowNanos() : 0) {}

SpanProfiler::Scope::~Scope() {
  if (profiler_ == nullptr) return;
  const int64_t dur = profiler_->clock_->NowNanos() - start_nanos_;
  profiler_->RecordSpan(stage_, CurrentThreadId(), start_nanos_, dur);
}

namespace {

// Wall-clock footprint of a span set: total length of the union of the
// [start, start+dur) intervals. Sorts a copy; spans per stage are bounded.
int64_t IntervalUnionNanos(std::vector<SpanProfiler::Span> spans) {
  if (spans.empty()) return 0;
  std::sort(spans.begin(), spans.end(),
            [](const SpanProfiler::Span& a, const SpanProfiler::Span& b) {
              return a.start_nanos < b.start_nanos;
            });
  int64_t covered = 0;
  int64_t cur_start = spans[0].start_nanos;
  int64_t cur_end = cur_start + spans[0].dur_nanos;
  for (size_t i = 1; i < spans.size(); ++i) {
    const int64_t s = spans[i].start_nanos;
    const int64_t e = s + spans[i].dur_nanos;
    if (s > cur_end) {
      covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  covered += cur_end - cur_start;
  return covered;
}

}  // namespace

SpanProfiler::Report SpanProfiler::Aggregate() const {
  Report report;
  std::array<std::vector<Span>, kNumQueryStages> spans_copy;
  std::set<uint32_t> all_tids;
  {
    MutexLock lock(mu_);
    const int64_t end =
        end_nanos_ != 0 ? end_nanos_ : clock_->NowNanos();
    report.wall_nanos = std::max<int64_t>(0, end - begin_nanos_);
    report.stages = totals_;
    report.spans_dropped = dropped_;
    for (size_t s = 0; s < kNumQueryStages; ++s) {
      report.stages[s].threads = stage_tids_[s].size();
      all_tids.insert(stage_tids_[s].begin(), stage_tids_[s].end());
      spans_copy[s] = spans_[s];
    }
  }
  report.distinct_threads = all_tids.size();
  for (size_t s = 0; s < kNumQueryStages; ++s) {
    report.stages[s].covered_nanos = IntervalUnionNanos(std::move(spans_copy[s]));
    if (QueryStageIsWait(static_cast<QueryStage>(s))) {
      report.blocked_nanos_total += report.stages[s].busy_nanos;
    } else {
      report.busy_nanos_total += report.stages[s].busy_nanos;
      if (report.stages[s].covered_nanos > report.critical_covered_nanos) {
        report.critical_covered_nanos = report.stages[s].covered_nanos;
        report.critical_stage = static_cast<QueryStage>(s);
      }
    }
  }
  if (report.wall_nanos > 0) {
    report.critical_fraction =
        static_cast<double>(report.critical_covered_nanos) /
        static_cast<double>(report.wall_nanos);
  }
  return report;
}

}  // namespace obs
}  // namespace scanraw
