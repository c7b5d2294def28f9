// Chunk-lifecycle tracer: records one span per pipeline stage per chunk
// (READ -> TOKENIZE -> PARSE -> WRITE) into a bounded ring buffer, plus
// instant events for scheduler decisions (speculative triggers, safeguard
// flushes). The buffer exports Chrome trace_event JSON, loadable by
// chrome://tracing or Perfetto, so a query's execution can be audited after
// the fact. Recording is mutex-guarded — events are per chunk-stage, orders
// of magnitude rarer than per-row work, so contention is negligible and the
// structure is trivially race-free.
#ifndef SCANRAW_OBS_TRACE_H_
#define SCANRAW_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// Small dense id for the current OS thread, stable for the thread's
// lifetime (first call assigns the next free id).
uint32_t CurrentThreadId();

enum class TraceStage : uint8_t {
  kRead = 0,
  kTokenize = 1,
  kParse = 2,
  kWrite = 3,
  // Instant events (duration 0): scheduler decisions.
  kSpeculativeTrigger = 4,
  kSafeguardFlush = 5,
  kReadBlocked = 6,
};

std::string_view TraceStageName(TraceStage stage);

// Where the chunk's bytes came from (§3.2.1 delivery order).
enum class ChunkSource : uint8_t { kRaw = 0, kCache = 1, kDb = 2 };

std::string_view ChunkSourceName(ChunkSource source);

struct TraceEvent {
  TraceStage stage = TraceStage::kRead;
  ChunkSource source = ChunkSource::kRaw;
  uint64_t chunk_index = 0;
  uint32_t tid = 0;
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;
};

class ChunkTracer {
 public:
  // `capacity` bounds the ring, which grows as events arrive; once full,
  // the oldest events are overwritten (dropped() reports how many). 0
  // disables recording.
  explicit ChunkTracer(size_t capacity = 1 << 14);

  bool enabled() const { return capacity_ > 0; }

  // Human-readable label (table or file name) emitted as a Chrome
  // process_name metadata event; arbitrary bytes are JSON-escaped on export.
  void SetLabel(std::string label) EXCLUDES(mu_);
  std::string label() const EXCLUDES(mu_);

  void Record(const TraceEvent& event) EXCLUDES(mu_);

  // Convenience: stamps tid and start time (end - duration) itself.
  void RecordSpan(TraceStage stage, ChunkSource source, uint64_t chunk_index,
                  int64_t start_nanos, int64_t dur_nanos);
  void RecordInstant(TraceStage stage, uint64_t chunk_index,
                     const Clock* clock = RealClock::Instance());

  // Events in record order, oldest surviving first.
  std::vector<TraceEvent> Snapshot() const EXCLUDES(mu_);

  uint64_t recorded() const EXCLUDES(mu_);  // total ever recorded
  uint64_t dropped() const EXCLUDES(mu_);   // overwritten by ring wrap
  void Clear() EXCLUDES(mu_);

  // Chrome trace_event JSON: an array of complete ("ph":"X") events for
  // stage spans and instant ("ph":"i") events for scheduler decisions.
  // Timestamps are microseconds relative to the earliest event.
  std::string ToChromeTraceJson() const EXCLUDES(mu_);

 private:
  const size_t capacity_;
  mutable Mutex mu_{LockRank::kChunkTracer, "ChunkTracer.mu"};
  std::string label_ GUARDED_BY(mu_);
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);  // at most capacity_
  // Total recorded since Clear(); ring slot is next_ % capacity_.
  uint64_t next_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_TRACE_H_
