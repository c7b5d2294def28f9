#include "obs/trace.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace scanraw {
namespace obs {

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kRead:
      return "READ";
    case TraceStage::kTokenize:
      return "TOKENIZE";
    case TraceStage::kParse:
      return "PARSE";
    case TraceStage::kWrite:
      return "WRITE";
    case TraceStage::kSpeculativeTrigger:
      return "SPECULATIVE_TRIGGER";
    case TraceStage::kSafeguardFlush:
      return "SAFEGUARD_FLUSH";
    case TraceStage::kReadBlocked:
      return "READ_BLOCKED";
  }
  return "UNKNOWN";
}

std::string_view ChunkSourceName(ChunkSource source) {
  switch (source) {
    case ChunkSource::kRaw:
      return "raw";
    case ChunkSource::kCache:
      return "cache";
    case ChunkSource::kDb:
      return "db";
  }
  return "unknown";
}

ChunkTracer::ChunkTracer(size_t capacity) : capacity_(capacity) {}

void ChunkTracer::SetLabel(std::string label) {
  MutexLock lock(mu_);
  label_ = std::move(label);
}

std::string ChunkTracer::label() const {
  MutexLock lock(mu_);
  return label_;
}

void ChunkTracer::Record(const TraceEvent& event) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  // The ring grows to capacity_ on demand, then wraps: a tracer nothing
  // records into costs no memory.
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_ % capacity_] = event;
  }
  ++next_;
}

void ChunkTracer::RecordSpan(TraceStage stage, ChunkSource source,
                             uint64_t chunk_index, int64_t start_nanos,
                             int64_t dur_nanos) {
  if (capacity_ == 0) return;
  TraceEvent event;
  event.stage = stage;
  event.source = source;
  event.chunk_index = chunk_index;
  event.tid = CurrentThreadId();
  event.start_nanos = start_nanos;
  event.dur_nanos = dur_nanos;
  Record(event);
}

void ChunkTracer::RecordInstant(TraceStage stage, uint64_t chunk_index,
                                const Clock* clock) {
  RecordSpan(stage, ChunkSource::kRaw, chunk_index, clock->NowNanos(), 0);
}

std::vector<TraceEvent> ChunkTracer::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  const uint64_t stored = std::min<uint64_t>(next_, capacity_);
  out.reserve(stored);
  const uint64_t begin = next_ - stored;
  for (uint64_t i = begin; i < next_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

uint64_t ChunkTracer::recorded() const {
  MutexLock lock(mu_);
  return next_;
}

uint64_t ChunkTracer::dropped() const {
  MutexLock lock(mu_);
  return next_ > capacity_ ? next_ - capacity_ : 0;
}

void ChunkTracer::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
}

std::string ChunkTracer::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  int64_t epoch = 0;
  for (const TraceEvent& e : events) {
    if (epoch == 0 || e.start_nanos < epoch) epoch = e.start_nanos;
  }
  std::string out = "[";
  bool first = true;
  const std::string name = label();
  if (!name.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
           "{\"name\":\"" +
           JsonEscape(name) + "\"}}";
    first = false;
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ",\n";
    first = false;
    const bool instant = e.stage >= TraceStage::kSpeculativeTrigger;
    out += "{\"name\":\"";
    out += TraceStageName(e.stage);
    out += "\",\"cat\":\"scanraw\",\"ph\":\"";
    out += instant ? "i" : "X";
    out += "\",\"ts\":" + std::to_string((e.start_nanos - epoch) / 1000);
    if (!instant) {
      out += ",\"dur\":" + std::to_string(e.dur_nanos / 1000);
    } else {
      out += ",\"s\":\"p\"";
    }
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    out += ",\"args\":{\"chunk\":" + std::to_string(e.chunk_index);
    out += ",\"source\":\"";
    out += ChunkSourceName(e.source);
    out += "\"}}";
  }
  out += "]\n";
  return out;
}

}  // namespace obs
}  // namespace scanraw
