#include "tracer.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  Span span;
  span.name = name;
  span.parent = tracer->open_.empty()
                    ? kNoParent
                    : static_cast<int32_t>(tracer->open_.back());
  span.query = tracer->query_;
  index_ = tracer->spans_.size();
  tracer->spans_.push_back(span);
  tracer->open_.push_back(index_);
  tracer->spans_[index_].start = NowNanos();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end = NowNanos();
  tracer_->open_.pop_back();
}

int64_t Tracer::Scope::nanos_so_far() const {
  return NowNanos() - tracer_->spans_[index_].start;
}

std::vector<int64_t> Tracer::SelfNanos() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Children of one parent run sequentially on the client thread, so their
  // durations never overlap and subtract directly.
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) self[span.parent] -= span.end - span.start;
  }
  return self;
}

std::vector<Tracer::RootBreakdown> Tracer::Breakdown(
    const std::string& root) const {
  std::vector<RootBreakdown> out;
  std::map<size_t, size_t> slot;  // span index -> out index
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent == kNoParent) {
      if (root == span.name) {
        slot[i] = out.size();
        out.push_back({span.end - span.start, {}});
      }
      continue;
    }
    auto it = slot.find(static_cast<size_t>(span.parent));
    if (it != slot.end()) {
      out[it->second].children[span.name] += span.end - span.start;
    }
  }
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return Status::IoError("cannot write " + path);
  const std::vector<int64_t> self = SelfNanos();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(file.get(), "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"query\":%u,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start - origin) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3, i, s.parent,
                 s.query, static_cast<double>(self[i]) * 1e-3);
  }
  std::fprintf(file.get(), "\n]\n");
  if (std::ferror(file.get())) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace perfbench
