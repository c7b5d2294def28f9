#include "obs/resource_sampler.h"

#include <algorithm>

#include "obs/metrics.h"

namespace scanraw {
namespace obs {

void ResourceLog::Append(ResourceSample sample) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(sample));
  } else {
    ring_[next_ % capacity_] = std::move(sample);
  }
  ++next_;
}

std::vector<ResourceSample> ResourceLog::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<ResourceSample> out;
  const uint64_t stored = std::min<uint64_t>(next_, capacity_);
  out.reserve(stored);
  const uint64_t begin = next_ - stored;
  for (uint64_t i = begin; i < next_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

size_t ResourceLog::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t ResourceLog::total_appended() const {
  MutexLock lock(mu_);
  return next_;
}

void ResourceLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
}

std::string ResourceLog::ToJson() const {
  const std::vector<ResourceSample> samples = Snapshot();
  int64_t epoch = 0;
  for (const ResourceSample& s : samples) {
    if (epoch == 0 || s.ts_nanos < epoch) epoch = s.ts_nanos;
  }
  std::string out = "[";
  bool first = true;
  for (const ResourceSample& s : samples) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ts_us\":" + std::to_string((s.ts_nanos - epoch) / 1000);
    out += ",\"advice\":\"" + JsonEscape(s.advice) + "\"";
    out += ",\"text_buffer\":[" + std::to_string(s.text_buffer_size) + "," +
           std::to_string(s.text_buffer_capacity) + "]";
    out += ",\"position_buffer\":[" + std::to_string(s.position_buffer_size) +
           "," + std::to_string(s.position_buffer_capacity) + "]";
    out += ",\"output_buffer\":[" + std::to_string(s.output_buffer_size) +
           "," + std::to_string(s.output_buffer_capacity) + "]";
    out += ",\"busy_workers\":" + std::to_string(s.busy_workers);
    out += ",\"num_workers\":" + std::to_string(s.num_workers);
    out += ",\"cache\":[" + std::to_string(s.cache_size) + "," +
           std::to_string(s.cache_capacity) + "]";
    out += ",\"disk_reader_busy_us\":" +
           std::to_string(s.disk_reader_busy_nanos / 1000);
    out += ",\"disk_writer_busy_us\":" +
           std::to_string(s.disk_writer_busy_nanos / 1000);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace scanraw
