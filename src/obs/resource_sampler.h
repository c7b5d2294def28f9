// Resource-advice samples (§3.3): a running query probes the live pipeline
// (buffer occupancy, busy workers, cache fill, disk arbiter busy time) at
// start, every sampling interval on the ticker and at its end, with the
// scheduler's resource Advice state (kNeedMoreCpu / kIoBound /
// kEngineBound). The series makes speculative-trigger decisions auditable
// after the fact and feeds the CLI's --metrics=json export.
#ifndef SCANRAW_OBS_RESOURCE_SAMPLER_H_
#define SCANRAW_OBS_RESOURCE_SAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

// One probe of the live pipeline. `advice` is the §3.3 state name
// ("balanced", "need-more-cpu", "io-bound", "engine-bound").
struct ResourceSample {
  int64_t ts_nanos = 0;
  std::string advice = "balanced";
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
  int64_t disk_reader_busy_nanos = 0;
  int64_t disk_writer_busy_nanos = 0;
};

// Bounded, thread-safe sample store shared by every query recording into the
// same telemetry sink. Keeps the most recent `capacity` samples.
class ResourceLog {
 public:
  explicit ResourceLog(size_t capacity = 4096) : capacity_(capacity) {}

  void Append(ResourceSample sample) EXCLUDES(mu_);
  std::vector<ResourceSample> Snapshot() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  uint64_t total_appended() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  // JSON array of samples; timestamps become microseconds relative to the
  // first sample.
  std::string ToJson() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_{LockRank::kResourceLog, "ResourceLog.mu"};
  std::vector<ResourceSample> ring_ GUARDED_BY(mu_);
  uint64_t next_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_RESOURCE_SAMPLER_H_
