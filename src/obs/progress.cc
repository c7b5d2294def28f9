#include "obs/progress.h"

#include <algorithm>
#include <cstdio>

namespace scanraw {
namespace obs {

std::string QueryProgress::ToLine() const {
  char buf[160];
  char eta[32];
  if (eta_seconds >= 0) {
    std::snprintf(eta, sizeof(eta), "ETA %.1fs", eta_seconds);
  } else {
    std::snprintf(eta, sizeof(eta), "ETA --");
  }
  if (bytes_total > 0 || complete) {
    // A finished discovery scan's chunk total is what it delivered.
    std::snprintf(buf, sizeof(buf),
                  "%5.1f%% %6.1f MB/s %s (%llu/%llu chunks, %llu loaded)",
                  100.0 * fraction, throughput_bps / 1e6, eta,
                  static_cast<unsigned long long>(chunks_delivered),
                  static_cast<unsigned long long>(
                      chunks_total > 0 ? chunks_total : chunks_delivered),
                  static_cast<unsigned long long>(chunks_loaded));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%.1f MB %6.1f MB/s (%llu chunks, %llu loaded)",
                  static_cast<double>(bytes_processed) / 1e6,
                  throughput_bps / 1e6,
                  static_cast<unsigned long long>(chunks_delivered),
                  static_cast<unsigned long long>(chunks_loaded));
  }
  return buf;
}

ProgressTracker::ProgressTracker(uint64_t bytes_total, const Clock* clock)
    : clock_(clock), bytes_total_(bytes_total) {
  start_nanos_ = clock_->NowNanos();
}

void ProgressTracker::set_totals(uint64_t bytes_total, uint64_t chunks_total) {
  MutexLock lock(mu_);
  bytes_total_ = bytes_total;
  chunks_total_ = chunks_total;
}

QueryProgress ProgressTracker::Snapshot() {
  QueryProgress p;
  p.bytes_processed = bytes_.load(std::memory_order_relaxed);
  p.chunks_delivered = chunks_.load(std::memory_order_relaxed);
  p.chunks_loaded = loaded_.load(std::memory_order_relaxed);
  const int64_t now = clock_->NowNanos();

  MutexLock lock(mu_);
  p.bytes_total = bytes_total_;
  p.chunks_total = chunks_total_;
  p.elapsed_seconds = static_cast<double>(now - start_nanos_) * 1e-9;
  window_.emplace_back(now, p.bytes_processed);
  while (window_.size() > kWindowSamples) window_.pop_front();

  const auto& [t0, b0] = window_.front();
  const double span_s = static_cast<double>(now - t0) * 1e-9;
  if (span_s > 0 && p.bytes_processed >= b0) {
    p.throughput_bps =
        static_cast<double>(p.bytes_processed - b0) / span_s;
  }
  if (p.bytes_total > 0) {
    p.fraction = std::min(
        1.0, static_cast<double>(p.bytes_processed) /
                 static_cast<double>(p.bytes_total));
    if (p.throughput_bps > 0 && p.bytes_total >= p.bytes_processed) {
      p.eta_seconds =
          static_cast<double>(p.bytes_total - p.bytes_processed) /
          p.throughput_bps;
    }
  }
  if (complete_.load(std::memory_order_acquire)) {
    // Clean finish: report exactly 100% done. Totals may have been
    // estimates (discovery scans) or skipped chunks may round the byte
    // fraction short of 1.0; completion is authoritative.
    p.complete = true;
    p.fraction = 1.0;
    p.eta_seconds = 0;
  }
  return p;
}

}  // namespace obs
}  // namespace scanraw
