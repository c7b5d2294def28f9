#include "obs/watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/lock_debug.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"

namespace scanraw {
namespace obs {

namespace {
constexpr size_t kMaxRetainedReports = 64;
}  // namespace

Watchdog::Watchdog(StageHeartbeats* heartbeats, WatchdogOptions options)
    : heartbeats_(heartbeats), options_(std::move(options)) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::Start() {
  if (check_) return;
  check_ = Ticker::Shared().Every(
      std::chrono::milliseconds(std::max<int64_t>(1, options_.window_ms / 4)),
      [this] { CheckNow(); });
}

void Watchdog::Stop() { check_.Cancel(); }

void Watchdog::CheckNow() {
  const int64_t now = options_.clock->NowNanos();
  const int64_t window_nanos = options_.window_ms * 1'000'000;
  MutexLock lock(mu_);
  for (size_t i = 0; i < kNumHeartbeatStages; ++i) {
    const auto stage = static_cast<HeartbeatStage>(i);
    StageState& state = stages_[i];
    const uint64_t beats = heartbeats_->beats(stage);
    const int64_t active = heartbeats_->active(stage);
    if (beats != state.last_beats || active <= 0) {
      // Progress (or nothing in flight): reset the episode and re-arm.
      state.last_beats = beats;
      state.no_progress_since_nanos = 0;
      state.alarmed = false;
      continue;
    }
    if (state.no_progress_since_nanos == 0) {
      state.no_progress_since_nanos = now;
      continue;
    }
    const int64_t stalled = now - state.no_progress_since_nanos;
    if (stalled < window_nanos || state.alarmed) continue;
    state.alarmed = true;
    StallReport report;
    report.stage = stage;
    report.ts_nanos = now;
    report.stalled_ms = stalled / 1'000'000;
    report.beats = beats;
    report.active = active;
    report.held_locks = lockdebug::SnapshotAllThreads();
    ReportStall(report);
  }
}

void Watchdog::ReportStall(const StallReport& report) {
  stalls_.fetch_add(1, std::memory_order_relaxed);
  if (reports_.size() < kMaxRetainedReports) reports_.push_back(report);

  LOG_ERROR(
      "watchdog: stage %s stalled for %lld ms (beats frozen at %llu, "
      "%lld thread(s) inside); dumping flight recorder%s",
      std::string(HeartbeatStageName(report.stage)).c_str(),
      static_cast<long long>(report.stalled_ms),
      static_cast<unsigned long long>(report.beats),
      static_cast<long long>(report.active),
      options_.abort_on_stall ? " and aborting" : "");
  if (!report.held_locks.empty()) {
    LOG_ERROR("watchdog: held locks at stall:\n%s",
              report.held_locks.c_str());
  }

  // Dump destination: explicit option > SCANRAW_FLIGHT_DUMP env > stderr.
  FlightRecorder* recorder = FlightRecorder::Global();
  const char* path = nullptr;
  if (!options_.flight_dump_path.empty()) {
    path = options_.flight_dump_path.c_str();
  } else {
    const char* env = std::getenv("SCANRAW_FLIGHT_DUMP");
    if (env != nullptr && env[0] != '\0') path = env;
  }
  bool dumped = false;
  if (path != nullptr) {
    dumped = recorder->DumpToFile(path);
    if (!dumped) {
      LOG_ERROR("watchdog: flight dump to %s failed; dumping to stderr",
                path);
    }
  }
  if (!dumped) recorder->DumpTo(2);

  if (options_.abort_on_stall) std::abort();
}

std::vector<Watchdog::StallReport> Watchdog::Reports() const {
  MutexLock lock(mu_);
  return reports_;
}

}  // namespace obs
}  // namespace scanraw
