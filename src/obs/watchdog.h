// Stall watchdog: turns silent hangs into diagnosable events. A task on the
// process's ticker (pipeline/ticker.h) samples the StageHeartbeats board
// every window / 4 (at least 1 ms); a stage that has threads inside it
// (active > 0) whose beat counter stops moving for a whole window is
// declared stalled — the watchdog logs a structured report, dumps the
// flight recorder (so the post-mortem shows what every thread was last
// doing), and optionally aborts the process. Progress resets the episode;
// a stage only re-alarms after it has moved again and stalled again, so
// one wedged query produces one report, not one per tick.
#ifndef SCANRAW_OBS_WATCHDOG_H_
#define SCANRAW_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/heartbeat.h"
#include "pipeline/ticker.h"

namespace scanraw {
namespace obs {

struct WatchdogOptions {
  // No-progress window before a stage is declared stalled. The heartbeats
  // are checked every window / 4, so the alarm comes well under 2x the
  // window even when the stall starts right after a check.
  int64_t window_ms = 5000;
  // Crash-style abort after reporting. Off by default: a resident server
  // wants the report and the dump, not a restart loop.
  bool abort_on_stall = false;
  // Flight-recorder dump destination on stall. Empty = the
  // SCANRAW_FLIGHT_DUMP env var; if that is unset too, dump to stderr.
  std::string flight_dump_path;
  // Injectable for tests.
  const Clock* clock = RealClock::Instance();
};

class Watchdog {
 public:
  struct StallReport {
    HeartbeatStage stage = HeartbeatStage::kRead;
    int64_t ts_nanos = 0;
    int64_t stalled_ms = 0;   // how long the stage had made no progress
    uint64_t beats = 0;       // beat count frozen at this value
    int64_t active = 0;       // threads stuck inside the stage
    // Per-thread held-lock stacks at report time (lockdebug snapshot);
    // empty outside SCANRAW_LOCK_DEBUG builds. A stall is usually a thread
    // wedged under a lock — this names the lock without a debugger.
    std::string held_locks;
  };

  Watchdog(StageHeartbeats* heartbeats, WatchdogOptions options);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Registers CheckNow on the shared ticker; Stop cancels it (idempotent;
  // the destructor calls it). Both belong to the owner's thread.
  void Start();
  void Stop();

  // One sampling pass, callable directly (tests drive it with a
  // VirtualClock; the ticker calls it every check interval).
  void CheckNow() EXCLUDES(mu_);

  uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  std::vector<StallReport> Reports() const EXCLUDES(mu_);

  int64_t window_ms() const { return options_.window_ms; }

 private:
  void ReportStall(const StallReport& report) REQUIRES(mu_);

  StageHeartbeats* const heartbeats_;
  const WatchdogOptions options_;

  std::atomic<uint64_t> stalls_{0};
  Ticker::Handle check_;  // set between Start and Stop

  mutable Mutex mu_{LockRank::kWatchdog, "Watchdog.mu"};

  struct StageState {
    uint64_t last_beats = 0;
    int64_t no_progress_since_nanos = 0;  // 0 = progressing
    bool alarmed = false;  // suppress re-alarm until progress resumes
  };
  StageState stages_[kNumHeartbeatStages] GUARDED_BY(mu_);
  std::vector<StallReport> reports_ GUARDED_BY(mu_);  // bounded
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_WATCHDOG_H_
