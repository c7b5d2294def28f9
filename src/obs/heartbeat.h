// Per-stage liveness heartbeats for the stall watchdog. Each pipeline stage
// (READ, TOKENIZE, PARSE, WRITE, plus the DiskArbiter's blocking waits)
// ticks a relaxed atomic counter whenever it makes progress and marks
// itself active while it has work in flight. The watchdog samples the
// counters on the ticker: a stage that is active but whose beat count
// stops moving for a whole window is stalled. Header-only and dependency
// free so both the io layer (DiskArbiter) and the core pipeline can beat
// into the same instance without linking anything new; the hot path cost is
// one relaxed fetch_add per chunk-stage, far below the per-row work.
#ifndef SCANRAW_OBS_HEARTBEAT_H_
#define SCANRAW_OBS_HEARTBEAT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace scanraw {
namespace obs {

// Watchdog-visible stages. Coarser than QueryStage: the watchdog cares
// about which loop is wedged, not per-query attribution.
enum class HeartbeatStage : uint8_t {
  kRead = 0,
  kTokenize = 1,
  kParse = 2,
  kWrite = 3,
  kArbiter = 4,  // threads blocked acquiring the disk
};

inline constexpr size_t kNumHeartbeatStages = 5;

inline std::string_view HeartbeatStageName(HeartbeatStage stage) {
  switch (stage) {
    case HeartbeatStage::kRead:
      return "READ";
    case HeartbeatStage::kTokenize:
      return "TOKENIZE";
    case HeartbeatStage::kParse:
      return "PARSE";
    case HeartbeatStage::kWrite:
      return "WRITE";
    case HeartbeatStage::kArbiter:
      return "ARBITER";
  }
  return "UNKNOWN";
}

// Shared heartbeat board. All operations are relaxed atomics: the watchdog
// tolerates slightly stale reads (it waits a whole window before alarming),
// and stages must never pay a fence for liveness accounting.
class StageHeartbeats {
 public:
  StageHeartbeats() = default;
  StageHeartbeats(const StageHeartbeats&) = delete;
  StageHeartbeats& operator=(const StageHeartbeats&) = delete;

  // A thread entered the stage (has work in flight). Counts as progress.
  void Enter(HeartbeatStage stage) {
    Slot& s = slot(stage);
    s.active.fetch_add(1, std::memory_order_relaxed);
    s.beats.fetch_add(1, std::memory_order_relaxed);
  }

  // The thread left the stage. Counts as progress (finishing is progress).
  void Leave(HeartbeatStage stage) {
    Slot& s = slot(stage);
    s.beats.fetch_add(1, std::memory_order_relaxed);
    s.active.fetch_sub(1, std::memory_order_relaxed);
  }

  // The stage made forward progress (consumed a chunk, wrote a buffer, ...).
  void Beat(HeartbeatStage stage) {
    slot(stage).beats.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t beats(HeartbeatStage stage) const {
    return slot(stage).beats.load(std::memory_order_relaxed);
  }
  // Number of threads currently inside the stage.
  int64_t active(HeartbeatStage stage) const {
    return slot(stage).active.load(std::memory_order_relaxed);
  }

  // RAII Enter/Leave. Null-safe so call sites need no telemetry guard.
  class Scope {
   public:
    Scope(StageHeartbeats* hb, HeartbeatStage stage) : hb_(hb), stage_(stage) {
      if (hb_ != nullptr) hb_->Enter(stage_);
    }
    ~Scope() {
      if (hb_ != nullptr) hb_->Leave(stage_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageHeartbeats* hb_;
    HeartbeatStage stage_;
  };

 private:
  struct Slot {
    std::atomic<uint64_t> beats{0};
    std::atomic<int64_t> active{0};
  };

  Slot& slot(HeartbeatStage stage) {
    return slots_[static_cast<size_t>(stage)];
  }
  const Slot& slot(HeartbeatStage stage) const {
    return slots_[static_cast<size_t>(stage)];
  }

  Slot slots_[kNumHeartbeatStages];
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_HEARTBEAT_H_
