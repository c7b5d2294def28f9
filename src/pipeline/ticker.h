// One housekeeping thread per process for every periodic tick: a running
// query's §3.3 resource sample and progress report, the stall watchdog's
// check, the stats server's time-series sampling and the CLI's rate
// printer. The thread starts with the first Every(), so a process that
// registers no tick runs no housekeeping thread.
//
// Ticks run one at a time and must not block: a slow tick delays every
// other task, the watchdog's included. A tick takes only in-memory locks
// below LockRank::kIoBoundary (never held across a blocking call), or
// writes a short diagnostic. A late tick is not made up: the next one is
// due a full period after the late one started.
#ifndef SCANRAW_PIPELINE_TICKER_H_
#define SCANRAW_PIPELINE_TICKER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "common/thread_annotations.h"

namespace scanraw {

class Ticker {
 public:
  using Tick = std::function<void()>;

  // A registered task. Cancel(), which the destructor runs, unregisters it
  // and returns only after a running tick of it has finished. Never cancel
  // from a tick, nor while holding a lock a tick takes or any lock below
  // kIoBoundary (lock-debug builds assert the last).
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept;
    ~Handle() { Cancel(); }

    void Cancel();  // idempotent
    explicit operator bool() const { return ticker_ != nullptr; }

   private:
    friend class Ticker;
    Ticker* ticker_ = nullptr;
    uint64_t id_ = 0;
  };

  Ticker() = default;
  ~Ticker();  // joins the thread; cancel every handle first
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  // The process's ticker, held with ThreadPool::Shared() in one pid-checked
  // singleton (pipeline/thread_pool.cc): a forked child gets a fresh one.
  static Ticker& Shared();

  // Runs `tick` every `period` (at least 1 ms), first one period from now.
  [[nodiscard]] Handle Every(std::chrono::nanoseconds period, Tick tick)
      EXCLUDES(mu_);

 private:
  struct Task {
    int64_t period_nanos;
    int64_t due_nanos;
    std::shared_ptr<const Tick> tick;  // the loop holds a copy while ticking
  };

  void Loop() EXCLUDES(mu_);
  void Cancel(uint64_t id) EXCLUDES(mu_);

  Mutex mu_{LockRank::kTicker, "Ticker.mu"};
  CondVar wake_;       // a task was added, or the ticker stops
  CondVar tick_done_;  // the running tick returned
  std::map<uint64_t, Task> tasks_ GUARDED_BY(mu_);  // keyed by task id
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t running_ GUARDED_BY(mu_) = 0;  // task ticking now; 0 = none
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;  // started under mu_ by the first Every
};

}  // namespace scanraw

#endif  // SCANRAW_PIPELINE_TICKER_H_
