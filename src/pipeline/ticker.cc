#include "pipeline/ticker.h"

#include <algorithm>

#include "common/clock.h"
#include "common/lock_debug.h"

namespace scanraw {

Ticker::Handle& Ticker::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    Cancel();
    std::swap(ticker_, other.ticker_);
    id_ = other.id_;
  }
  return *this;
}

void Ticker::Handle::Cancel() {
  if (ticker_ != nullptr) ticker_->Cancel(id_);
  ticker_ = nullptr;
}

Ticker::~Ticker() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    wake_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
}

Ticker::Handle Ticker::Every(std::chrono::nanoseconds period, Tick tick) {
  const int64_t period_nanos = std::max<int64_t>(period.count(), 1'000'000);
  Handle handle;
  MutexLock lock(mu_);
  handle.ticker_ = this;
  handle.id_ = next_id_++;
  tasks_.emplace(handle.id_,
                 Task{period_nanos,
                      RealClock::Instance()->NowNanos() + period_nanos,
                      std::make_shared<const Tick>(std::move(tick))});
  if (!thread_.joinable()) {
    // scanraw-lint: allow(thread-spawn) the process's housekeeping thread
    thread_ = std::thread([this] { Loop(); });
  }
  wake_.NotifyAll();
  return handle;
}

void Ticker::Cancel(uint64_t id) {
  // Waiting for a running tick that takes a lock this thread holds below
  // the I/O boundary would deadlock.
  lockdebug::AssertSafeToBlock("Ticker::Cancel");
  MutexLock lock(mu_);
  tasks_.erase(id);
  while (running_ == id) tick_done_.Wait(lock);
}

void Ticker::Loop() {
  int64_t started = 0;
  std::shared_ptr<const Tick> tick;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (running_ != 0) {  // the tick just returned
        auto it = tasks_.find(running_);  // gone if cancelled meanwhile
        if (it != tasks_.end()) {
          it->second.due_nanos = started + it->second.period_nanos;
        }
        running_ = 0;
        tick_done_.NotifyAll();
      }
      while (!stop_ && tick == nullptr) {
        auto due = std::min_element(
            tasks_.begin(), tasks_.end(), [](const auto& a, const auto& b) {
              return a.second.due_nanos < b.second.due_nanos;
            });
        const int64_t now = RealClock::Instance()->NowNanos();
        if (due == tasks_.end()) {
          wake_.Wait(lock);
        } else if (due->second.due_nanos > now) {
          wake_.WaitFor(lock,
                        std::chrono::nanoseconds(due->second.due_nanos - now));
        } else {
          running_ = due->first;
          started = now;
          tick = due->second.tick;
        }
      }
      if (stop_) return;
    }
    (*tick)();
    tick.reset();  // released before Cancel can return
  }
}

}  // namespace scanraw
