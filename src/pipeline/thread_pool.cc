#include "pipeline/thread_pool.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>

#include "pipeline/ticker.h"

namespace scanraw {

namespace {

// The shared pool and ticker and the process that created them. Never
// destroyed: their threads live as long as the process, and an instance
// inherited across fork() has no threads left to join.
struct ProcessShared {
  explicit ProcessShared(ProcessShared* parent)
      : pool(std::max(1u, std::thread::hardware_concurrency())),
        pid(getpid()),
        inherited(parent) {}
  ThreadPool pool;
  Ticker ticker;
  const pid_t pid;
  // The parent process's instance, kept reachable so a forked child's leak
  // checker does not report it.
  ProcessShared* const inherited;
};

std::atomic<ProcessShared*> g_shared{nullptr};

ProcessShared& Current() {
  ProcessShared* current = g_shared.load(std::memory_order_acquire);
  const pid_t pid = getpid();
  while (current == nullptr || current->pid != pid) {
    auto* fresh = new ProcessShared(current);
    if (g_shared.compare_exchange_strong(current, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;  // lost the race: `current` now holds the winner
  }
  return *current;
}

}  // namespace

ThreadPool& ThreadPool::Shared() { return Current().pool; }
Ticker& Ticker::Shared() { return Current().ticker; }

ThreadPool::ThreadPool(size_t num_workers) {
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    // scanraw-lint: allow(thread-spawn) pool workers, joined in ~ThreadPool
    threads_.push_back(std::thread([this] { WorkerLoop(); }));
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    work_available_.NotifyAll();
  }
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    // Sequential mode: the caller is the worker.
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(lock);
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace scanraw
