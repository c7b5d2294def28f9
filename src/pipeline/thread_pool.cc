#include "pipeline/thread_pool.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>

namespace scanraw {

namespace {

// The shared pool and the process that created it. Never destroyed: its
// workers live as long as the process, and an instance inherited across
// fork() has no threads left to join.
struct SharedPool {
  explicit SharedPool(SharedPool* parent)
      : pool(std::max(1u, std::thread::hardware_concurrency())),
        pid(getpid()),
        inherited(parent) {}
  ThreadPool pool;
  const pid_t pid;
  // The parent process's instance, kept reachable so a forked child's leak
  // checker does not report it.
  SharedPool* const inherited;
};

std::atomic<SharedPool*> g_shared_pool{nullptr};

}  // namespace

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

ThreadPool& ThreadPool::Shared() {
  SharedPool* current = g_shared_pool.load(std::memory_order_acquire);
  const pid_t pid = getpid();
  while (current == nullptr || current->pid != pid) {
    auto* fresh = new SharedPool(current);
    if (g_shared_pool.compare_exchange_strong(current, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh->pool;
    }
    delete fresh;  // lost the race: `current` now holds the winner
  }
  return current->pool;
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
