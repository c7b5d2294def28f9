// Worker thread pool with the scheduling semantics of §3.2: READ, TOKENIZE
// and PARSE run as chunk-sized tasks on one dynamically scheduled pool.
// Every ScanRaw shares the process-wide pool (Shared()); a query caps how
// many of its own tasks run at once instead of owning threads. A pool of
// size 0 runs each task inline on the submitting thread.
#ifndef SCANRAW_PIPELINE_THREAD_POOL_H_
#define SCANRAW_PIPELINE_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace scanraw {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The process-wide pool, sized once from std::thread::hardware_concurrency()
  // and created on first use. A forked child inherits the parent's pool
  // object but none of its threads, so the first call in a new process
  // replaces it with a fresh pool and leaves the inherited one untouched.
  static ThreadPool& Shared();

  // Enqueues a task. With zero workers the task runs on the calling thread
  // before Submit returns. The destructor runs every queued task first.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  size_t num_workers() const { return threads_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_{LockRank::kThreadPool, "ThreadPool.mu"};
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  // Started in the constructor, joined in the destructor; const between.
  std::vector<std::thread> threads_;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace scanraw

#endif  // SCANRAW_PIPELINE_THREAD_POOL_H_
