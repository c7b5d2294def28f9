// BoundedQueue: a blocking producer/consumer buffer; the operator's WRITE
// requests flow through one (§3.1: "Buffers are characteristic to any
// pipeline implementation and operate using the standard producer-consumer
// paradigm ... The entire process is regulated by the size of the
// buffers").
#ifndef SCANRAW_PIPELINE_BOUNDED_QUEUE_H_
#define SCANRAW_PIPELINE_BOUNDED_QUEUE_H_

#include <deque>
#include <optional>
#include <utility>

#include "common/thread_annotations.h"

namespace scanraw {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (items_.size() >= capacity_ && !closed_) not_full_.Wait(lock);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  // Blocks while empty. Returns nullopt once the queue is closed AND empty.
  std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) not_empty_.Wait(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  // After Close, pushes fail and pops drain the remaining items.
  void Close() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

 private:
  const size_t capacity_;
  Mutex mu_{LockRank::kBoundedQueue, "BoundedQueue.mu"};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace scanraw

#endif  // SCANRAW_PIPELINE_BOUNDED_QUEUE_H_
