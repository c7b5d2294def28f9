#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "pipeline/bounded_queue.h"
#include "pipeline/thread_pool.h"

namespace scanraw {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.Push(7);
  q.Push(8);
  q.Close();
  EXPECT_FALSE(q.Push(9));
  EXPECT_EQ(*q.Pop(), 7);
  EXPECT_EQ(*q.Pop(), 8);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, CloseUnblocksWaiters) {
  BoundedQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.Push(2));  // blocked until Close, then fails
    push_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
}

TEST(BoundedQueueTest, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  q.Push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> total{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.Push(i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) total += *v;
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(total.load(),
            static_cast<long>(kProducers) * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::thread::id task_thread;
  pool.Submit([&] { task_thread = std::this_thread::get_id(); });
  EXPECT_EQ(task_thread, std::this_thread::get_id());
  EXPECT_EQ(pool.num_workers(), 0u);
}

// The pool has no idle wait; tests spin on what their tasks report.
void AwaitCount(const std::atomic<int>& count, int target) {
  while (count.load() < target) std::this_thread::yield();
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  AwaitCount(count, 100);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<bool> different{false};
  const auto caller = std::this_thread::get_id();
  pool.Submit([&] {
    if (std::this_thread::get_id() != caller) different = true;
    ran = 1;
  });
  AwaitCount(ran, 1);
  EXPECT_TRUE(different.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SharedPoolIsOneProcessWidePool) {
  ThreadPool& pool = ThreadPool::Shared();
  EXPECT_EQ(&pool, &ThreadPool::Shared());
  EXPECT_EQ(pool.num_workers(),
            std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
  AwaitCount(count, 20);
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace scanraw
