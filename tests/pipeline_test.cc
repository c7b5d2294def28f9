#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "pipeline/bounded_queue.h"
#include "pipeline/thread_pool.h"
#include "pipeline/ticker.h"

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

size_t CountThreads() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(TickerTest, EachTaskTicksEveryPeriod) {
  const size_t threads_before = CountThreads();
  Ticker ticker;
  EXPECT_EQ(CountThreads(), threads_before);  // no task, no thread
  std::atomic<int> fast{0};
  std::atomic<int> slow{0};
  const auto start = std::chrono::steady_clock::now();
  Ticker::Handle a = ticker.Every(std::chrono::milliseconds(2),
                                  [&fast] { fast.fetch_add(1); });
  Ticker::Handle b = ticker.Every(std::chrono::milliseconds(10),
                                  [&slow] { slow.fetch_add(1); });
  EXPECT_EQ(CountThreads(), threads_before + 1);  // one thread for both
  SleepMs(200);
  a.Cancel();
  b.Cancel();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  // Ticks start a full period apart, so a task never ticks more than
  // elapsed / period + 1 times; demand well under the nominal count so a
  // loaded machine still passes.
  EXPECT_GE(fast.load(), 20);
  EXPECT_LE(fast.load(), elapsed_ms / 2 + 1);
  EXPECT_GE(slow.load(), 5);
  EXPECT_LE(slow.load(), elapsed_ms / 10 + 1);
}

TEST(TickerTest, CancelWaitsForARunningTick) {
  Ticker ticker;
  std::atomic<bool> in_tick{false};
  std::atomic<bool> finished{false};
  std::atomic<int> ticks{0};
  Ticker::Handle handle =
      ticker.Every(std::chrono::milliseconds(1), [&] {
        ticks.fetch_add(1);
        in_tick = true;
        SleepMs(50);
        finished = true;
      });
  while (!in_tick.load()) std::this_thread::yield();
  handle.Cancel();
  EXPECT_TRUE(finished.load());
  const int after_cancel = ticks.load();
  SleepMs(20);
  EXPECT_EQ(ticks.load(), after_cancel);
  handle.Cancel();  // idempotent
}

TEST(TickerTest, TicksNeverOverlap) {
  Ticker ticker;
  std::atomic<int> active{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> ticks[3] = {0, 0, 0};
  std::vector<Ticker::Handle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(ticker.Every(std::chrono::milliseconds(1), [&, i] {
      if (active.fetch_add(1) != 0) overlapped = true;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      active.fetch_sub(1);
      ticks[i].fetch_add(1);
    }));
  }
  SleepMs(60);
  handles.clear();
  EXPECT_FALSE(overlapped.load());
  for (const auto& n : ticks) EXPECT_GT(n.load(), 0);
}

TEST(TickerTest, DestroyingTheHandleCancelsItsTask) {
  Ticker ticker;
  std::atomic<int> ticks{0};
  {
    Ticker::Handle handle = ticker.Every(std::chrono::milliseconds(1),
                                         [&ticks] { ticks.fetch_add(1); });
    Ticker::Handle moved = std::move(handle);  // the task moves with it
    EXPECT_FALSE(handle);
    while (ticks.load() < 2) std::this_thread::yield();
  }
  const int after = ticks.load();
  SleepMs(20);
  EXPECT_EQ(ticks.load(), after);
}

TEST(TickerTest, SharedIsOneTickerPerProcess) {
  Ticker& shared = Ticker::Shared();
  EXPECT_EQ(&shared, &Ticker::Shared());
  std::atomic<int> ticks{0};
  Ticker::Handle handle = shared.Every(std::chrono::milliseconds(1),
                                       [&ticks] { ticks.fetch_add(1); });
  while (ticks.load() < 2) std::this_thread::yield();
}

TEST(TickerTest, ForkedChildGetsAFreshTickerThatTicks) {
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer kills a child that starts a thread after a fork of a
  // multi-threaded process, and the parent's ticker thread runs here.
  GTEST_SKIP() << "threads started after a multi-threaded fork";
#endif
  Ticker& shared = Ticker::Shared();
  std::atomic<int> parent_ticks{0};
  Ticker::Handle parent = shared.Every(
      std::chrono::milliseconds(1), [&] { parent_ticks.fetch_add(1); });
  while (parent_ticks.load() < 2) std::this_thread::yield();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child inherits the parent's ticker object but not its thread.
    if (&Ticker::Shared() == &shared) _exit(2);
    std::atomic<int> ticks{0};
    Ticker::Handle child = Ticker::Shared().Every(
        std::chrono::milliseconds(1), [&ticks] { ticks.fetch_add(1); });
    for (int i = 0; i < 2000 && ticks.load() < 3; ++i) SleepMs(1);
    _exit(ticks.load() >= 3 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace scanraw
