#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "common/clock.h"
#include "io/disk_arbiter.h"
#include "io/file.h"
#include "io/rate_limiter.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(FileTest, WriteThenReadRoundTrip) {
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteStringToFile(path, "hello scanraw").ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello scanraw");
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 13u);
  EXPECT_TRUE(FileExists(path));
  EXPECT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(FileTest, OpenMissingFileFails) {
  auto file = RandomAccessFile::Open(TempPath("does_not_exist"));
  ASSERT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsIoError());
}

TEST(FileTest, ReadAtOffsets) {
  const std::string path = TempPath("offsets.txt");
  ASSERT_TRUE(WriteStringToFile(path, "0123456789").ok());
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  char buf[4];
  auto n = (*file)->ReadAt(3, 4, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(std::string(buf, 4), "3456");
  // Read past EOF returns the available bytes.
  n = (*file)->ReadAt(8, 4, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  // Read entirely past EOF returns 0.
  n = (*file)->ReadAt(100, 4, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(FileTest, StatsTrackBytes) {
  const std::string path = TempPath("stats.txt");
  IoStats stats;
  {
    auto writer = WritableFile::Create(path, nullptr, &stats);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("abcdef").ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  EXPECT_EQ(stats.bytes_written.load(), 6u);
  auto file = RandomAccessFile::Open(path, nullptr, &stats);
  ASSERT_TRUE(file.ok());
  char buf[6];
  ASSERT_TRUE((*file)->ReadAt(0, 6, buf).ok());
  EXPECT_EQ(stats.bytes_read.load(), 6u);
  EXPECT_EQ(stats.read_calls.load(), 1u);
  EXPECT_EQ(stats.write_calls.load(), 1u);
}

TEST(FileTest, AppendAfterCloseFails) {
  const std::string path = TempPath("closed.txt");
  auto writer = WritableFile::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_TRUE((*writer)->Append("x").IsIoError());
}

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  RateLimiter limiter(0);
  limiter.Acquire(1ull << 40);
  EXPECT_EQ(limiter.total_admitted(), 1ull << 40);
}

TEST(RateLimiterTest, EnforcesApproximateRate) {
  RealClock clock;
  // 10 MB/s; admit 2 MB => should take roughly 0.15-0.2s after burst credit.
  RateLimiter limiter(10 * 1000 * 1000, &clock);
  const int64_t start = clock.NowNanos();
  for (int i = 0; i < 20; ++i) limiter.Acquire(100 * 1000);
  const double elapsed = static_cast<double>(clock.NowNanos() - start) * 1e-9;
  // 2 MB at 10 MB/s is 0.2s; the 0.05s burst allowance reduces it.
  EXPECT_GT(elapsed, 0.10);
  EXPECT_LT(elapsed, 0.6);
  EXPECT_EQ(limiter.total_admitted(), 2ull * 1000 * 1000);
}

TEST(RateLimiterTest, OversizedRequestPaysItsOwnDebt) {
  RealClock clock;
  RateLimiter limiter(1000 * 1000, &clock);  // 1 MB/s, burst = 50 KB
  const int64_t start = clock.NowNanos();
  // 4x the burst: admitted on the full bucket, then waits out the 150 KB of
  // debt it leaves (0.15 s) before returning.
  limiter.Acquire(200 * 1000);
  const int64_t after_first = clock.NowNanos();
  const double first = static_cast<double>(after_first - start) * 1e-9;
  EXPECT_GT(first, 0.13);
  EXPECT_LT(first, 0.5);
  EXPECT_EQ(limiter.throttle_events(), 1u);
  EXPECT_GE(limiter.total_wait_nanos(), 130'000'000u);
  // The next caller waits only for its own 10 KB (0.01 s), none of the
  // first request's debt.
  limiter.Acquire(10 * 1000);
  const double second =
      static_cast<double>(clock.NowNanos() - after_first) * 1e-9;
  EXPECT_LT(second, 0.08);
}

TEST(DiskArbiterTest, ExclusiveAccess) {
  DiskArbiter arbiter;
  EXPECT_EQ(arbiter.current_user(), DiskUser::kNone);
  arbiter.Acquire(DiskUser::kReader);
  EXPECT_EQ(arbiter.current_user(), DiskUser::kReader);
  EXPECT_FALSE(arbiter.TryAcquire(DiskUser::kWriter));
  arbiter.Release(DiskUser::kReader);
  EXPECT_TRUE(arbiter.TryAcquire(DiskUser::kWriter));
  EXPECT_EQ(arbiter.current_user(), DiskUser::kWriter);
  arbiter.Release(DiskUser::kWriter);
}

TEST(DiskArbiterTest, DoubleReleaseIsNoOp) {
  DiskArbiter arbiter;
  arbiter.Acquire(DiskUser::kReader);
  arbiter.Release(DiskUser::kReader);
  arbiter.Release(DiskUser::kReader);  // must not corrupt state
  EXPECT_EQ(arbiter.current_user(), DiskUser::kNone);
}

TEST(DiskArbiterTest, BlockedWriterProceedsAfterRelease) {
  DiskArbiter arbiter;
  arbiter.Acquire(DiskUser::kReader);
  std::atomic<bool> writer_got_disk{false};
  std::thread writer([&] {
    arbiter.Acquire(DiskUser::kWriter);
    writer_got_disk = true;
    arbiter.Release(DiskUser::kWriter);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_got_disk.load());
  arbiter.Release(DiskUser::kReader);
  writer.join();
  EXPECT_TRUE(writer_got_disk.load());
}

TEST(DiskArbiterTest, TracksBusyTime) {
  VirtualClock clock;
  DiskArbiter arbiter(&clock);
  arbiter.Acquire(DiskUser::kReader);
  clock.AdvanceNanos(100);
  arbiter.Release(DiskUser::kReader);
  arbiter.Acquire(DiskUser::kWriter);
  clock.AdvanceNanos(40);
  arbiter.Release(DiskUser::kWriter);
  EXPECT_EQ(arbiter.reader_busy_nanos(), 100);
  EXPECT_EQ(arbiter.writer_busy_nanos(), 40);
}

TEST(DiskArbiterTest, ScopedAccessReleases) {
  DiskArbiter arbiter;
  {
    ScopedDiskAccess access(&arbiter, DiskUser::kWriter);
    EXPECT_EQ(arbiter.current_user(), DiskUser::kWriter);
  }
  EXPECT_EQ(arbiter.current_user(), DiskUser::kNone);
  // Null arbiter is tolerated (unthrottled configurations).
  ScopedDiskAccess noop(nullptr, DiskUser::kReader);
}

}  // namespace
}  // namespace scanraw
