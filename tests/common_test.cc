#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace scanraw {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::Corruption("bad page");
  Status copy = s;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad page");
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsCorruption());
  Status assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.IsCorruption());
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string(1000, 'x');
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  int h = 0;
  SCANRAW_ASSIGN_OR_RETURN(h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

TEST(ClockTest, RealClockIsMonotonic) {
  RealClock* clock = RealClock::Instance();
  int64_t a = clock->NowNanos();
  int64_t b = clock->NowNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, VirtualClockAdvancesOnlyWhenTold) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.AdvanceNanos(1500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  clock.AdvanceSeconds(2.0);
  EXPECT_EQ(clock.NowNanos(), 1500 + 2000000000);
  clock.SetNanos(7);
  EXPECT_EQ(clock.NowNanos(), 7);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 7e-9);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, CoversRange) {
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(StopwatchTest, AccumulatesIntervals) {
  VirtualClock clock;
  Stopwatch watch(&clock);
  watch.Start();
  clock.AdvanceNanos(100);
  watch.Stop();
  watch.Start();
  clock.AdvanceNanos(50);
  watch.Stop();
  EXPECT_EQ(watch.TotalNanos(), 150);
  EXPECT_EQ(watch.intervals(), 2);
  watch.Reset();
  EXPECT_EQ(watch.TotalNanos(), 0);
}

TEST(StopwatchTest, ThreadSafeAccumulation) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&watch] {
      for (int i = 0; i < 1000; ++i) watch.AddNanos(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(watch.TotalNanos(), 4000);
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024), "5.00 MB");
  EXPECT_EQ(HumanBytes(3ull * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(HumanDuration(2.5), "2.50 s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50 ms");
  EXPECT_EQ(HumanDuration(25e-6), "25.00 us");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = SplitString("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtilTest, AppendUint64) {
  std::string s = "x=";
  AppendUint64(&s, 0);
  EXPECT_EQ(s, "x=0");
  s.clear();
  AppendUint64(&s, 18446744073709551615ull);
  EXPECT_EQ(s, "18446744073709551615");
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "ok"), "7-ok");
  // Long outputs exercise the heap path.
  std::string big(500, 'y');
  EXPECT_EQ(StringPrintf("%s", big.c_str()).size(), 500u);
}

// The check value and the RFC 3720 (iSCSI) B.4 vectors, on both paths.
TEST(Crc32cTest, MatchesStandardVectors) {
  std::string zeros(32, '\x00');
  std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::pair<std::string, uint32_t> vectors[] = {
      {"123456789", 0xE3069283u}, {zeros, 0x8A9136AAu},
      {ones, 0x62A8AB43u},        {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},  {"", 0u},
  };
  for (const auto& [data, crc] : vectors) {
    EXPECT_EQ(Crc32c(data), crc) << data.size() << " bytes";
    EXPECT_EQ(Crc32cPortable(data), crc) << data.size() << " bytes";
  }
}

// With SCANRAW_SIMD on an SSE4.2 host Crc32c takes the eight-bytes-per-
// instruction path; it must agree with the portable table for every length
// and alignment, covering the word loop and every tail length.
TEST(Crc32cTest, DispatchedPathMatchesPortable) {
  Random rng(25);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextUint32());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32c(data), Crc32cPortable(data))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace scanraw
