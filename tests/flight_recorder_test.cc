// Flight recorder tests: per-thread rings, the lock-free record path under
// concurrency, dump formatting, and the crash-dump integration — a forked
// child running the real pipeline dies at a kill-point and the parent
// asserts the dump file shows what every pipeline thread was doing.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/csv_generator.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/flight_recorder.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace obs {
namespace {

class FlightRecorderTest : public testing::Test {
 protected:
  void SetUp() override { FlightRecorder::Global()->ResetForTest(); }

  static std::string TempPath(const std::string& suffix) {
    std::string name = testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return testing::TempDir() + "/flight_" + name + suffix;
  }

  static std::string DumpToString() {
    const std::string path = TempPath(".dump");
    EXPECT_TRUE(FlightRecorder::Global()->DumpToFile(path.c_str()));
    auto data = ReadFileToString(path);
    EXPECT_TRUE(data.ok());
    return data.ok() ? *data : std::string();
  }
};

TEST_F(FlightRecorderTest, RecordsAndDumpsEvents) {
  FlightRecord(FlightEvent::kQueryBegin, 3, 2);
  FlightRecord(FlightEvent::kRead, 7, 4096);
  FlightRecord(FlightEvent::kQueryEnd, 0, 137);
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), 3u);
  EXPECT_EQ(FlightRecorder::Global()->rings_used(), 1u);

  const std::string dump = DumpToString();
  EXPECT_NE(dump.find("flight recorder: 3 events"), std::string::npos);
  EXPECT_NE(dump.find("query-begin"), std::string::npos);
  EXPECT_NE(dump.find("read"), std::string::npos);
  EXPECT_NE(dump.find("a=7 b=4096"), std::string::npos);
  EXPECT_NE(dump.find("query-end"), std::string::npos);
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheMostRecentEvents) {
  for (uint64_t i = 0; i < FlightRecorder::kRingEvents + 50; ++i) {
    FlightRecord(FlightEvent::kParse, i, 0);
  }
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(),
            FlightRecorder::kRingEvents + 50);
  const std::string dump = DumpToString();
  // The oldest events were overwritten; the newest survive.
  EXPECT_EQ(dump.find("a=10 b=0"), std::string::npos);
  EXPECT_NE(dump.find("a=" + std::to_string(FlightRecorder::kRingEvents + 49)),
            std::string::npos);
}

TEST_F(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  // Park every thread after recording until all have recorded, so all of
  // them hold their ring claims at the same time: each live thread must
  // get a distinct ring.
  constexpr size_t kThreads = 8;
  // When the whole binary runs in one process (the sanitizer shard), the
  // main thread still holds the ring it claimed in an earlier test; count
  // relative to that baseline.
  const size_t base_rings = FlightRecorder::Global()->rings_used();
  std::atomic<size_t> recorded{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &recorded] {
      for (int i = 0; i < 100; ++i) {
        FlightRecord(FlightEvent::kTokenize, static_cast<uint64_t>(t), i);
      }
      recorded.fetch_add(1);
      while (recorded.load() < kThreads) std::this_thread::yield();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(FlightRecorder::Global()->events_recorded(), kThreads * 100u);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
  // Every thread held a claim concurrently, so each claimed its own ring,
  // and the sticky ever_claimed flag keeps them all dumpable.
  EXPECT_EQ(FlightRecorder::Global()->rings_used(), base_rings + kThreads);

  const std::string dump = DumpToString();
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = dump.find("tid=", pos)) != std::string::npos) {
    size_t end = dump.find(' ', pos);
    tids.insert(dump.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_GE(tids.size(), kThreads);
  EXPECT_LE(tids.size(), kThreads + base_rings);
}

TEST_F(FlightRecorderTest, DropsInsteadOfBlockingWhenAllRingsClaimed) {
  // Hold every ring with parked threads, then record from one more thread:
  // the record path must not block or allocate — it drops and counts.
  std::atomic<bool> release{false};
  std::atomic<size_t> parked{0};
  std::vector<std::thread> holders;
  holders.reserve(FlightRecorder::kNumRings);
  for (size_t i = 0; i < FlightRecorder::kNumRings; ++i) {
    holders.emplace_back([&] {
      FlightRecord(FlightEvent::kNone, 0, 0);  // claims this thread's ring
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < FlightRecorder::kNumRings) std::this_thread::yield();

  std::thread extra([] { FlightRecord(FlightEvent::kError, 1, 1); });
  extra.join();
  EXPECT_GE(FlightRecorder::Global()->events_dropped(), 1u);

  release.store(true);
  for (std::thread& t : holders) t.join();
}

TEST_F(FlightRecorderTest, ReleasedRingsAreReusedByLaterThreads) {
  for (int round = 0; round < 3; ++round) {
    std::thread t([] { FlightRecord(FlightEvent::kDeliver, 1, 0); });
    t.join();
  }
  // Sequential threads reuse released rings instead of exhausting the pool.
  EXPECT_LE(FlightRecorder::Global()->rings_used(), 3u);
  EXPECT_EQ(FlightRecorder::Global()->events_dropped(), 0u);
}

// The Chrome export: stage spans are complete events with their recorded
// start and duration, everything else is an instant; chunk events carry the
// chunk and its source, and a READ of a database chunk reads "db".
TEST_F(FlightRecorderTest, ChromeTraceExportShape) {
  FlightRecorder* recorder = FlightRecorder::Global();
  recorder->RecordSpan(FlightEvent::kReadDb, 5'000'000, 2'000'000, 3, 4096);
  recorder->RecordSpan(FlightEvent::kTokenize, 6'000'000, 1'500, 3, 100);
  // A span longer than 2^32 us saturates instead of wrapping.
  recorder->RecordSpan(FlightEvent::kWrite, 7'000'000, int64_t{1} << 53, 3,
                       0);
  FlightRecord(FlightEvent::kSpeculativeTrigger, 3);
  FlightRecord(FlightEvent::kQueryBegin, 2, 1);

  const std::string json = recorder->ToChromeTraceJson("scanraw_cli");
  EXPECT_EQ(json.rfind("[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"args\":{\"name\":\"scanraw_cli\"}}",
                       0),
            0u)
      << json;
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  const std::string tid =
      ",\"pid\":1,\"tid\":" + std::to_string(CurrentThreadId());
  const std::string chunk3 = ",\"args\":{\"chunk\":3,\"source\":";
  const std::vector<std::string> expected = {
      "{\"name\":\"read-db\",\"cat\":\"scanraw\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":2000" + tid + chunk3 + "\"db\"}}",
      "{\"name\":\"tokenize\",\"cat\":\"scanraw\",\"ph\":\"X\",\"ts\":1000,"
      "\"dur\":1" + tid + chunk3 + "\"raw\"}}",
      "{\"name\":\"write\",\"cat\":\"scanraw\",\"ph\":\"X\",\"ts\":2000,"
      "\"dur\":4294967295" + tid + chunk3 + "\"raw\"}}",
      "{\"name\":\"spec-trigger\",\"cat\":\"scanraw\",\"ph\":\"i\"",
      "{\"name\":\"query-begin\",\"cat\":\"scanraw\",\"ph\":\"i\"",
      ",\"args\":{\"a\":2,\"b\":1}}",
  };
  for (const std::string& event : expected) {
    EXPECT_NE(json.find(event), std::string::npos) << event << "\n" << json;
  }
}

TEST_F(FlightRecorderTest, ChromeTraceEscapesProcessName) {
  FlightRecorder* recorder = FlightRecorder::Global();
  recorder->RecordSpan(FlightEvent::kRead, 1000, 50, 0, 0);
  EXPECT_EQ(recorder->ToChromeTraceJson("").find("\"ph\":\"M\""),
            std::string::npos);

  // Names flow from user input; quotes, backslashes and control characters
  // must not corrupt the JSON.
  const std::string json =
      recorder->ToChromeTraceJson("scanraw:\"quoted\\table\"\n\ttab");
  EXPECT_NE(json.find("scanraw:\\\"quoted\\\\table\\\"\\n\\ttab"),
            std::string::npos)
      << json;
  for (char c : json) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control char in JSON: " << static_cast<int>(c);
  }
}

// Exports read the rings while pipeline threads keep recording; run under
// TSan, this pins that the export touches only the slots' atomics.
TEST_F(FlightRecorderTest, ChromeTraceExportWhileRecording) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&stop] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        FlightRecorder::Global()->RecordSpan(FlightEvent::kParse, 1000 + i,
                                             2000, i, 0);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string json =
        FlightRecorder::Global()->ToChromeTraceJson("scanraw_cli");
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
}

// The acceptance scenario: a child process runs the real conversion
// pipeline with an armed kill-point, the injected crash dumps the flight
// recorder, and the parent asserts the dump contains events from every
// pipeline stage and more than one thread.
TEST_F(FlightRecorderTest, CrashAtKillPointDumpsEveryPipelineStage) {
  const std::string csv_path = TempPath(".csv");
  const std::string db_path = TempPath(".db");
  const std::string dump_path = TempPath(".crashdump");
  (void)RemoveFileIfExists(dump_path);

  CsvSpec spec;
  spec.num_rows = 2000;
  spec.num_columns = 4;
  spec.seed = 7;
  auto info = GenerateCsvFile(csv_path, spec);
  ASSERT_TRUE(info.ok());

  const pid_t pid = fork();
  if (pid == 0) {
    FlightRecorder::Global()->SetCrashDumpPath(dump_path.c_str());
    FaultPlan plan;
    plan.kill_point = "scanraw.write.before_record";
    plan.kill_point_hit = 3;  // a few chunks flow through every stage first
    ScopedFaultInjection fault(plan);

    ScanRawManager::Config config;
    config.db_path = db_path;
    auto manager = ScanRawManager::Create(config);
    if (!manager.ok()) ::_exit(3);
    ScanRawOptions options;
    options.policy = LoadPolicy::kFullLoad;
    options.num_workers = 2;
    options.chunk_rows = 250;  // 8 chunks
    if (!(*manager)
             ->RegisterRawFile("t", csv_path, CsvSchema(spec), options)
             .ok()) {
      ::_exit(3);
    }
    QuerySpec query;
    query.sum_columns = {0, 1, 2, 3};
    (void)(*manager)->Query("t", query);  // killed mid-load
    ::_exit(3);                           // kill point never fired
  }
  ASSERT_GT(pid, 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), kFaultKillExitCode);

  auto dump_data = ReadFileToString(dump_path);
  ASSERT_TRUE(dump_data.ok()) << "crash dump was not written";
  const std::string& dump = *dump_data;

  // Every pipeline stage left a trace, plus the kill-point itself.
  for (const char* marker : {"query-begin", "read", "tokenize", "parse",
                             "deliver", "write", "kill-point"}) {
    EXPECT_NE(dump.find(marker), std::string::npos)
        << "dump is missing " << marker << " events:\n"
        << dump;
  }

  // Events came from more than one thread (read thread, workers, write
  // thread all record into their own rings).
  std::set<std::string> tids;
  size_t pos = 0;
  while ((pos = dump.find("tid=", pos)) != std::string::npos) {
    size_t end = dump.find(' ', pos);
    tids.insert(dump.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_GE(tids.size(), 3u) << dump;
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
