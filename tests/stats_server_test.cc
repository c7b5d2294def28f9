#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "datagen/csv_generator.h"
#include "obs/log.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace obs {
namespace {

std::string TestPath(const std::string& suffix) {
  std::string name = testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
  return testing::TempDir() + "/stats_" + name + "_" + suffix;
}

// Minimal blocking HTTP client: sends `request` verbatim to 127.0.0.1:port
// and returns everything the server wrote back.
std::string RawHttp(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::write(fd, request.data() + sent,
                              request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawHttp(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

TEST(PrometheusNameTest, SanitizesToLegalNames) {
  EXPECT_EQ(PrometheusName("scanraw.cache.hits"), "scanraw_cache_hits");
  EXPECT_EQ(PrometheusName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(PrometheusName("weird-chars !"), "weird_chars__");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(StatsServerTest, StartRequiresTelemetry) {
  StatsServerOptions options;
  StatsServer server(options);
  Status s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(StatsServerTest, PortInUseFailsWithIoError) {
  Telemetry telemetry;
  StatsServerOptions options;
  options.telemetry = &telemetry;
  StatsServer first(options);
  ASSERT_TRUE(first.Start().ok());
  ASSERT_GT(first.port(), 0);

  StatsServerOptions taken = options;
  taken.port = first.port();
  StatsServer second(taken);
  Status s = second.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIoError());
  // The error names the port so the operator can find the squatter.
  EXPECT_NE(s.ToString().find(std::to_string(first.port())),
            std::string::npos)
      << s.ToString();
}

TEST(StatsServerTest, RenderMetricsIsPrometheusExposition) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("scanraw.rows_delivered")->Add(1234);
  telemetry.metrics().GetGauge("pool.queue_depth")->Set(3);
  telemetry.metrics().GetHistogram("stage.read_nanos")->Record(5000);
  telemetry.timeseries().TrackPipelineDefaults(&telemetry.metrics());
  telemetry.timeseries().SampleNow(0);
  telemetry.metrics().GetCounter("scanraw.rows_delivered")->Add(1000);
  telemetry.timeseries().SampleNow(2'000'000'000);
  // Freeze the rings: the scrape below must not take a real-clock sample on
  // top of the two synthetic points the rate assertion depends on.
  telemetry.timeseries().set_interval_nanos(0);

  StatsServerOptions options;
  options.telemetry = &telemetry;
  StatsServer server(options);
  const std::string body = server.RenderMetrics();

  EXPECT_NE(body.find("# TYPE scanraw_rows_delivered counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("scanraw_rows_delivered 2234\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE pool_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(body.find("stage_read_nanos{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(body.find("stage_read_nanos_count 1\n"), std::string::npos);
  // Ring-derived rate gauges: 500 rows/s over the 2 s sample gap.
  EXPECT_NE(body.find("# TYPE scanraw_rows_delivered_per_sec gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("scanraw_rows_delivered_per_sec 500\n"),
            std::string::npos)
      << body;
  // Heartbeat liveness is always exported.
  EXPECT_NE(body.find("scanraw_stage_active{stage=\"READ\"} 0\n"),
            std::string::npos);
  EXPECT_NE(body.find("scanraw_stage_beats_total{stage=\"PARSE\"} 0\n"),
            std::string::npos);
}

TEST(StatsServerTest, HealthzTracksWatchdogStalls) {
  Telemetry telemetry;
  VirtualClock clock;
  WatchdogOptions wd;
  wd.window_ms = 10;
  wd.clock = &clock;
  wd.flight_dump_path = TestPath("dump.txt");
  Watchdog dog(&telemetry.heartbeats(), wd);

  StatsServerOptions options;
  options.telemetry = &telemetry;
  options.watchdog = &dog;
  StatsServer server(options);

  bool healthy = false;
  EXPECT_EQ(server.RenderHealthz(&healthy), "ok\n");
  EXPECT_TRUE(healthy);

  Logger::Global()->SetStderrEnabled(false);
  telemetry.heartbeats().Enter(HeartbeatStage::kTokenize);
  dog.CheckNow();
  clock.AdvanceNanos(1'000'000);
  dog.CheckNow();
  clock.AdvanceNanos(20'000'000);
  dog.CheckNow();
  telemetry.heartbeats().Leave(HeartbeatStage::kTokenize);
  Logger::Global()->SetStderrEnabled(true);
  ASSERT_EQ(dog.stalls_detected(), 1u);

  const std::string body = server.RenderHealthz(&healthy);
  EXPECT_FALSE(healthy);
  EXPECT_NE(body.find("stalled"), std::string::npos);
  // /statusz and /metrics surface the same stall.
  EXPECT_NE(server.RenderStatusz().find("stalls=1"), std::string::npos);
  EXPECT_NE(server.RenderMetrics().find("scanraw_watchdog_stalls_total 1\n"),
            std::string::npos);
}

TEST(StatsServerTest, ServesHttpRoutesAndRejectsJunk) {
  Telemetry telemetry;
  telemetry.metrics().GetCounter("scanraw.rows_delivered")->Add(5);
  StatsServerOptions options;
  options.telemetry = &telemetry;
  options.build_info = "unit-test-build";
  options.statusz_section = [] { return std::string("extra: section\n"); };
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  ASSERT_GT(port, 0);

  const std::string metrics = Get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("scanraw_rows_delivered 5\n"), std::string::npos);

  const std::string statusz = Get(port, "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("build: unit-test-build"), std::string::npos);
  EXPECT_NE(statusz.find("extra: section"), std::string::npos);

  EXPECT_NE(Get(port, "/healthz").find("HTTP/1.0 200 OK"),
            std::string::npos);
  EXPECT_NE(Get(port, "/nope").find("HTTP/1.0 404 Not Found"),
            std::string::npos);
  EXPECT_NE(RawHttp(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(RawHttp(port, "garbage\r\n\r\n").find("HTTP/1.0 400 Bad Request"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 6u);
  server.Stop();
  server.Stop();  // idempotent
}

// The server samples the rate rings on its own ticker task: with no scrape
// at all, the rings fill at the telemetry's interval and yield a rate.
TEST(StatsServerTest, SamplesRingsWithoutScrapes) {
  Telemetry telemetry;
  telemetry.timeseries().TrackPipelineDefaults(&telemetry.metrics());
  telemetry.timeseries().set_interval_nanos(2'000'000);  // 2 ms
  Counter* rows = telemetry.metrics().GetCounter("scanraw.rows_delivered");
  const TimeSeriesRing* ring =
      telemetry.timeseries().Find("scanraw.rows_delivered");
  ASSERT_NE(ring, nullptr);
  StatsServerOptions options;
  options.telemetry = &telemetry;
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int64_t deadline =
      RealClock::Instance()->NowNanos() + 2'000'000'000;  // 2 s
  while (ring->size() < 5 && RealClock::Instance()->NowNanos() < deadline) {
    rows->Add(1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_GE(ring->size(), 5u);
  EXPECT_GT(ring->RatePerSecond(10'000'000'000), 0.0);
}

// Concurrent scrapes while a real scan runs: every response is a complete,
// well-formed exposition and the scan's result is unaffected.
TEST(StatsServerTest, ConcurrentScrapesDuringLiveScan) {
  const std::string csv_path = TestPath("data.csv");
  CsvSpec spec;
  spec.num_rows = 20000;
  spec.num_columns = 6;
  spec.seed = 11;
  auto info = GenerateCsvFile(csv_path, spec);
  ASSERT_TRUE(info.ok());

  ScanRawManager::Config config;
  config.db_path = csv_path + ".db";
  config.watchdog_ms = 30000;
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ScanRawOptions scan_options;
  scan_options.policy = LoadPolicy::kSpeculativeLoading;
  scan_options.num_workers = 2;
  scan_options.chunk_rows = 1000;
  (*manager)->telemetry()->timeseries().set_interval_nanos(1'000'000);
  ASSERT_TRUE((*manager)
                  ->RegisterRawFile("t", csv_path, CsvSchema(spec),
                                    scan_options)
                  .ok());

  StatsServerOptions options;
  options.telemetry = (*manager)->telemetry();
  options.watchdog = (*manager)->watchdog();
  ScanRawManager* mgr = manager->get();
  options.statusz_section = [mgr] { return mgr->Statusz(); };
  StatsServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const std::string body = Get(port, "/metrics");
        EXPECT_NE(body.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NE(body.find("scanraw_stage_beats_total"), std::string::npos);
        const std::string statusz = Get(port, "/statusz");
        EXPECT_NE(statusz.find("table t:"), std::string::npos);
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  QuerySpec query;
  for (size_t c = 0; c < spec.num_columns; ++c) query.sum_columns.push_back(c);
  uint64_t expected = info->total_sum;
  for (int q = 0; q < 3; ++q) {
    auto result = (*manager)->Query("t", query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->total_sum, expected);
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& th : scrapers) th.join();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ((*manager)->watchdog()->stalls_detected(), 0u);

  // After the scan, the pipeline rates made it into the exposition.
  const std::string body = server.RenderMetrics();
  EXPECT_NE(body.find("scanraw_rows_delivered_per_sec"), std::string::npos);
  EXPECT_NE(body.find("scanraw_rows_delivered "), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace scanraw
