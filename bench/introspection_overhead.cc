// CI gate: the live introspection plane — stats server thread, stall
// watchdog, 1 Hz time-series sampling, and stage heartbeats — must cost at
// most ~2% wall time on a cold scan. Every hook on the hot path is a
// relaxed atomic (heartbeat beats, rate counters), the server runs on its
// own thread, and the watchdog's check and the rings' 1 Hz sampling (the
// telemetry's default interval, registered by the server) run on the
// process's ticker, so any measurable slowdown means a lock or a syscall
// leaked into query execution.
//
// Method: two identical managers over the same CSV — one bare, one with
// the full introspection plane enabled — external-tables policy with the
// cache disabled, so every query re-scans the raw file (worst case: the
// fixed per-query observability cost is amortized over the *smallest*
// useful amount of work). Runs are interleaved A/B to cancel drift; the
// gate compares medians.
//
//   bench/introspection_overhead [--threshold=PCT] [--iters=N]
//
// Exits nonzero if the instrumented median exceeds the bare median by more
// than the threshold (default 2%) beyond an absolute noise floor.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "datagen/csv_generator.h"
#include "obs/stats_server.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr uint64_t kRows = 1 << 17;
constexpr size_t kColumns = 8;
constexpr uint64_t kChunkRows = 1 << 13;  // 16 chunks
constexpr int kWarmups = 2;

// Fixed timing jitter we refuse to attribute to the introspection plane.
constexpr double kNoiseFloorSeconds = 0.001;

struct Setup {
  std::unique_ptr<ScanRawManager> manager;
  std::unique_ptr<obs::StatsServer> server;
};

Setup MakeManager(const std::string& csv, const CsvSpec& spec,
                  const std::string& tag, bool instrumented) {
  Setup setup;
  ScanRawManager::Config config;
  config.db_path = bench::MustTempPath("introspection_" + tag + ".db");
  if (instrumented) {
    config.watchdog_ms = 5000;  // armed, never expected to fire
  }
  auto manager = ScanRawManager::Create(config);
  bench::CheckOk(manager.status(), "create manager");
  setup.manager = std::move(*manager);

  ScanRawOptions options;
  options.policy = LoadPolicy::kExternalTables;
  options.cache_capacity_chunks = 0;  // no residency: every query is cold
  options.num_workers = 4;
  options.chunk_rows = kChunkRows;
  bench::CheckOk(
      setup.manager->RegisterRawFile("t", csv, CsvSchema(spec), options),
      "register");

  if (instrumented) {
    obs::StatsServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.telemetry = setup.manager->telemetry();
    server_options.watchdog = setup.manager->watchdog();
    ScanRawManager* mgr = setup.manager.get();
    server_options.statusz_section = [mgr] { return mgr->Statusz(); };
    setup.server = std::make_unique<obs::StatsServer>(server_options);
    bench::CheckOk(setup.server->Start(), "start stats server");
  }
  return setup;
}

double MedianSeconds(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) {
  using scanraw::bench::Fmt;
  double threshold_pct = 2.0;
  // More samples than the querylog gate: the deltas here are tiny (idle
  // threads, relaxed atomics), so the median needs a tighter distribution
  // to keep scheduler jitter from tripping a 2% gate.
  int iters = 21;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      threshold_pct = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = std::atoi(argv[i] + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--threshold=PCT] [--iters=N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (iters < 1) iters = 1;

  const std::string csv =
      scanraw::bench::MustTempPath("introspection_overhead.csv");
  scanraw::CsvSpec spec;
  spec.num_rows = scanraw::kRows;
  spec.num_columns = scanraw::kColumns;
  auto info = scanraw::GenerateCsvFile(csv, spec);
  scanraw::bench::CheckOk(info.status(), "generate csv");

  auto bare =
      scanraw::MakeManager(csv, spec, "bare", /*instrumented=*/false);
  auto live =
      scanraw::MakeManager(csv, spec, "live", /*instrumented=*/true);

  scanraw::QuerySpec query;
  for (size_t c = 0; c < scanraw::kColumns; ++c) {
    query.sum_columns.push_back(c);
  }

  scanraw::RealClock clock;
  auto run_once = [&](scanraw::ScanRawManager* manager) {
    const int64_t t0 = clock.NowNanos();
    auto result = manager->Query("t", query);
    const double seconds =
        static_cast<double>(clock.NowNanos() - t0) * 1e-9;
    scanraw::bench::CheckOk(result.status(), "query");
    if (result->total_sum != info->total_sum) {
      std::fprintf(stderr, "FAIL: wrong sum %llu (want %llu)\n",
                   static_cast<unsigned long long>(result->total_sum),
                   static_cast<unsigned long long>(info->total_sum));
      std::exit(1);
    }
    return seconds;
  };

  // Warm the page cache and the thread pools on both sides before timing.
  for (int i = 0; i < scanraw::kWarmups; ++i) {
    run_once(bare.manager.get());
    run_once(live.manager.get());
  }

  std::vector<double> bare_seconds, live_seconds;
  for (int i = 0; i < iters; ++i) {
    // Interleave and alternate which side goes first within the pair, so
    // slow drift (thermal, page cache churn) hits both sides equally.
    if (i % 2 == 0) {
      bare_seconds.push_back(run_once(bare.manager.get()));
      live_seconds.push_back(run_once(live.manager.get()));
    } else {
      live_seconds.push_back(run_once(live.manager.get()));
      bare_seconds.push_back(run_once(bare.manager.get()));
    }
  }

  // The instrumented side must have kept its plane alive the whole time.
  if (live.manager->watchdog() == nullptr ||
      live.manager->watchdog()->stalls_detected() != 0) {
    std::fprintf(stderr, "FAIL: watchdog missing or false-positived\n");
    return 1;
  }

  const double bare_med = scanraw::MedianSeconds(bare_seconds);
  const double live_med = scanraw::MedianSeconds(live_seconds);
  const double delta = live_med - bare_med;
  const double overhead_pct = 100.0 * delta / bare_med;

  scanraw::bench::TablePrinter table(
      {"configuration", "median (ms)", "min (ms)", "overhead"});
  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  table.AddRow({"cold scan, bare", Fmt("%.2f", bare_med * 1e3),
                Fmt("%.2f", min_of(bare_seconds) * 1e3), "-"});
  table.AddRow({"cold scan, introspection", Fmt("%.2f", live_med * 1e3),
                Fmt("%.2f", min_of(live_seconds) * 1e3),
                Fmt("%+.2f%%", overhead_pct)});
  std::printf("Introspection overhead gate (%llu x %zu cold scans, "
              "median of %d interleaved; stats server + watchdog + 1 Hz "
              "rings + heartbeats)\n",
              static_cast<unsigned long long>(scanraw::kRows),
              scanraw::kColumns, iters);
  table.Print();

  if (delta > scanraw::kNoiseFloorSeconds &&
      overhead_pct > threshold_pct) {
    std::printf("FAIL: introspection adds %.2f%% (%.2f ms) to a cold scan; "
                "gate is %.1f%% beyond a %.1f ms noise floor\n",
                overhead_pct, delta * 1e3, threshold_pct,
                scanraw::kNoiseFloorSeconds * 1e3);
    return 1;
  }
  std::printf("OK: introspection overhead %.2f%% (threshold %.1f%%)\n",
              overhead_pct, threshold_pct);
  return 0;
}
