// scanraw_cli — run SQL queries directly over raw files from the shell.
//
//   scanraw_cli --db /tmp/demo.db ...
//               --table events=/data/events.csv=csv16 ...
//               "SELECT SUM(C0+C1) FROM events WHERE C2 BETWEEN 0 AND 9"
//
// Options:
//   --db PATH             database storage file (required)
//   --table NAME=PATH=FMT attach a raw file; FMT is csv<K> (K uint32
//                         columns) or sam (11-field SAM-like, tab text)
//   --catalog PATH        load catalog if it exists; save on exit
//   --bandwidth-mb N      emulate an N MB/s disk (default unlimited)
//   --policy P            speculative|external|full|invisible|buffered
//   --workers N           conversion worker threads (default 4)
//   --chunk-rows N        rows per chunk (default 65536)
//   --quoted-csv          RFC-4180 quoted fields for delimited-text tables
//   --persist-posmap      persist each table's positional maps to a
//                         checksummed sidecar (CATALOG.posmap.TABLE, saved
//                         with the catalog and after cold scans) so a warm
//                         restart skips TOKENIZE for already-mapped chunks;
//                         implies the positional-map cache; requires
//                         --catalog to survive a restart
//   --metrics[=json|text] after the statements, dump the telemetry registry
//                         (stage latency histograms with p50/p95/p99, cache
//                         and disk-arbiter counters, resource-advice series);
//                         default format is text
//   --explain[=json|text] EXPLAIN ANALYZE: after each statement, print the
//                         per-stage span profile (busy/blocked/idle, critical
//                         path), chunk provenance (cache/db/raw/skipped) and
//                         speculative-loading payoff; default format is text
//   --progress            print a live progress line (bytes converted, ETA
//                         from rolling throughput) to stderr while a query
//                         runs
//   --progress-interval-ms N  progress reporting period (default 200)
//   --trace-out PATH      write the flight recorder's chunk-stage spans and
//                         scheduler events as a Chrome trace_event JSON
//                         array (load via chrome://tracing); holds each
//                         thread's last 256 events
//   --sample-interval-ms N  period of the §3.3 resource-advice sampler
//                         (default 2 when --metrics/--trace-out is given)
//   --query-log PATH      append one JSONL event per query (spec, stage
//                         timings, chunk provenance, speculative payoff) to
//                         the persistent query log at PATH; on startup any
//                         persisted workload history (PATH.history, or
//                         CATALOG.history with --catalog) is loaded and the
//                         log replayed into it, and the updated history is
//                         saved on exit
//   --advisor             history-driven speculative loading: rank columns
//                         by the workload history and store only the hot
//                         subset of each chunk (requires --query-log;
//                         results are byte-identical either way)
//   --stats-port N        serve /metrics (Prometheus text), /statusz and
//                         /healthz over HTTP on 127.0.0.1:N for the process
//                         lifetime; 0 picks an ephemeral port (printed)
//   --log-level L         debug|info|warn|error|off threshold for the
//                         structured logger (overrides SCANRAW_LOG_LEVEL)
//   --watchdog-ms N       stall watchdog: a pipeline stage active but
//                         making no progress for N ms produces a structured
//                         report and a flight-recorder dump
//   --watchdog-abort      abort the process after a stall report
//   --timeseries-interval-ms N  cadence of the rate rings behind /metrics
//                         (default 1000; 0 disables sampling)
//   --metrics-interval-ms N  print a delta-aware throughput snapshot
//                         (rows/s, bytes/s, cache hit rate) every N ms
//                         while statements run
//   --flight-dump[=PATH]  arm the crash-dump path of the always-on flight
//                         recorder (dump written to PATH, or stderr, when
//                         the process dies at a kill point) and dump the
//                         rings at normal exit too
//
// Subcommands:
//   stats --query-log PATH   offline workload report from the query log:
//                            per-table/per-column access frequencies,
//                            selectivities, wall-time percentiles, and
//                            speculative-loading payoff totals
//
// Fault injection (testing the crash-safety layer; all deterministic for a
// given --fault-seed):
//   --fault-seed N              PRNG seed for the fault plan (default 1)
//   --fault-path-substr S       only inject on files whose path contains S
//   --fault-read-error-rate F   probability a read fails
//   --fault-short-read-rate F   probability a read returns fewer bytes
//   --fault-append-error-rate F probability an append fails (torn prefix)
//   --fault-sync-error-rate F   probability a sync fails
//   --fault-errno eio|enospc    errno carried by injected errors
//   --fault-kill-point NAME     _exit(42) at the named protocol point
//   --fault-kill-append-at N    _exit(42) mid-append on the Nth append
//   --fault-read-delay-ms N     every matching read sleeps N ms (a hung
//                               device; pairs with --watchdog-ms)
//
// Remaining arguments are SQL statements, executed in order; with none,
// statements are read from stdin (one per line).

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/string_util.h"
#include "db/recovery.h"
#include "format/parser.h"
#include "genomics/sam.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/load_advisor.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/progress.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"
#include "obs/workload_history.h"
#include "pipeline/ticker.h"
#include "scanraw/scanraw_manager.h"
#include "sql/sql_parser.h"

namespace scanraw {
namespace {

struct CliOptions {
  std::string db_path;
  std::string catalog_path;
  uint64_t bandwidth_mb = 0;
  bool metrics = false;
  bool metrics_json = false;
  bool explain = false;
  bool explain_json = false;
  bool progress = false;
  std::string query_log_path;
  bool advisor = false;
  bool flight_dump = false;
  std::string flight_dump_path;  // empty = stderr
  std::string trace_path;
  int sample_interval_ms = -1;  // -1 = default (2 when telemetry requested)
  int stats_port = -1;          // -1 = no stats server; 0 = ephemeral
  std::string log_level;
  int64_t watchdog_ms = 0;
  bool watchdog_abort = false;
  int metrics_interval_ms = 0;  // 0 = no periodic snapshot printer
  int64_t timeseries_interval_ms = -1;  // -1 = the telemetry's default
  bool fault_enabled = false;
  FaultPlan fault_plan;
  ScanRawOptions scan_options;
  struct TableArg {
    std::string name;
    std::string path;
    std::string format;
  };
  std::vector<TableArg> tables;
  std::vector<std::string> statements;
};

void Usage() {
  std::fprintf(stderr,
               "usage: scanraw_cli --db PATH [--table NAME=PATH=FMT]... "
               "[--catalog PATH]\n"
               "                   [--bandwidth-mb N] [--policy P] "
               "[--workers N] [--chunk-rows N]\n"
               "                   [--quoted-csv] [--persist-posmap]\n"
               "                   [--metrics[=json|text]] "
               "[--explain[=json|text]] [--progress]\n"
               "                   [--progress-interval-ms N] "
               "[--trace-out PATH] [--sample-interval-ms N]\n"
               "                   [--fault-seed N] [--fault-path-substr S] "
               "[--fault-*-rate F]\n"
               "                   [--fault-errno eio|enospc] "
               "[--fault-kill-point NAME]\n"
               "                   [--query-log PATH] [--advisor] "
               "[--flight-dump[=PATH]]\n"
               "                   [--stats-port N] [--log-level L] "
               "[--watchdog-ms N] [--watchdog-abort]\n"
               "                   [--timeseries-interval-ms N] "
               "[--metrics-interval-ms N]\n"
               "                   [--fault-kill-append-at N] "
               "[--fault-read-delay-ms N] [SQL]...\n"
               "       scanraw_cli stats --query-log PATH\n");
}

Result<LoadPolicy> ParsePolicy(const std::string& name) {
  if (name == "speculative") return LoadPolicy::kSpeculativeLoading;
  if (name == "external") return LoadPolicy::kExternalTables;
  if (name == "full") return LoadPolicy::kFullLoad;
  if (name == "invisible") return LoadPolicy::kInvisibleLoading;
  if (name == "buffered") return LoadPolicy::kBufferedLoading;
  return Status::InvalidArgument("unknown policy: " + name);
}

struct TableFormat {
  Schema schema;
  RawFormat raw_format = RawFormat::kDelimitedText;
};

Result<TableFormat> SchemaForFormat(const std::string& format) {
  if (format == "sam") return TableFormat{SamSchema()};
  if (format.rfind("csv", 0) == 0) {
    auto cols = ParseUint32(std::string_view(format).substr(3));
    if (cols.ok() && *cols > 0) {
      return TableFormat{Schema::AllUint32(*cols)};
    }
  }
  if (format.rfind("jsonl", 0) == 0) {
    auto cols = ParseUint32(std::string_view(format).substr(5));
    if (cols.ok() && *cols > 0) {
      return TableFormat{Schema::AllUint32(*cols), RawFormat::kJsonLines};
    }
  }
  return Status::InvalidArgument("unknown table format: " + format +
                                 " (use csv<K>, jsonl<K> or sam)");
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  options.scan_options.num_workers = 4;
  options.scan_options.chunk_rows = 1 << 16;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " requires a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--db") {
      SCANRAW_ASSIGN_OR_RETURN(options.db_path, next_value());
    } else if (arg == "--catalog") {
      SCANRAW_ASSIGN_OR_RETURN(options.catalog_path, next_value());
    } else if (arg == "--bandwidth-mb") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto mb = ParseUint32(v);
      if (!mb.ok()) return mb.status();
      options.bandwidth_mb = *mb;
    } else if (arg == "--policy") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      SCANRAW_ASSIGN_OR_RETURN(options.scan_options.policy, ParsePolicy(v));
    } else if (arg == "--workers") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok()) return n.status();
      options.scan_options.num_workers = *n;
    } else if (arg == "--chunk-rows") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok() || *n == 0) {
        return Status::InvalidArgument("bad --chunk-rows");
      }
      options.scan_options.chunk_rows = *n;
    } else if (arg == "--quoted-csv") {
      options.scan_options.quoted_fields = true;
    } else if (arg == "--persist-posmap") {
      options.scan_options.persist_positional_maps = true;
      options.scan_options.cache_positional_maps = true;
    } else if (arg == "--metrics" || arg == "--metrics=text") {
      options.metrics = true;
      options.metrics_json = false;
    } else if (arg == "--metrics=json") {
      options.metrics = true;
      options.metrics_json = true;
    } else if (arg == "--explain" || arg == "--explain=text") {
      options.explain = true;
      options.explain_json = false;
    } else if (arg == "--explain=json") {
      options.explain = true;
      options.explain_json = true;
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--progress-interval-ms") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok() || *n == 0) {
        return Status::InvalidArgument("bad --progress-interval-ms");
      }
      options.progress = true;
      options.scan_options.progress_interval_ms = static_cast<int>(*n);
    } else if (arg == "--query-log") {
      SCANRAW_ASSIGN_OR_RETURN(options.query_log_path, next_value());
    } else if (arg == "--advisor") {
      options.advisor = true;
    } else if (arg == "--flight-dump") {
      options.flight_dump = true;
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      options.flight_dump = true;
      options.flight_dump_path = arg.substr(std::strlen("--flight-dump="));
    } else if (arg == "--trace-out") {
      SCANRAW_ASSIGN_OR_RETURN(options.trace_path, next_value());
    } else if (arg == "--sample-interval-ms") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok()) return n.status();
      options.sample_interval_ms = static_cast<int>(*n);
    } else if (arg == "--stats-port") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok() || *n > 65535) {
        return Status::InvalidArgument("bad --stats-port");
      }
      options.stats_port = static_cast<int>(*n);
    } else if (arg == "--log-level") {
      SCANRAW_ASSIGN_OR_RETURN(options.log_level, next_value());
      obs::LogLevel parsed;
      if (!obs::ParseLogLevel(options.log_level, &parsed)) {
        return Status::InvalidArgument(
            "--log-level expects debug|info|warn|error|off");
      }
    } else if (arg == "--watchdog-ms") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok() || *n == 0) {
        return Status::InvalidArgument("bad --watchdog-ms");
      }
      options.watchdog_ms = *n;
    } else if (arg == "--watchdog-abort") {
      options.watchdog_abort = true;
    } else if (arg == "--timeseries-interval-ms") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok()) return n.status();
      options.timeseries_interval_ms = *n;  // 0 disables sampling
    } else if (arg == "--metrics-interval-ms") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto n = ParseUint32(v);
      if (!n.ok() || *n == 0) {
        return Status::InvalidArgument("bad --metrics-interval-ms");
      }
      options.metrics_interval_ms = static_cast<int>(*n);
    } else if (arg.rfind("--fault-", 0) == 0) {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      options.fault_enabled = true;
      auto rate = [&]() -> Result<double> {
        char* end = nullptr;
        double r = std::strtod(v.c_str(), &end);
        if (end != v.c_str() + v.size() || r < 0.0 || r > 1.0) {
          return Status::InvalidArgument("bad rate for " + arg + ": " + v);
        }
        return r;
      };
      if (arg == "--fault-seed") {
        auto n = ParseUint32(v);
        if (!n.ok()) return n.status();
        options.fault_plan.seed = *n;
      } else if (arg == "--fault-path-substr") {
        options.fault_plan.path_substring = v;
      } else if (arg == "--fault-read-error-rate") {
        SCANRAW_ASSIGN_OR_RETURN(options.fault_plan.read_error_rate, rate());
      } else if (arg == "--fault-short-read-rate") {
        SCANRAW_ASSIGN_OR_RETURN(options.fault_plan.short_read_rate, rate());
      } else if (arg == "--fault-append-error-rate") {
        SCANRAW_ASSIGN_OR_RETURN(options.fault_plan.append_error_rate,
                                 rate());
      } else if (arg == "--fault-sync-error-rate") {
        SCANRAW_ASSIGN_OR_RETURN(options.fault_plan.sync_error_rate, rate());
      } else if (arg == "--fault-errno") {
        if (v == "eio") {
          options.fault_plan.error_errno = EIO;
        } else if (v == "enospc") {
          options.fault_plan.error_errno = ENOSPC;
        } else {
          return Status::InvalidArgument("--fault-errno expects eio|enospc");
        }
      } else if (arg == "--fault-kill-point") {
        options.fault_plan.kill_point = v;
      } else if (arg == "--fault-kill-append-at") {
        auto n = ParseUint32(v);
        if (!n.ok() || *n == 0) {
          return Status::InvalidArgument("bad --fault-kill-append-at");
        }
        options.fault_plan.kill_append_at = *n;
      } else if (arg == "--fault-read-delay-ms") {
        auto n = ParseUint32(v);
        if (!n.ok()) return n.status();
        options.fault_plan.read_delay_ms = static_cast<int>(*n);
      } else {
        return Status::InvalidArgument("unknown flag: " + arg);
      }
    } else if (arg == "--table") {
      std::string v;
      SCANRAW_ASSIGN_OR_RETURN(v, next_value());
      auto parts = SplitString(v, '=');
      if (parts.size() != 3) {
        return Status::InvalidArgument(
            "--table expects NAME=PATH=FORMAT, got " + v);
      }
      options.tables.push_back(CliOptions::TableArg{
          std::string(parts[0]), std::string(parts[1]),
          std::string(parts[2])});
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      return Status::InvalidArgument("unknown flag: " + arg);
    } else {
      options.statements.push_back(arg);
    }
  }
  if (options.db_path.empty()) {
    return Status::InvalidArgument("--db is required");
  }
  if (options.advisor && options.query_log_path.empty()) {
    return Status::InvalidArgument(
        "--advisor requires --query-log (the history is built from it)");
  }
  const bool telemetry_requested =
      options.metrics || !options.trace_path.empty();
  if (options.sample_interval_ms < 0) {
    options.sample_interval_ms = telemetry_requested ? 2 : 0;
  }
  options.scan_options.resource_sample_interval_ms =
      options.sample_interval_ms;
  if (options.progress) {
    // The progress line goes to stderr so it interleaves cleanly with query
    // results on stdout (and with --explain=json output piped to a file).
    options.scan_options.progress_callback =
        [](const obs::QueryProgress& progress) {
          std::fprintf(stderr, "%s\n", progress.ToLine().c_str());
        };
  }
  return options;
}

// --metrics-interval-ms: samples the telemetry rate rings and prints one
// delta-aware throughput line (rows/s, bytes/s, cache hit rate over the
// trailing window) to stderr, like the progress line, so stdout stays query
// results only. Runs as a ticker task every interval while statements run.
void PrintRates(obs::Telemetry* telemetry, int64_t window_nanos) {
  telemetry->timeseries().SampleNow(RealClock::Instance()->NowNanos());
  std::string line = "rates:";
  for (const obs::TimeSeries::RateRow& row :
       telemetry->timeseries().Rates(window_nanos)) {
    if (row.kind != obs::TimeSeries::Kind::kCounter) continue;
    line += StringPrintf(" %s=%.1f/s", row.name.c_str(),
                         row.rate_defined ? row.rate_per_sec : 0.0);
  }
  double hit_rate = 0.0;
  if (telemetry->timeseries().CacheHitRate(window_nanos, &hit_rate)) {
    line += StringPrintf(" cache_hit_rate=%.2f", hit_rate);
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

void PrintResult(const QueryResult& result, double seconds, bool has_avg) {
  if (!result.groups.empty()) {
    std::printf("%-20s%-12s%s\n", "group", "count", "sum");
    for (const auto& [key, agg] : result.groups) {
      std::printf("%-20s%-12llu%llu\n", key.c_str(),
                  static_cast<unsigned long long>(agg.count),
                  static_cast<unsigned long long>(agg.sum));
    }
  } else if (has_avg) {
    std::printf("avg = %.4f\n", result.Average());
  } else {
    std::printf("sum = %llu\n",
                static_cast<unsigned long long>(result.total_sum));
  }
  for (const auto& [col, range] : result.column_ranges) {
    std::printf("col %zu: min = %lld, max = %lld\n", col,
                static_cast<long long>(range.min_value),
                static_cast<long long>(range.max_value));
  }
  std::printf("-- %llu rows matched of %llu scanned (%.3f s)\n",
              static_cast<unsigned long long>(result.rows_matched),
              static_cast<unsigned long long>(result.rows_scanned), seconds);
}

// `scanraw_cli stats --query-log PATH`: offline workload report. Reads the
// log (both generations), folds it into a history, and prints what the
// load advisor would see, plus wall-time percentiles and payoff totals.
int RunStats(int argc, char** argv) {
  std::string log_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--query-log" && i + 1 < argc) {
      log_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: scanraw_cli stats --query-log PATH\n");
      return 2;
    }
  }
  if (log_path.empty()) {
    std::fprintf(stderr, "usage: scanraw_cli stats --query-log PATH\n");
    return 2;
  }
  obs::QueryLog::LoadStats load_stats;
  auto events = obs::QueryLog::ReadAll(log_path, &load_stats);
  if (!events.ok()) {
    std::fprintf(stderr, "error: %s\n", events.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "query log %s: v%d, %llu generation(s), %llu event(s), "
      "%llu torn + %llu corrupt line(s) dropped\n",
      log_path.c_str(), load_stats.version,
      static_cast<unsigned long long>(load_stats.generations),
      static_cast<unsigned long long>(load_stats.events),
      static_cast<unsigned long long>(load_stats.dropped_torn),
      static_cast<unsigned long long>(load_stats.dropped_corrupt));

  obs::WorkloadHistory history;
  obs::Histogram wall_micros;
  uint64_t failures = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t useful_bytes = 0;
  uint64_t advisor_queries = 0;
  uint64_t paid_off = 0;
  for (const obs::QueryLogEvent& event : *events) {
    history.Observe(event);
    wall_micros.Record(static_cast<uint64_t>(event.wall_seconds * 1e6));
    if (event.status != "ok") ++failures;
    bytes_read += event.bytes_read;
    bytes_written += event.bytes_written;
    useful_bytes += event.useful_bytes_written;
    if (event.advisor_used) ++advisor_queries;
    if (event.speculation_paid_off) ++paid_off;
  }
  std::printf("%s", history.Summary().c_str());
  if (wall_micros.count() > 0) {
    std::printf(
        "wall time: p50 %.1fms  p95 %.1fms  p99 %.1fms  (mean %.1fms, "
        "%llu queries, %llu failed)\n",
        wall_micros.Quantile(0.50) / 1e3, wall_micros.Quantile(0.95) / 1e3,
        wall_micros.Quantile(0.99) / 1e3, wall_micros.mean() / 1e3,
        static_cast<unsigned long long>(wall_micros.count()),
        static_cast<unsigned long long>(failures));
  }
  std::printf(
      "io: %llu bytes read, %llu written (%llu useful to the workload)\n",
      static_cast<unsigned long long>(bytes_read),
      static_cast<unsigned long long>(bytes_written),
      static_cast<unsigned long long>(useful_bytes));
  std::printf("speculation: paid off in %llu event(s); advisor filtered "
              "writes in %llu\n",
              static_cast<unsigned long long>(paid_off),
              static_cast<unsigned long long>(advisor_queries));
  return 0;
}

int Run(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "stats") == 0) {
    return RunStats(argc, argv);
  }
  auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 options.status().ToString().c_str());
    Usage();
    return 2;
  }

  if (!options->log_level.empty()) {
    obs::LogLevel level = obs::LogLevel::kInfo;
    obs::ParseLogLevel(options->log_level, &level);  // validated in ParseArgs
    obs::Logger::Global()->SetThreshold(level);
  }

  // Armed before fault injection so a kill point's crash dump lands at the
  // requested path rather than stderr.
  if (options->flight_dump && !options->flight_dump_path.empty()) {
    obs::FlightRecorder::Global()->SetCrashDumpPath(
        options->flight_dump_path.c_str());
  }

  // Installed before the manager so the database file itself is subject to
  // the plan; alive until exit so the catalog save is too.
  std::optional<ScopedFaultInjection> fault_injection;
  if (options->fault_enabled) {
    fault_injection.emplace(options->fault_plan);
  }

  // Declared before the manager: operators (and their advisor) must never
  // outlive the history they rank from.
  std::shared_ptr<obs::WorkloadHistory> history;
  std::unique_ptr<obs::QueryLog> query_log;
  std::string history_path;

  ScanRawManager::Config config;
  config.db_path = options->db_path;
  config.disk_bandwidth = options->bandwidth_mb << 20;
  config.watchdog_ms = options->watchdog_ms;
  config.watchdog_abort = options->watchdog_abort;
  // --flight-dump=PATH doubles as the watchdog's dump destination; without
  // it the watchdog falls back to SCANRAW_FLIGHT_DUMP, then stderr.
  config.watchdog_dump_path = options->flight_dump_path;
  const bool recovering = !options->catalog_path.empty() &&
                          FileExists(options->catalog_path) &&
                          FileExists(options->db_path);
  config.reuse_existing_db = recovering;
  auto manager = ScanRawManager::Create(config);
  if (!manager.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 manager.status().ToString().c_str());
    return 1;
  }
  if (recovering) {
    Status s = (*manager)->LoadCatalog(options->catalog_path);
    if (!s.ok()) {
      std::fprintf(stderr, "catalog: %s\n", s.ToString().c_str());
      return 1;
    }
    const ReconcileReport recovery = (*manager)->last_recovery();
    std::printf("recovered catalog from %s\n",
                options->catalog_path.c_str());
    if (!recovery.clean() || recovery.posmaps_dropped > 0) {
      std::printf(
          "recovery: dropped %zu of %zu segment(s), %zu chunk(s) revert "
          "to raw, %zu posmap sidecar(s) dropped\n",
          recovery.segments_dropped, recovery.segments_checked,
          recovery.chunks_reverted, recovery.posmaps_dropped);
      for (const std::string& detail : recovery.details) {
        std::printf("recovery:   %s\n", detail.c_str());
      }
    }
  }
  if (options->scan_options.persist_positional_maps &&
      options->catalog_path.empty()) {
    std::fprintf(stderr,
                 "warning: --persist-posmap has no effect without --catalog "
                 "(the sidecar lives next to the catalog)\n");
  }

  if (!options->query_log_path.empty()) {
    auto log = obs::QueryLog::Open(options->query_log_path);
    if (!log.ok()) {
      std::fprintf(stderr, "query log: %s\n",
                   log.status().ToString().c_str());
      return 1;
    }
    query_log = std::move(*log);
    options->scan_options.query_log = query_log.get();

    // The workload-intelligence loop: persisted history (next to the
    // catalog when there is one) + replay of any log events newer than its
    // high-water seq, reconciled against the recovered catalog, then kept
    // live by observing every append.
    history = std::make_shared<obs::WorkloadHistory>();
    history_path = (options->catalog_path.empty() ? options->query_log_path
                                                  : options->catalog_path) +
                   ".history";
    if (FileExists(history_path)) {
      Status s = history->LoadFromFile(history_path);
      if (!s.ok()) {
        std::fprintf(stderr, "history: %s (starting fresh)\n",
                     s.ToString().c_str());
      }
    }
    auto folded = history->ReplayLog(options->query_log_path);
    if (folded.ok() && *folded > 0) {
      std::printf("history: replayed %llu logged quer%s\n",
                  static_cast<unsigned long long>(*folded),
                  *folded == 1 ? "y" : "ies");
    }
    if (recovering) {
      const uint64_t dropped =
          ReconcileHistoryWithCatalog(*history, *(*manager)->catalog());
      if (dropped > 0) {
        std::printf("history: dropped %llu table(s) absent from the "
                    "catalog\n",
                    static_cast<unsigned long long>(dropped));
      }
    }
    auto observer = history;
    query_log->SetObserver([observer](const obs::QueryLogEvent& event) {
      observer->Observe(event);
    });
    if (options->advisor) {
      options->scan_options.advisor =
          std::make_shared<obs::LoadAdvisor>(history.get());
    }
  }

  for (const auto& table : options->tables) {
    auto format = SchemaForFormat(table.format);
    if (!format.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   format.status().ToString().c_str());
      return 1;
    }
    ScanRawOptions table_options = options->scan_options;
    table_options.raw_format = format->raw_format;
    Status s = (*manager)->catalog()->HasTable(table.name)
                   ? (*manager)->AttachOptions(table.name, table_options)
                   : (*manager)->RegisterRawFile(table.name, table.path,
                                                 format->schema,
                                                 table_options);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (options->timeseries_interval_ms >= 0) {
    (*manager)->telemetry()->timeseries().set_interval_nanos(
        options->timeseries_interval_ms * 1'000'000);
  }
  // Live introspection plane: HTTP /metrics, /statusz, /healthz. Declared
  // after the manager so the server (which reads its telemetry and statusz)
  // stops before the manager is destroyed.
  std::unique_ptr<obs::StatsServer> stats_server;
  if (options->stats_port >= 0) {
    obs::StatsServerOptions server_options;
    server_options.port = options->stats_port;
    server_options.telemetry = (*manager)->telemetry();
    server_options.watchdog = (*manager)->watchdog();
    ScanRawManager* mgr = manager->get();
    server_options.statusz_section = [mgr] { return mgr->Statusz(); };
    server_options.build_info = "scanraw_cli";
    stats_server = std::make_unique<obs::StatsServer>(server_options);
    Status s = stats_server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "stats server: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("stats server listening on http://127.0.0.1:%d\n",
                stats_server->port());
    std::fflush(stdout);
  }
  Ticker::Handle metrics_printer;
  if (options->metrics_interval_ms > 0) {
    // The window spans a few intervals so one late tick does not zero the
    // rates; deltas are computed inside the rings, not against a baseline.
    const int64_t window_nanos =
        static_cast<int64_t>(options->metrics_interval_ms) * 4 * 1'000'000;
    metrics_printer = Ticker::Shared().Every(
        std::chrono::milliseconds(options->metrics_interval_ms),
        [telemetry = (*manager)->telemetry(), window_nanos] {
          PrintRates(telemetry, window_nanos);
        });
  }

  auto execute = [&](const std::string& sql) -> bool {
    auto table = ParseSelectTable(sql);
    if (!table.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   table.status().ToString().c_str());
      return false;
    }
    auto meta = (*manager)->catalog()->GetTable(*table);
    if (!meta.ok()) {
      std::fprintf(stderr, "error: %s\n", meta.status().ToString().c_str());
      return false;
    }
    auto parsed = ParseSelect(sql, meta->schema);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   parsed.status().ToString().c_str());
      return false;
    }
    RealClock clock;
    const int64_t t0 = clock.NowNanos();
    obs::ExplainReport report;
    auto result = (*manager)->Query(parsed->table, parsed->spec,
                                    options->explain ? &report : nullptr);
    const double seconds =
        static_cast<double>(clock.NowNanos() - t0) * 1e-9;
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    PrintResult(*result, seconds, parsed->has_avg);
    if (options->explain) {
      const std::string dump =
          options->explain_json ? report.ToJson() : report.ToText();
      std::printf("%s\n", dump.c_str());
    }
    auto after = (*manager)->catalog()->GetTable(parsed->table);
    if (after.ok()) {
      std::printf("-- %.0f%% of %s loaded into the database\n\n",
                  100 * after->LoadedFraction(), parsed->table.c_str());
    }
    return true;
  };

  int failures = 0;
  if (!options->statements.empty()) {
    for (const auto& sql : options->statements) {
      std::printf("> %s\n", sql.c_str());
      if (!execute(sql)) ++failures;
    }
  } else {
    std::string line;
    std::printf("scanraw> ");
    std::fflush(stdout);
    while (std::getline(std::cin, line)) {
      if (!line.empty() && line != "quit" && line != "exit") {
        if (!execute(line)) ++failures;
      } else if (line == "quit" || line == "exit") {
        break;
      }
      std::printf("scanraw> ");
      std::fflush(stdout);
    }
  }

  if (!options->catalog_path.empty()) {
    Status s = (*manager)->SaveCatalog(options->catalog_path);
    if (!s.ok()) {
      std::fprintf(stderr, "catalog save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("catalog saved to %s\n", options->catalog_path.c_str());
  }

  if (query_log != nullptr) {
    std::printf("query log: %llu event(s) appended to %s"
                " (%llu append failure(s), %llu rotation(s))\n",
                static_cast<unsigned long long>(query_log->events_appended()),
                options->query_log_path.c_str(),
                static_cast<unsigned long long>(query_log->append_failures()),
                static_cast<unsigned long long>(query_log->rotations()));
    Status s = query_log->Close();
    if (!s.ok()) {
      std::fprintf(stderr, "query log close: %s\n", s.ToString().c_str());
    }
    s = history->SaveToFile(history_path);
    if (!s.ok()) {
      std::fprintf(stderr, "history save: %s\n", s.ToString().c_str());
    } else {
      std::printf("history saved to %s\n", history_path.c_str());
    }
  }

  obs::Telemetry* telemetry = (*manager)->telemetry();
  if (options->metrics) {
    const std::string dump = options->metrics_json ? telemetry->ToJson()
                                                   : telemetry->ToText();
    std::printf("%s\n", dump.c_str());
    if (fault_injection.has_value()) {
      const FaultCounters& fc = fault_injection->injector()->counters();
      std::printf(
          "fault-injection: read_errors=%llu short_reads=%llu "
          "read_retries=%llu append_errors=%llu torn_appends=%llu "
          "sync_errors=%llu\n",
          static_cast<unsigned long long>(fc.read_errors.load()),
          static_cast<unsigned long long>(fc.short_reads.load()),
          static_cast<unsigned long long>(fc.read_retries.load()),
          static_cast<unsigned long long>(fc.append_errors.load()),
          static_cast<unsigned long long>(fc.torn_appends.load()),
          static_cast<unsigned long long>(fc.sync_errors.load()));
    }
  }
  if (!options->trace_path.empty()) {
    obs::FlightRecorder* recorder = obs::FlightRecorder::Global();
    const std::string json = recorder->ToChromeTraceJson("scanraw_cli");
    std::FILE* f = std::fopen(options->trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "trace: cannot open %s\n",
                   options->trace_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("trace written to %s (%llu events recorded, each thread's "
                "last %zu kept)\n",
                options->trace_path.c_str(),
                static_cast<unsigned long long>(recorder->events_recorded()),
                obs::FlightRecorder::kRingEvents);
  }
  if (options->flight_dump) {
    if (options->flight_dump_path.empty()) {
      obs::FlightRecorder::Global()->DumpTo(2);
    } else if (obs::FlightRecorder::Global()->DumpToFile(
                   options->flight_dump_path.c_str())) {
      std::printf("flight recorder dumped to %s\n",
                  options->flight_dump_path.c_str());
    } else {
      std::fprintf(stderr, "flight dump: cannot open %s\n",
                   options->flight_dump_path.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) { return scanraw::Run(argc, argv); }
