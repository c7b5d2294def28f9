// Shared declarations of the repository benchmark (perfbench). One process
// runs one workload from a seed: it generates the raw file, computes every
// expected answer with a trivial reference evaluator, drives the engine
// through its public API from a single client thread, and prints the
// metrics named in BENCHMARK.json.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "datagen/csv_generator.h"
#include "exec/query.h"

namespace perfbench {

using scanraw::Result;
using scanraw::Status;

// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();
inline double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }
inline double Millis(int64_t nanos) { return static_cast<double>(nanos) * 1e-6; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the generated raw file and database files.
  std::string work_dir;
  // Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
  // Small inputs and short phases, for the benchmark's self-check.
  bool tiny = false;
  // Corrupts one expected answer, so the self-check can prove a wrong
  // answer is counted as a failure instead of aborting the run.
  bool inject_wrong_answer = false;
};

// Ordered name -> (value, unit) list, printed as the result's "metrics".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// One seeded aggregate: the SQL text the client sends plus the decoded
// shape the reference evaluator needs.
struct BenchQuery {
  std::string sql;
  std::vector<size_t> sum_columns;
  std::optional<scanraw::RangePredicate> range;
  std::optional<scanraw::PatternPredicate> pattern;
};

struct Expected {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t total_sum = 0;
};

// Reference answers for `queries`, computed by one streaming pass of a
// byte-at-a-time CSV parser over the generated file. The parsed column sums
// are checked against the generator's CsvFileInfo::column_sums first, so a
// reference bug fails loudly instead of blaming the engine.
Result<std::vector<Expected>> EvaluateReference(
    const std::string& path, const scanraw::CsvSpec& spec,
    const scanraw::CsvFileInfo& info, const std::vector<BenchQuery>& queries);

// True when `result` carries exactly the expected aggregate.
bool Matches(const scanraw::QueryResult& result, const Expected& expected);

// Layer replays and ceilings for the traced run, over the workload's own
// raw file and chunk extents (from the catalog after discovery).
struct ReplayInput {
  std::string path;
  scanraw::Schema schema;
  bool quoted = false;
  size_t num_workers = 4;
  // (offset, size) of every chunk, in file order.
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  // Records the file holds; the replay fails if it finds another count.
  uint64_t expected_rows = 0;
  // Scratch database file for the storage / heap-scan replay.
  std::string db_path;
};
// Besides the format, columnar and io metrics it returns db.heap_scan_ms and
// io.arbiter_writer_{wait,busy}_ms of the replay, which stand in for the
// in-situ values on workloads whose rounds never load or retire.
Result<Metrics> ReplayLayers(const ReplayInput& input);

// Stable order statistics over a copy of `values` (nearest rank). Empty
// input gives 0.
double Percentile(std::vector<double> values, double pct);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

// Runs the named workload and returns its metrics (end-to-end ones when
// untraced, per-layer ones when traced), accumulating answer checks.
struct RunOutcome {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Free-form provenance lines (workload sizes, flush policy, ...).
  std::vector<std::string> notes;
};
Result<RunOutcome> RunWorkload(const Args& args);

// The workload names the binary knows, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
