// Perf-regression gate: parse two BENCH_<name>.json artifacts (written by
// bench::BenchJsonWriter) and diff every numeric cell, matching rows by
// their first-column key. A cell regresses when the candidate value exceeds
// the baseline by more than the threshold percentage — bench cells are
// times/costs, so larger is worse. The bench_compare binary wraps this
// with file I/O and a nonzero exit on regression; CI runs it as the first
// perf gate.
#ifndef SCANRAW_TOOLS_BENCH_COMPARISON_H_
#define SCANRAW_TOOLS_BENCH_COMPARISON_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scanraw {

// One parsed bench artifact: the table the bench printed.
struct BenchTable {
  std::string name;  // "bench" field
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

// Parses the {"bench":...,"headers":[...],"rows":[[...]],...} artifact.
// Extra top-level members (nested tables, metrics dumps) are skipped.
Result<BenchTable> ParseBenchJson(std::string_view json);

// One compared numeric cell.
struct BenchDelta {
  std::string row_key;  // first column of the row
  std::string column;   // header of the cell
  double baseline = 0;
  double candidate = 0;
  double delta_pct = 0;  // 100 * (candidate - baseline) / baseline
  bool regressed = false;
};

struct BenchComparison {
  std::vector<BenchDelta> deltas;
  // Rows/columns present in only one artifact (named for the report).
  std::vector<std::string> unmatched;

  bool has_regression() const {
    for (const BenchDelta& d : deltas) {
      if (d.regressed) return true;
    }
    return false;
  }

  // Aligned diff, worst regressions first.
  std::string ToText() const;
};

// Diffs `candidate` against `baseline` with a regression threshold in
// percent. Cells that do not parse as numbers are ignored; rows are matched
// by first-column key, columns by header name.
BenchComparison CompareBenchTables(const BenchTable& baseline,
                                   const BenchTable& candidate,
                                   double threshold_pct);

}  // namespace scanraw

#endif  // SCANRAW_TOOLS_BENCH_COMPARISON_H_
