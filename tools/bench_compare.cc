// bench_compare — the perf-regression gate over BENCH_<name>.json
// artifacts written by the figure/table benches.
//
//   bench_compare BASELINE.json CANDIDATE.json [--threshold=PCT]
//
// Diffs every numeric cell of the candidate against the baseline (rows
// matched by first-column key, columns by header). Bench cells are times
// and costs, so larger is worse: a cell regresses when the candidate
// exceeds the baseline by more than PCT percent (default 5). Prints the
// aligned diff, worst regressions first, and exits nonzero iff at least
// one cell regressed — CI runs this against the checked-in golden
// artifacts in bench/golden/.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/file.h"
#include "tools/bench_comparison.h"

namespace scanraw {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: bench_compare BASELINE.json CANDIDATE.json "
               "[--threshold=PCT]\n"
               "exits 1 when a numeric cell of CANDIDATE exceeds BASELINE "
               "by more than PCT%% (default 5)\n");
}

int Run(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  double threshold_pct = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      threshold_pct = std::strtod(arg.c_str() + 12, &end);
      if (end == nullptr || *end != '\0' || threshold_pct < 0) {
        std::fprintf(stderr, "bad --threshold value: %s\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      Usage();
      return 2;
    }
  }
  if (candidate_path.empty()) {
    Usage();
    return 2;
  }

  auto load = [](const std::string& path) -> Result<BenchTable> {
    auto contents = ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    return ParseBenchJson(*contents);
  };
  auto baseline = load(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path.c_str(),
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto candidate = load(candidate_path);
  if (!candidate.ok()) {
    std::fprintf(stderr, "%s: %s\n", candidate_path.c_str(),
                 candidate.status().ToString().c_str());
    return 2;
  }
  if (baseline->name != candidate->name) {
    std::fprintf(stderr, "warning: comparing different benches: %s vs %s\n",
                 baseline->name.c_str(), candidate->name.c_str());
  }

  const BenchComparison comparison =
      CompareBenchTables(*baseline, *candidate, threshold_pct);
  std::printf("bench %s: baseline=%s candidate=%s threshold=%.1f%%\n",
              candidate->name.c_str(), baseline_path.c_str(),
              candidate_path.c_str(), threshold_pct);
  std::printf("%s", comparison.ToText().c_str());
  if (comparison.has_regression()) {
    std::printf("RESULT: REGRESSED\n");
    return 1;
  }
  std::printf("RESULT: OK\n");
  return 0;
}

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) { return scanraw::Run(argc, argv); }
