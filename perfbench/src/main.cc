// scanraw_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--trace-out <file>] [--tiny]
//                   [--inject-wrong-answer]
//
// Prints a provenance line (host fingerprint, workload sizes, flush policy,
// seed), one "metric <name> <value> <unit>" line per metric, the failed
// share of answers, and as the last line one JSON object: {"correct",
// "attempted", "failed", "metrics"}. failed_frac stays out of "metrics": it
// reads 0 on a healthy run, and "attempted"/"failed" carry it exactly.
// Exit codes: 0 with a result (even when answers were wrong), 1 when the
// run itself failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/byte_scan.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using scanraw::obs::JsonEscape;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: scanraw_perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <file>] [--tiny] [--inject-wrong-answer]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--inject-wrong-answer") {
      args->inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

std::string SimdLevel() {
  std::string level = "scalar";
#if SCANRAW_BYTE_SCAN_SIMD
  level = scanraw::bytescan::detail::HaveAvx2() ? "sse2+avx2" : "sse2";
#endif
  // byte_scan.h dispatches no wider than AVX2; AVX-512BW is reported so a
  // result says whether a wider kernel could have run.
  if (__builtin_cpu_supports("avx512bw")) level += " (cpu: avx512bw)";
  return level;
}

std::string Provenance(const Args& args, const RunOutcome& outcome) {
  std::string out = "{\"host\":{\"nproc\":" +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"simd\":\"" + JsonEscape(SimdLevel()) +
                    "\",\"compiler\":\"" +
#if defined(__clang__)
                    "clang " +
#elif defined(__GNUC__)
                    "gcc " +
#endif
                    JsonEscape(__VERSION__) + "\",\"build_type\":\"" +
                    JsonEscape(PERFBENCH_BUILD_TYPE) + "\"},\"workload\":\"" +
                    JsonEscape(args.workload) +
                    "\",\"seed\":" + std::to_string(args.seed) +
                    ",\"seconds\":" + std::to_string(args.seconds) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"tiny\":" + (args.tiny ? "true" : "false") +
                    ",\"notes\":[";
  for (size_t i = 0; i < outcome.notes.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + JsonEscape(outcome.notes[i]) + "\"";
  }
  return out + "]}";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known) return Usage(("unknown workload " + args.workload).c_str());

  auto outcome = RunWorkload(args);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", outcome.status().ToString().c_str());
    return 1;
  }
  for (const Metric& m : outcome->metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  std::printf("provenance %s\n", Provenance(args, *outcome).c_str());
  std::string metrics;
  for (const Metric& m : outcome->metrics) {
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf("failed_frac %.6f (%llu of %llu answers)\n",
              outcome->attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome->failed) /
                        static_cast<double>(outcome->attempted),
              static_cast<unsigned long long>(outcome->failed),
              static_cast<unsigned long long>(outcome->attempted));
  const bool correct = outcome->failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome->attempted),
      static_cast<unsigned long long>(outcome->failed), metrics.c_str());
  return 0;
}
