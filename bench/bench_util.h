// Shared helpers for the figure/table benchmark binaries: aligned table
// printing and temp-file management. Each bench prints the same rows/series
// the paper reports for its figure.
#ifndef SCANRAW_BENCH_BENCH_UTIL_H_
#define SCANRAW_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace scanraw {
namespace bench {

inline std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  std::string base = env != nullptr ? env : "/tmp";
  return base + "/scanraw_bench";
}

// Path for a scratch file under TempDir(), creating the directory if
// needed. Fails (rather than returning a path writes would fail on) when
// the directory cannot be created.
inline Result<std::string> TempPath(const std::string& name) {
  const std::string dir = TempDir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  return dir + "/" + name;
}

// Aborts the bench with a message on error — benches have no caller to
// propagate to.
inline void CheckOk(const Status& status, const char* context) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", context, status.ToString().c_str());
    std::exit(1);
  }
}

// TempPath for the benches themselves: aborts on failure, like CheckOk.
inline std::string MustTempPath(const std::string& name) {
  auto path = TempPath(name);
  if (!path.ok()) CheckOk(path.status(), "temp path");
  return *path;
}

// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size());
  }

  void AddRow(std::vector<std::string> cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::string sep;
    for (size_t i = 0; i < headers_.size(); ++i) {
      sep += std::string(widths_[i] + 2, '-');
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row);
  }

 private:
  void PrintRow(const std::vector<std::string>& cells) const {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths_[i]), cells[i].c_str());
    }
    std::printf("\n");
  }

 public:
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// Verdict of an A/B overhead gate over interleaved pairs: base[i] and
// test[i] were timed back to back. The statistic is the median of the
// per-pair differences, and its noise is that median's own spread, McGill's
// notch 1.58 * IQR / sqrt(n) (about a 95% interval). The gate fails only
// when the whole interval lies above `threshold_pct` of the base median, so
// it needs no fixed noise floor and tightens as pairs are added.
struct OverheadVerdict {
  double base_median = 0;
  double diff_median = 0;  // test - base, per pair
  double diff_notch = 0;
  double overhead_pct = 0;  // diff_median over base_median
  double low_pct = 0;       // (diff_median - diff_notch) over base_median
  bool fail = false;
};

inline double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

inline OverheadVerdict JudgeOverhead(const std::vector<double>& base,
                                     const std::vector<double>& test,
                                     double threshold_pct) {
  std::vector<double> diffs;
  for (size_t i = 0; i < base.size() && i < test.size(); ++i) {
    diffs.push_back(test[i] - base[i]);
  }
  OverheadVerdict v;
  if (diffs.empty()) return v;
  v.base_median = Quantile(base, 0.5);
  v.diff_median = Quantile(diffs, 0.5);
  const double iqr = Quantile(diffs, 0.75) - Quantile(diffs, 0.25);
  v.diff_notch = 1.58 * iqr / std::sqrt(static_cast<double>(diffs.size()));
  v.overhead_pct = 100.0 * v.diff_median / v.base_median;
  v.low_pct = 100.0 * (v.diff_median - v.diff_notch) / v.base_median;
  v.fail = v.low_pct > threshold_pct;
  return v;
}

// Machine-readable bench artifact: writes BENCH_<name>.json next to the
// working directory (override the directory with SCANRAW_BENCH_OUT). The
// schema is {"bench":name,"headers":[...],"rows":[[...]],"extra":{...}} —
// every cell is the same string the table printed, so the JSON mirrors the
// human-readable output exactly.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  // Extra top-level key/value pairs (values embedded verbatim, so pass
  // valid JSON — numbers, or strings already quoted via obs::JsonEscape).
  void AddExtra(const std::string& key, const std::string& json_value) {
    extra_.emplace_back(key, json_value);
  }

  // {"headers":[...],"rows":[[...]]} for one table — also usable as an
  // AddExtra value to attach secondary tables.
  static std::string TableJson(const TablePrinter& table) {
    std::string json = "{\"headers\":[";
    for (size_t i = 0; i < table.headers().size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + obs::JsonEscape(table.headers()[i]) + "\"";
    }
    json += "],\"rows\":[";
    for (size_t r = 0; r < table.rows().size(); ++r) {
      if (r > 0) json += ",";
      json += "[";
      const auto& row = table.rows()[r];
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) json += ",";
        json += "\"" + obs::JsonEscape(row[i]) + "\"";
      }
      json += "]";
    }
    json += "]}";
    return json;
  }

  // Serializes the printed table (headers + rows) plus the extras.
  bool Write(const TablePrinter& table) const {
    const std::string table_json = TableJson(table);
    // Splice the table members into the top-level object.
    std::string json = "{\"bench\":\"" + obs::JsonEscape(name_) + "\"," +
                       table_json.substr(1, table_json.size() - 2);
    for (const auto& [key, value] : extra_) {
      json += ",\"" + obs::JsonEscape(key) + "\":" + value;
    }
    json += "}\n";

    const std::string path = OutPath();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench json: cannot open %s\n", path.c_str());
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("bench artifact: %s\n", path.c_str());
    return true;
  }

  std::string OutPath() const {
    const char* dir = std::getenv("SCANRAW_BENCH_OUT");
    std::string base = dir != nullptr ? std::string(dir) + "/" : "";
    return base + "BENCH_" + name_ + ".json";
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> extra_;
};

}  // namespace bench
}  // namespace scanraw

#endif  // SCANRAW_BENCH_BENCH_UTIL_H_
