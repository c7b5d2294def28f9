#include "tools/bench_comparison.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace scanraw {

namespace {

// Minimal cursor JSON reader — just enough for the bench artifact schema:
// one top-level object whose members are strings, numbers, arrays of
// strings, arrays of arrays of strings, or nested objects (skipped).
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view json) : s_(json) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  Result<std::string> ParseString() {
    SkipWs();
    if (!Consume('"')) return Status::InvalidArgument("expected string");
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) {
              return Status::InvalidArgument("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status::InvalidArgument("bad \\u escape");
              }
            }
            // Bench cells are ASCII; keep non-ASCII as '?' rather than
            // carrying a UTF-8 encoder for a diff tool.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return Status::InvalidArgument("bad escape");
        }
      } else {
        out += c;
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  // Skips any JSON value (used for artifact members we do not diff).
  Status SkipValue() {
    SkipWs();
    if (pos_ >= s_.size()) return Status::InvalidArgument("truncated json");
    char c = s_[pos_];
    if (c == '"') {
      auto str = ParseString();
      return str.ok() ? Status::OK() : str.status();
    }
    if (c == '{' || c == '[') {
      const char open = c;
      const char close = open == '{' ? '}' : ']';
      ++pos_;
      int depth = 1;
      bool in_string = false;
      while (pos_ < s_.size() && depth > 0) {
        c = s_[pos_++];
        if (in_string) {
          if (c == '\\') {
            if (pos_ < s_.size()) ++pos_;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == open) {
          ++depth;
        } else if (c == close) {
          --depth;
        }
      }
      return depth == 0 ? Status::OK()
                        : Status::InvalidArgument("unbalanced json");
    }
    // Number / true / false / null.
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']') {
      ++pos_;
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ParseStringArray() {
    if (!Consume('[')) return Status::InvalidArgument("expected array");
    std::vector<std::string> out;
    if (Consume(']')) return out;
    while (true) {
      std::string item;
      SCANRAW_ASSIGN_OR_RETURN(item, ParseString());
      out.push_back(std::move(item));
      if (Consume(']')) return out;
      if (!Consume(',')) return Status::InvalidArgument("expected , or ]");
    }
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

Result<BenchTable> ParseBenchJson(std::string_view json) {
  JsonCursor cur(json);
  if (!cur.Consume('{')) {
    return Status::InvalidArgument("bench artifact: expected top-level object");
  }
  BenchTable table;
  if (cur.Consume('}')) return table;
  while (true) {
    std::string key;
    SCANRAW_ASSIGN_OR_RETURN(key, cur.ParseString());
    if (!cur.Consume(':')) {
      return Status::InvalidArgument("bench artifact: expected ':' after \"" +
                                     key + "\"");
    }
    if (key == "bench") {
      SCANRAW_ASSIGN_OR_RETURN(table.name, cur.ParseString());
    } else if (key == "headers") {
      SCANRAW_ASSIGN_OR_RETURN(table.headers, cur.ParseStringArray());
    } else if (key == "rows") {
      if (!cur.Consume('[')) {
        return Status::InvalidArgument("bench artifact: rows must be an array");
      }
      if (!cur.Consume(']')) {
        while (true) {
          std::vector<std::string> row;
          SCANRAW_ASSIGN_OR_RETURN(row, cur.ParseStringArray());
          table.rows.push_back(std::move(row));
          if (cur.Consume(']')) break;
          if (!cur.Consume(',')) {
            return Status::InvalidArgument("bench artifact: bad rows array");
          }
        }
      }
    } else {
      SCANRAW_RETURN_IF_ERROR(cur.SkipValue());
    }
    if (cur.Consume('}')) break;
    if (!cur.Consume(',')) {
      return Status::InvalidArgument("bench artifact: expected , or }");
    }
  }
  if (table.headers.empty()) {
    return Status::InvalidArgument("bench artifact: no headers");
  }
  return table;
}

namespace {

bool ParseNumber(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || end == nullptr) return false;
  // Reject trailing junk other than a unit-free suffix of spaces or '%'.
  while (*end == ' ' || *end == '%') ++end;
  if (*end != '\0') return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

BenchComparison CompareBenchTables(const BenchTable& baseline,
                                   const BenchTable& candidate,
                                   double threshold_pct) {
  BenchComparison cmp;

  std::map<std::string, const std::vector<std::string>*> candidate_rows;
  for (const auto& row : candidate.rows) {
    if (!row.empty()) candidate_rows[row[0]] = &row;
  }
  std::map<std::string, size_t> candidate_cols;
  for (size_t i = 0; i < candidate.headers.size(); ++i) {
    candidate_cols[candidate.headers[i]] = i;
  }

  for (const auto& row : baseline.rows) {
    if (row.empty()) continue;
    auto row_it = candidate_rows.find(row[0]);
    if (row_it == candidate_rows.end()) {
      cmp.unmatched.push_back("row \"" + row[0] + "\" missing in candidate");
      continue;
    }
    const std::vector<std::string>& cand_row = *row_it->second;
    candidate_rows.erase(row_it);
    for (size_t c = 1; c < row.size() && c < baseline.headers.size(); ++c) {
      auto col_it = candidate_cols.find(baseline.headers[c]);
      if (col_it == candidate_cols.end() ||
          col_it->second >= cand_row.size()) {
        continue;
      }
      double base = 0, cand = 0;
      if (!ParseNumber(row[c], &base) ||
          !ParseNumber(cand_row[col_it->second], &cand)) {
        continue;
      }
      BenchDelta delta;
      delta.row_key = row[0];
      delta.column = baseline.headers[c];
      delta.baseline = base;
      delta.candidate = cand;
      if (base != 0.0) {
        delta.delta_pct = 100.0 * (cand - base) / base;
      } else {
        delta.delta_pct = cand == 0.0 ? 0.0 : 100.0;
      }
      delta.regressed = delta.delta_pct > threshold_pct;
      cmp.deltas.push_back(std::move(delta));
    }
  }
  for (const auto& [key, _] : candidate_rows) {
    cmp.unmatched.push_back("row \"" + key + "\" missing in baseline");
  }
  std::sort(cmp.deltas.begin(), cmp.deltas.end(),
            [](const BenchDelta& a, const BenchDelta& b) {
              return a.delta_pct > b.delta_pct;
            });
  return cmp;
}

std::string BenchComparison::ToText() const {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-16s %-16s %12s %12s %9s\n", "row",
                "column", "baseline", "candidate", "delta");
  out += line;
  for (const BenchDelta& d : deltas) {
    std::snprintf(line, sizeof(line), "%-16s %-16s %12.4g %12.4g %+8.1f%%%s\n",
                  d.row_key.c_str(), d.column.c_str(), d.baseline, d.candidate,
                  d.delta_pct, d.regressed ? "  REGRESSION" : "");
    out += line;
  }
  for (const std::string& u : unmatched) {
    out += "! " + u + "\n";
  }
  return out;
}

}  // namespace scanraw
