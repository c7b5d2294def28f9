// Trivially correct reference evaluator: parses the generated CSV one byte
// at a time (numeric columns as decimal u32, trailing quoted string columns
// with RFC-4180 doubled-quote escapes and embedded newlines) and folds every
// row into every query's expected aggregate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"

namespace perfbench {
namespace {

class RowParser {
 public:
  RowParser(const scanraw::CsvSpec& spec, const std::vector<BenchQuery>& queries,
            std::vector<Expected>* expected)
      : num_columns_(spec.num_columns),
        numeric_columns_(spec.num_columns - spec.quoted_columns),
        delimiter_(spec.delimiter),
        queries_(queries),
        expected_(expected),
        values_(spec.num_columns, 0),
        column_sums_(spec.num_columns, 0) {}

  Status Feed(const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      SCANRAW_RETURN_IF_ERROR(Byte(data[i]));
    }
    return Status::OK();
  }

  Status Finish() {
    if (column_ != 0 || in_field_) return EndRow();
    return Status::OK();
  }

  uint64_t rows() const { return rows_; }
  const std::vector<uint64_t>& column_sums() const { return column_sums_; }

 private:
  Status Byte(char c) {
    if (column_ >= numeric_columns_) {
      // Quoted string field.
      if (!in_quotes_ && !in_field_) {
        if (c != '"') return Bad("expected an opening quote");
        in_quotes_ = in_field_ = true;
        text_.clear();
        return Status::OK();
      }
      if (in_quotes_) {
        if (quote_pending_) {
          quote_pending_ = false;
          if (c == '"') {
            text_.push_back('"');
            return Status::OK();
          }
          in_quotes_ = false;  // closing quote; `c` ends the field
        } else if (c == '"') {
          quote_pending_ = true;
          return Status::OK();
        } else {
          text_.push_back(c);
          return Status::OK();
        }
      }
      strings_.resize(num_columns_);
      strings_[column_] = text_;
      return EndField(c);
    }
    if (c >= '0' && c <= '9') {
      value_ = value_ * 10 + static_cast<uint64_t>(c - '0');
      in_field_ = true;
      return Status::OK();
    }
    if (value_ > UINT32_MAX) return Bad("value overflows u32");
    values_[column_] = value_;
    value_ = 0;
    return EndField(c);
  }

  Status EndField(char c) {
    in_field_ = false;
    if (c == delimiter_) {
      if (++column_ >= num_columns_) return Bad("too many fields");
      return Status::OK();
    }
    if (c == '\n') return EndRow();
    return Bad("unexpected byte");
  }

  Status EndRow() {
    if (column_ + 1 != num_columns_) return Bad("too few fields");
    for (size_t c = 0; c < numeric_columns_; ++c) column_sums_[c] += values_[c];
    for (size_t q = 0; q < queries_.size(); ++q) {
      const BenchQuery& query = queries_[q];
      Expected& e = (*expected_)[q];
      ++e.rows_scanned;
      if (query.range.has_value()) {
        const int64_t v = static_cast<int64_t>(values_[query.range->column]);
        if (v < query.range->lo || v > query.range->hi) continue;
      }
      if (query.pattern.has_value() &&
          strings_[query.pattern->column].find(query.pattern->pattern) ==
              std::string::npos) {
        continue;
      }
      ++e.rows_matched;
      for (size_t c : query.sum_columns) e.total_sum += values_[c];
    }
    ++rows_;
    column_ = 0;
    return Status::OK();
  }

  Status Bad(const char* what) const {
    return Status::Corruption(std::string("reference parser: ") + what +
                              " in row " + std::to_string(rows_));
  }

  const size_t num_columns_;
  const size_t numeric_columns_;
  const char delimiter_;
  const std::vector<BenchQuery>& queries_;
  std::vector<Expected>* expected_;
  std::vector<uint64_t> values_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> column_sums_;
  std::string text_;
  uint64_t value_ = 0;
  uint64_t rows_ = 0;
  size_t column_ = 0;
  bool in_field_ = false;
  bool in_quotes_ = false;
  bool quote_pending_ = false;
};

}  // namespace

Result<std::vector<Expected>> EvaluateReference(
    const std::string& path, const scanraw::CsvSpec& spec,
    const scanraw::CsvFileInfo& info, const std::vector<BenchQuery>& queries) {
  std::vector<Expected> expected(queries.size());
  RowParser parser(spec, queries, &expected);
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "rb"),
                                             &std::fclose);
  if (file == nullptr) return Status::IoError("cannot open " + path);
  std::vector<char> block(1 << 20);
  while (true) {
    const size_t n = std::fread(block.data(), 1, block.size(), file.get());
    SCANRAW_RETURN_IF_ERROR(parser.Feed(block.data(), n));
    if (n < block.size()) break;
  }
  if (std::ferror(file.get())) return Status::IoError("read failed: " + path);
  SCANRAW_RETURN_IF_ERROR(parser.Finish());
  if (parser.rows() != info.num_rows) {
    return Status::Corruption("reference parser saw " +
                              std::to_string(parser.rows()) + " rows, expected " +
                              std::to_string(info.num_rows));
  }
  if (parser.column_sums() != info.column_sums) {
    return Status::Corruption(
        "reference column sums disagree with the generator's");
  }
  return expected;
}

bool Matches(const scanraw::QueryResult& result, const Expected& expected) {
  return result.rows_scanned == expected.rows_scanned &&
         result.rows_matched == expected.rows_matched &&
         result.total_sum == expected.total_sum;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least pct% of samples at or
  // below it.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

}  // namespace perfbench
