#include "exec/query.h"

#include <algorithm>

#include "common/string_util.h"

namespace scanraw {

std::vector<size_t> QuerySpec::RequiredColumns() const {
  std::vector<size_t> cols = sum_columns;
  cols.insert(cols.end(), minmax_columns.begin(), minmax_columns.end());
  if (group_by_column.has_value()) cols.push_back(*group_by_column);
  if (predicate.range.has_value()) cols.push_back(predicate.range->column);
  if (predicate.pattern.has_value()) cols.push_back(predicate.pattern->column);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

QueryExecutor::QueryExecutor(QuerySpec spec)
    : spec_(std::move(spec)), required_columns_(spec_.RequiredColumns()) {}

bool QueryExecutor::Matches(const BinaryChunk& chunk, size_t row) const {
  if (spec_.predicate.range.has_value()) {
    const auto& p = *spec_.predicate.range;
    const int64_t v = chunk.column(p.column).NumericAt(row);
    if (v < p.lo || v > p.hi) return false;
  }
  if (spec_.predicate.pattern.has_value()) {
    const auto& p = *spec_.predicate.pattern;
    const std::string_view s = chunk.column(p.column).StringAt(row);
    if (s.find(p.pattern) == std::string_view::npos) return false;
  }
  return true;
}

Status QueryExecutor::Consume(const BinaryChunk& chunk) {
  for (size_t col : required_columns_) {
    if (!chunk.HasColumn(col)) {
      return Status::InvalidArgument(
          StringPrintf("chunk %llu lacks required column %zu",
                       static_cast<unsigned long long>(chunk.chunk_index()),
                       col));
    }
  }
  const size_t rows = chunk.num_rows();
  result_.rows_scanned += rows;

  // Fast path: no predicate, no group-by, no min/max, all-uint32 sum
  // columns. This is the micro-benchmark query shape, so it is worth a
  // tight loop.
  if (spec_.predicate.empty() && !spec_.group_by_column.has_value() &&
      spec_.minmax_columns.empty()) {
    bool all_u32 = true;
    for (size_t col : spec_.sum_columns) {
      if (chunk.column(col).type() != FieldType::kUint32) {
        all_u32 = false;
        break;
      }
    }
    if (all_u32) {
      uint64_t sum = 0;
      for (size_t col : spec_.sum_columns) {
        for (uint32_t v : chunk.column(col).AsUint32()) sum += v;
      }
      result_.total_sum += sum;
      result_.rows_matched += rows;
      return Status::OK();
    }
  }

  for (size_t r = 0; r < rows; ++r) {
    if (!Matches(chunk, r)) continue;
    ++result_.rows_matched;
    uint64_t row_sum = 0;
    for (size_t col : spec_.sum_columns) {
      row_sum += static_cast<uint64_t>(chunk.column(col).NumericAt(r));
    }
    result_.total_sum += row_sum;
    for (size_t col : spec_.minmax_columns) {
      const int64_t v = chunk.column(col).NumericAt(r);
      auto [it, inserted] =
          result_.column_ranges.emplace(col, ColumnRange{v, v});
      if (!inserted) {
        it->second.min_value = std::min(it->second.min_value, v);
        it->second.max_value = std::max(it->second.max_value, v);
      }
    }
    if (spec_.group_by_column.has_value()) {
      const ColumnVector& key_col = chunk.column(*spec_.group_by_column);
      std::string key;
      if (key_col.type() == FieldType::kString) {
        key = std::string(key_col.StringAt(r));
      } else {
        AppendUint64(&key, static_cast<uint64_t>(key_col.NumericAt(r)));
      }
      GroupAggregate& agg = result_.groups[key];
      ++agg.count;
      agg.sum += row_sum;
    }
  }
  return Status::OK();
}

QueryResult QueryExecutor::Finish() { return std::move(result_); }

Result<QueryResult> RunQuery(const QuerySpec& spec, ChunkStream* stream) {
  return RunQuery(spec, stream, nullptr);
}

Result<QueryResult> RunQuery(const QuerySpec& spec, ChunkStream* stream,
                             obs::SpanProfiler* profiler) {
  QueryExecutor executor(spec);
  while (true) {
    auto next = stream->Next();
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    obs::SpanProfiler::Scope scope(profiler, obs::QueryStage::kEngine);
    SCANRAW_RETURN_IF_ERROR(executor.Consume(***next));
  }
  return executor.Finish();
}

}  // namespace scanraw
