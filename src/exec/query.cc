#include "exec/query.h"

#include <algorithm>
#include <limits>
#include <numeric>

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

namespace {

// A numeric value as the engine computes with it: a u32 widens, and a
// double truncates toward zero.
inline int64_t Value(uint32_t v) { return v; }
inline int64_t Value(int64_t v) { return v; }
inline int64_t Value(double v) { return static_cast<int64_t>(v); }

// Calls fn with a pointer to the column's typed values, so each kernel is
// instantiated once per column type. ResolveColumns has already rejected a
// string column in a numeric role.
template <typename Fn>
void WithValues(const ColumnVector& col, Fn&& fn) {
  switch (col.type()) {
    case FieldType::kUint32:
      fn(col.AsUint32().data());
      break;
    case FieldType::kInt64:
      fn(col.AsInt64().data());
      break;
    case FieldType::kDouble:
      fn(col.AsDouble().data());
      break;
    case FieldType::kString:
      break;
  }
}

// The rows a fold visits: the whole chunk, or a selection vector. A dense
// fold indexes the column directly, so the compiler vectorizes it.
struct AllRows {
  size_t n;
  size_t size() const { return n; }
  size_t operator[](size_t i) const { return i; }
};

struct SelectedRows {
  const uint32_t* rows;
  size_t n;
  size_t size() const { return n; }
  size_t operator[](size_t i) const { return rows[i]; }
};

// Writes the index of each row with lo <= value <= hi to `sel`, which has
// room for n, without a branch: every row is stored, and the cursor moves
// past it only on a match. Returns the number of matches.
template <typename T>
size_t SelectRange(const T* values, size_t n, int64_t lo, int64_t hi,
                   uint32_t* sel) {
  size_t matched = 0;
  for (size_t r = 0; r < n; ++r) {
    const int64_t v = Value(values[r]);
    sel[matched] = static_cast<uint32_t>(r);
    matched += static_cast<size_t>((v >= lo) & (v <= hi));
  }
  return matched;
}

// Keeps the rows of sel[0, n) whose string contains `pattern`, compacting
// them in place. Returns how many remain.
size_t SelectPattern(const ColumnVector& strings, std::string_view pattern,
                     uint32_t* sel, size_t n) {
  size_t matched = 0;
  for (size_t i = 0; i < n; ++i) {
    if (strings.StringAt(sel[i]).find(pattern) != std::string_view::npos) {
      sel[matched++] = sel[i];
    }
  }
  return matched;
}

// Sums wrap modulo 2^64, so a column's rows can be added in any order.
template <typename T, typename Rows>
uint64_t SumOf(const T* values, Rows rows) {
  uint64_t sum = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    sum += static_cast<uint64_t>(Value(values[rows[i]]));
  }
  return sum;
}

template <typename T, typename Rows>
void AddRowSums(const T* values, Rows rows, uint64_t* row_sums) {
  for (size_t i = 0; i < rows.size(); ++i) {
    row_sums[i] += static_cast<uint64_t>(Value(values[rows[i]]));
  }
}

template <typename T, typename Rows>
ColumnRange RangeOf(const T* values, Rows rows) {
  ColumnRange range{std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()};
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t v = Value(values[rows[i]]);
    range.min_value = std::min(range.min_value, v);
    range.max_value = std::max(range.max_value, v);
  }
  return range;
}

void AddGroup(GroupAggregate* into, const GroupAggregate& from) {
  into->count += from.count;
  into->sum += from.sum;
}

}  // namespace

QueryExecutor::QueryExecutor(QuerySpec spec)
    : spec_(std::move(spec)), required_columns_(spec_.RequiredColumns()) {}

Status QueryExecutor::ResolveColumns(const BinaryChunk& chunk) {
  const auto index = static_cast<unsigned long long>(chunk.chunk_index());
  columns_.clear();
  for (size_t col : required_columns_) {
    if (!chunk.HasColumn(col)) {
      return Status::InvalidArgument(
          StringPrintf("chunk %llu lacks required column %zu", index, col));
    }
    const ColumnVector& values = chunk.column(col);
    if (values.size() != chunk.num_rows()) {
      return Status::InvalidArgument(
          StringPrintf("chunk %llu has %zu rows but column %zu has %zu",
                       index, chunk.num_rows(), col, values.size()));
    }
    columns_.push_back(&values);
  }
  const auto mismatch = [&](const char* role, size_t col, const char* kind) {
    return Status::InvalidArgument(
        StringPrintf("chunk %llu: %s needs a %s column, column %zu is not",
                     index, role, kind, col));
  };
  const auto is_string = [&](size_t col) {
    return Column(col).type() == FieldType::kString;
  };
  const Predicate& p = spec_.predicate;
  if (p.range.has_value() && is_string(p.range->column)) {
    return mismatch("range predicate", p.range->column, "numeric");
  }
  if (p.pattern.has_value() && !is_string(p.pattern->column)) {
    return mismatch("LIKE", p.pattern->column, "string");
  }
  for (size_t col : spec_.sum_columns) {
    if (is_string(col)) return mismatch("SUM", col, "numeric");
  }
  for (size_t col : spec_.minmax_columns) {
    if (is_string(col)) return mismatch("MIN/MAX", col, "numeric");
  }
  return Status::OK();
}

const ColumnVector& QueryExecutor::Column(size_t col) const {
  const auto it = std::lower_bound(required_columns_.begin(),
                                   required_columns_.end(), col);
  return *columns_[static_cast<size_t>(it - required_columns_.begin())];
}

Status QueryExecutor::Consume(const BinaryChunk& chunk) {
  SCANRAW_RETURN_IF_ERROR(ResolveColumns(chunk));
  const size_t rows = chunk.num_rows();
  result_.rows_scanned += rows;
  const Predicate& p = spec_.predicate;
  if (p.empty()) {
    Fold(AllRows{rows});
    return Status::OK();
  }
  if (rows > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(StringPrintf(
        "chunk %llu has %zu rows, more than a selection vector indexes",
        static_cast<unsigned long long>(chunk.chunk_index()), rows));
  }
  if (selection_.size() < rows) selection_.resize(rows);
  uint32_t* sel = selection_.data();
  size_t matched = rows;
  if (p.range.has_value()) {
    WithValues(Column(p.range->column), [&](const auto* values) {
      matched = SelectRange(values, rows, p.range->lo, p.range->hi, sel);
    });
  } else {
    std::iota(sel, sel + rows, uint32_t{0});
  }
  if (p.pattern.has_value()) {
    matched = SelectPattern(Column(p.pattern->column), p.pattern->pattern,
                            sel, matched);
  }
  Fold(SelectedRows{sel, matched});
  return Status::OK();
}

template <typename Rows>
void QueryExecutor::Fold(Rows rows) {
  result_.rows_matched += rows.size();
  if (rows.size() == 0) return;  // column_ranges gains no entry
  if (spec_.group_by_column.has_value()) {
    row_sums_.assign(rows.size(), 0);
    for (size_t col : spec_.sum_columns) {
      WithValues(Column(col), [&](const auto* values) {
        AddRowSums(values, rows, row_sums_.data());
      });
    }
    for (uint64_t s : row_sums_) result_.total_sum += s;
    FoldGroups(Column(*spec_.group_by_column), rows);
  } else {
    for (size_t col : spec_.sum_columns) {
      WithValues(Column(col), [&](const auto* values) {
        result_.total_sum += SumOf(values, rows);
      });
    }
  }
  for (size_t col : spec_.minmax_columns) {
    WithValues(Column(col), [&](const auto* values) {
      const ColumnRange chunk_range = RangeOf(values, rows);
      auto [it, inserted] = result_.column_ranges.emplace(col, chunk_range);
      if (!inserted) {
        it->second.min_value =
            std::min(it->second.min_value, chunk_range.min_value);
        it->second.max_value =
            std::max(it->second.max_value, chunk_range.max_value);
      }
    });
  }
}

template <typename Rows>
void QueryExecutor::FoldGroups(const ColumnVector& keys, Rows rows) {
  if (keys.type() == FieldType::kString) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::string_view key = keys.StringAt(rows[i]);
      auto it = string_groups_.find(key);
      if (it == string_groups_.end()) {
        it = string_groups_.emplace(std::string(key), GroupAggregate{}).first;
      }
      AddGroup(&it->second, GroupAggregate{1, row_sums_[i]});
    }
    return;
  }
  WithValues(keys, [&](const auto* values) {
    for (size_t i = 0; i < rows.size(); ++i) {
      AddGroup(&numeric_groups_[Value(values[rows[i]])],
               GroupAggregate{1, row_sums_[i]});
    }
  });
}

QueryResult QueryExecutor::Finish() {
  // Numeric keys keep the string form of their uint64-cast value.
  for (const auto& [value, agg] : numeric_groups_) {
    std::string key;
    AppendUint64(&key, static_cast<uint64_t>(value));
    AddGroup(&result_.groups[key], agg);
  }
  for (const auto& [key, agg] : string_groups_) {
    AddGroup(&result_.groups[key], agg);
  }
  return std::move(result_);
}

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
