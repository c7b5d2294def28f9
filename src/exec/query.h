// Query descriptors for the chunk-at-a-time execution engine. The engine
// supports the paper's evaluation workloads: SELECT SUM(C_i + ... + C_k)
// FROM file (§5.1 micro-benchmarks) and group-by aggregates with pattern
// matching predicates (§5.2, the CIGAR distribution query).
#ifndef SCANRAW_EXEC_QUERY_H_
#define SCANRAW_EXEC_QUERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"
#include "obs/span_profiler.h"

namespace scanraw {

// value(column) in [lo, hi]; column must be numeric.
struct RangePredicate {
  size_t column = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

// string(column) contains `pattern` (SQL LIKE '%pattern%'); column must be
// a string column.
struct PatternPredicate {
  size_t column = 0;
  std::string pattern;
};

// Conjunction of the optional predicates.
struct Predicate {
  std::optional<RangePredicate> range;
  std::optional<PatternPredicate> pattern;

  bool empty() const { return !range.has_value() && !pattern.has_value(); }
};

struct QuerySpec {
  // SUM(sum over these columns) per matching row; may be empty (COUNT only).
  std::vector<size_t> sum_columns;
  // Report MIN/MAX over matching rows for these numeric columns.
  std::vector<size_t> minmax_columns;
  // Group results by this (string or numeric) column.
  std::optional<size_t> group_by_column;
  Predicate predicate;

  // Union of every column the query touches, sorted ascending. This is what
  // ScanRaw must materialize for each chunk.
  std::vector<size_t> RequiredColumns() const;
};

struct GroupAggregate {
  uint64_t count = 0;
  uint64_t sum = 0;
};

struct ColumnRange {
  int64_t min_value = 0;
  int64_t max_value = 0;
};

struct QueryResult {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t total_sum = 0;  // wrapping modulo 2^64
  std::map<std::string, GroupAggregate> groups;  // empty unless group-by
  // MIN/MAX per requested column over matching rows; a column is absent
  // when no row matched.
  std::map<size_t, ColumnRange> column_ranges;

  // AVG over the summed columns (total_sum / matches), 0 with no matches.
  double Average() const {
    return rows_matched == 0 ? 0.0
                             : static_cast<double>(total_sum) /
                                   static_cast<double>(rows_matched);
  }
};

// Accumulates a query over a sequence of chunks, one batch per chunk: every
// required column is resolved and type-checked once per chunk, the
// predicate writes the matching rows into a selection vector, and the
// aggregates fold typed arrays over that selection (or over every row when
// there is no predicate). Not thread-safe; the execution engine consumes
// chunks on a single thread (the paper's engine parallelizes internally,
// which is orthogonal to ScanRaw).
class QueryExecutor {
 public:
  explicit QueryExecutor(QuerySpec spec);

  // Folds one chunk into the running aggregate. The chunk must carry every
  // required column, with one value per row; LIKE needs a string column,
  // and range, SUM and MIN/MAX need numeric ones (InvalidArgument
  // otherwise).
  Status Consume(const BinaryChunk& chunk);

  // Returns the final aggregate. Consume must not be called afterwards.
  QueryResult Finish();

 private:
  // Heterogeneous lookup, so a chunk's string_view key finds its group
  // without building a string.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>()(key);
    }
  };

  // Fills columns_ for `chunk` and checks each column's length and type.
  Status ResolveColumns(const BinaryChunk& chunk);
  // The current chunk's column `col`, as ResolveColumns found it.
  const ColumnVector& Column(size_t col) const;
  // Folds the rows of the current chunk that `rows` names into result_.
  template <typename Rows>
  void Fold(Rows rows);
  template <typename Rows>
  void FoldGroups(const ColumnVector& keys, Rows rows);

  QuerySpec spec_;
  std::vector<size_t> required_columns_;  // spec_.RequiredColumns()
  QueryResult result_;
  // Per-chunk state, reused across chunks: the required columns (parallel
  // to required_columns_, read only inside Consume), the matching rows, and
  // with GROUP BY each matching row's sum over spec_.sum_columns.
  std::vector<const ColumnVector*> columns_;
  std::vector<uint32_t> selection_;
  std::vector<uint64_t> row_sums_;
  // GROUP BY aggregates by key value; Finish() builds each key's string.
  std::unordered_map<int64_t, GroupAggregate> numeric_groups_;
  std::unordered_map<std::string, GroupAggregate, KeyHash, std::equal_to<>>
      string_groups_;
};

// Pull-based chunk source: ScanRaw query runs and HeapScan adapters both
// implement this so the engine is agnostic to where chunks come from.
class ChunkStream {
 public:
  virtual ~ChunkStream() = default;
  // nullopt signals end of stream.
  virtual Result<std::optional<BinaryChunkPtr>> Next() = 0;
};

// Drains `stream` through a QueryExecutor.
Result<QueryResult> RunQuery(const QuerySpec& spec, ChunkStream* stream);

// Same, recording each Consume as an ENGINE span in `profiler` (nullable)
// so EXPLAIN ANALYZE can attribute engine time vs. pipeline time.
Result<QueryResult> RunQuery(const QuerySpec& spec, ChunkStream* stream,
                             obs::SpanProfiler* profiler);

}  // namespace scanraw

#endif  // SCANRAW_EXEC_QUERY_H_
