#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/random.h"
#include "common/string_util.h"
#include "exec/query.h"

namespace scanraw {
namespace {

BinaryChunk MakeNumericChunk(uint64_t index,
                             std::vector<std::vector<uint32_t>> columns) {
  BinaryChunk chunk(index);
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnVector vec(FieldType::kUint32);
    for (uint32_t v : columns[c]) vec.AppendUint32(v);
    EXPECT_TRUE(chunk.AddColumn(c, std::move(vec)).ok());
  }
  return chunk;
}

TEST(QuerySpecTest, RequiredColumnsUnion) {
  QuerySpec spec;
  spec.sum_columns = {3, 1, 3};
  spec.group_by_column = 5;
  spec.predicate.range = RangePredicate{2, 0, 10};
  spec.predicate.pattern = PatternPredicate{7, "x"};
  EXPECT_EQ(spec.RequiredColumns(), (std::vector<size_t>{1, 2, 3, 5, 7}));
}

TEST(QuerySpecTest, EmptySpec) {
  QuerySpec spec;
  EXPECT_TRUE(spec.RequiredColumns().empty());
  EXPECT_TRUE(spec.predicate.empty());
}

TEST(QueryExecutorTest, SumAllColumns) {
  QuerySpec spec;
  spec.sum_columns = {0, 1};
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(0, {{1, 2, 3}, {10, 20, 30}})).ok());
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(1, {{4}, {40}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.rows_scanned, 4u);
  EXPECT_EQ(r.rows_matched, 4u);
  EXPECT_EQ(r.total_sum, 1u + 2 + 3 + 10 + 20 + 30 + 4 + 40);
}

TEST(QueryExecutorTest, CountOnly) {
  QuerySpec spec;  // no sum columns
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(0, {{1, 2, 3}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.rows_matched, 3u);
  EXPECT_EQ(r.total_sum, 0u);
}

TEST(QueryExecutorTest, RangePredicate) {
  QuerySpec spec;
  spec.sum_columns = {1};
  spec.predicate.range = RangePredicate{0, 2, 3};
  QueryExecutor exec(spec);
  ASSERT_TRUE(
      exec.Consume(MakeNumericChunk(0, {{1, 2, 3, 4}, {10, 20, 30, 40}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.rows_scanned, 4u);
  EXPECT_EQ(r.rows_matched, 2u);
  EXPECT_EQ(r.total_sum, 50u);
}

TEST(QueryExecutorTest, PatternPredicateAndGroupBy) {
  BinaryChunk chunk(0);
  ColumnVector cigar(FieldType::kString), seq(FieldType::kString),
      qual(FieldType::kUint32);
  const std::vector<std::string> cigars = {"100M", "50M2D48M", "100M", "99M1I"};
  const std::vector<std::string> seqs = {"ACGTACGT", "TTTT", "ACGGGGT", "CCCC"};
  for (size_t i = 0; i < 4; ++i) {
    cigar.AppendString(cigars[i]);
    seq.AppendString(seqs[i]);
    qual.AppendUint32(static_cast<uint32_t>(i + 1));
  }
  ASSERT_TRUE(chunk.AddColumn(0, std::move(cigar)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(seq)).ok());
  ASSERT_TRUE(chunk.AddColumn(2, std::move(qual)).ok());

  QuerySpec spec;
  spec.group_by_column = 0;
  spec.sum_columns = {2};
  spec.predicate.pattern = PatternPredicate{1, "ACG"};  // rows 0 and 2 match
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(chunk).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.rows_matched, 2u);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups.at("100M").count, 2u);
  EXPECT_EQ(r.groups.at("100M").sum, 1u + 3u);
}

TEST(QueryExecutorTest, GroupByNumericColumn) {
  QuerySpec spec;
  spec.group_by_column = 0;
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(0, {{7, 7, 9}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.groups.at("7").count, 2u);
  EXPECT_EQ(r.groups.at("9").count, 1u);
}

TEST(QueryExecutorTest, MissingColumnRejected) {
  QuerySpec spec;
  spec.sum_columns = {5};
  QueryExecutor exec(spec);
  EXPECT_TRUE(
      exec.Consume(MakeNumericChunk(0, {{1}})).IsInvalidArgument());
}

TEST(QueryExecutorTest, CombinedPredicates) {
  BinaryChunk chunk(0);
  ColumnVector num(FieldType::kUint32), str(FieldType::kString);
  num.AppendUint32(5);
  num.AppendUint32(15);
  num.AppendUint32(25);
  str.AppendString("hit");
  str.AppendString("hit");
  str.AppendString("miss");
  ASSERT_TRUE(chunk.AddColumn(0, std::move(num)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(str)).ok());
  QuerySpec spec;
  spec.predicate.range = RangePredicate{0, 10, 30};
  spec.predicate.pattern = PatternPredicate{1, "hit"};
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(chunk).ok());
  EXPECT_EQ(exec.Finish().rows_matched, 1u);  // only row 1 passes both
}

class VectorChunkStream : public ChunkStream {
 public:
  explicit VectorChunkStream(std::vector<BinaryChunkPtr> chunks)
      : chunks_(std::move(chunks)) {}
  Result<std::optional<BinaryChunkPtr>> Next() override {
    if (pos_ >= chunks_.size()) return std::optional<BinaryChunkPtr>();
    return std::optional<BinaryChunkPtr>(chunks_[pos_++]);
  }

 private:
  std::vector<BinaryChunkPtr> chunks_;
  size_t pos_ = 0;
};

TEST(RunQueryTest, DrainsStream) {
  std::vector<BinaryChunkPtr> chunks;
  chunks.push_back(std::make_shared<const BinaryChunk>(
      MakeNumericChunk(0, {{1, 2}})));
  chunks.push_back(std::make_shared<const BinaryChunk>(
      MakeNumericChunk(1, {{3}})));
  VectorChunkStream stream(std::move(chunks));
  QuerySpec spec;
  spec.sum_columns = {0};
  auto result = RunQuery(spec, &stream);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_sum, 6u);
  EXPECT_EQ(result->rows_scanned, 3u);
}

class FailingStream : public ChunkStream {
 public:
  Result<std::optional<BinaryChunkPtr>> Next() override {
    return Status::IoError("stream broke");
  }
};

TEST(RunQueryTest, PropagatesStreamError) {
  FailingStream stream;
  QuerySpec spec;
  auto result = RunQuery(spec, &stream);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(QueryExecutorTest, MinMaxColumns) {
  QuerySpec spec;
  spec.minmax_columns = {0, 1};
  QueryExecutor exec(spec);
  ASSERT_TRUE(
      exec.Consume(MakeNumericChunk(0, {{5, 1, 9}, {100, 300, 200}})).ok());
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(1, {{7}, {50}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.column_ranges.at(0).min_value, 1);
  EXPECT_EQ(r.column_ranges.at(0).max_value, 9);
  EXPECT_EQ(r.column_ranges.at(1).min_value, 50);
  EXPECT_EQ(r.column_ranges.at(1).max_value, 300);
}

TEST(QueryExecutorTest, MinMaxRespectsPredicate) {
  QuerySpec spec;
  spec.minmax_columns = {1};
  spec.predicate.range = RangePredicate{0, 2, 3};
  QueryExecutor exec(spec);
  ASSERT_TRUE(
      exec.Consume(MakeNumericChunk(0, {{1, 2, 3, 4}, {10, 20, 30, 40}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_EQ(r.column_ranges.at(1).min_value, 20);
  EXPECT_EQ(r.column_ranges.at(1).max_value, 30);
}

TEST(QueryExecutorTest, MinMaxAbsentWhenNoMatch) {
  QuerySpec spec;
  spec.minmax_columns = {0};
  spec.predicate.range = RangePredicate{0, 1000, 2000};
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(0, {{1, 2}})).ok());
  EXPECT_TRUE(exec.Finish().column_ranges.empty());
}

TEST(QueryExecutorTest, AverageFromSumAndCount) {
  QuerySpec spec;
  spec.sum_columns = {0};
  QueryExecutor exec(spec);
  ASSERT_TRUE(exec.Consume(MakeNumericChunk(0, {{10, 20, 30}})).ok());
  QueryResult r = exec.Finish();
  EXPECT_DOUBLE_EQ(r.Average(), 20.0);
  QueryResult empty;
  EXPECT_DOUBLE_EQ(empty.Average(), 0.0);
}

TEST(QuerySpecTest, MinMaxColumnsAreRequired) {
  QuerySpec spec;
  spec.minmax_columns = {6, 2};
  EXPECT_EQ(spec.RequiredColumns(), (std::vector<size_t>{2, 6}));
}

// Overflow behavior: sums wrap modulo 2^64 deterministically.
TEST(QueryExecutorTest, SumWrapsModulo64) {
  QuerySpec spec;
  spec.sum_columns = {0};
  QueryExecutor exec(spec);
  BinaryChunk chunk(0);
  ColumnVector vec(FieldType::kUint32);
  for (int i = 0; i < 8; ++i) vec.AppendUint32(4294967295u);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(vec)).ok());
  ASSERT_TRUE(exec.Consume(chunk).ok());
  EXPECT_EQ(exec.Finish().total_sum, 8ull * 4294967295ull);
}

// A column whose type does not fit its role is rejected per chunk, before
// any row is read: a LIKE on a numeric column used to read an empty string
// offset array, and a string column in a numeric role used to read as 0.
BinaryChunk MixedChunk() {
  BinaryChunk chunk(0);
  ColumnVector num(FieldType::kUint32), str(FieldType::kString);
  num.AppendUint32(7);
  num.AppendUint32(17);
  str.AppendString("7");
  str.AppendString("x");
  EXPECT_TRUE(chunk.AddColumn(0, std::move(num)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, std::move(str)).ok());
  return chunk;
}

TEST(QueryExecutorTest, LikeOnNumericColumnRejected) {
  QuerySpec spec;
  spec.predicate.pattern = PatternPredicate{0, "7"};
  QueryExecutor exec(spec);
  EXPECT_TRUE(exec.Consume(MixedChunk()).IsInvalidArgument());
  EXPECT_EQ(exec.Finish().rows_scanned, 0u);
}

TEST(QueryExecutorTest, RangeOnStringColumnRejected) {
  QuerySpec spec;
  spec.predicate.range = RangePredicate{1, 0, 10};
  QueryExecutor exec(spec);
  EXPECT_TRUE(exec.Consume(MixedChunk()).IsInvalidArgument());
}

TEST(QueryExecutorTest, SumOfStringColumnRejected) {
  QuerySpec spec;
  spec.sum_columns = {0, 1};
  QueryExecutor exec(spec);
  EXPECT_TRUE(exec.Consume(MixedChunk()).IsInvalidArgument());
}

TEST(QueryExecutorTest, MinMaxOfStringColumnRejected) {
  QuerySpec spec;
  spec.minmax_columns = {1};
  QueryExecutor exec(spec);
  EXPECT_TRUE(exec.Consume(MixedChunk()).IsInvalidArgument());
}

TEST(QueryExecutorTest, ColumnShorterThanChunkRejected) {
  // AddColumn refuses mismatched lengths, so set_num_rows forges the chunk.
  BinaryChunk chunk(0);
  ASSERT_TRUE(chunk.AddColumn(0, ColumnVector(FieldType::kUint32)).ok());
  chunk.set_num_rows(1);
  ColumnVector longer(FieldType::kUint32);
  longer.AppendUint32(1);
  ASSERT_TRUE(chunk.AddColumn(1, std::move(longer)).ok());
  QuerySpec spec;
  spec.sum_columns = {0, 1};
  QueryExecutor exec(spec);
  EXPECT_TRUE(exec.Consume(chunk).IsInvalidArgument());
}

// ---- differential check against the row-at-a-time engine -----------------

// The engine's former row loop, kept as the oracle: a column lookup and a
// NumericAt type switch per row and column, and a key string per grouped
// row.
class RowAtATimeExecutor {
 public:
  explicit RowAtATimeExecutor(QuerySpec spec) : spec_(std::move(spec)) {}

  void Consume(const BinaryChunk& chunk) {
    const size_t rows = chunk.num_rows();
    result_.rows_scanned += rows;
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
  }

  QueryResult Finish() { return std::move(result_); }

 private:
  bool Matches(const BinaryChunk& chunk, size_t row) const {
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

  QuerySpec spec_;
  QueryResult result_;
};

// Column layout of the generated chunks.
enum : size_t {
  kU32 = 0,         // full uint32 range
  kI64 = 1,         // full int64 range: every multi-row sum wraps
  kDouble = 2,      // fractions, within int64 range
  kString = 3,      // short ACGT strings, empty ones included
  kSmallU32 = 4,    // 0..7: group keys that repeat
  kSmallI64 = 5,    // -4..3: negative group keys
  kSmallDouble = 6, // -3.9..3.9: keys that collide after truncation
  kWord = 7,        // four words: string group keys
  kNumColumns = 8,
};
constexpr size_t kNumericColumns[] = {kU32,      kI64,      kDouble,
                                      kSmallU32, kSmallI64, kSmallDouble};
constexpr size_t kStringColumns[] = {kString, kWord};

BinaryChunk RandomChunk(Random* rng, uint64_t index, size_t rows) {
  std::vector<ColumnVector> cols = {
      ColumnVector(FieldType::kUint32), ColumnVector(FieldType::kInt64),
      ColumnVector(FieldType::kDouble), ColumnVector(FieldType::kString),
      ColumnVector(FieldType::kUint32), ColumnVector(FieldType::kInt64),
      ColumnVector(FieldType::kDouble), ColumnVector(FieldType::kString)};
  const char* words[] = {"", "a", "ab", "b"};
  for (size_t r = 0; r < rows; ++r) {
    cols[kU32].AppendUint32(rng->OneIn(4) ? 0xFFFFFFFFu - rng->NextUint32() % 4
                                          : rng->NextUint32());
    cols[kI64].AppendInt64(rng->OneIn(3)
                               ? static_cast<int64_t>(rng->Uniform(2001)) - 1000
                               : static_cast<int64_t>(rng->NextUint64()));
    const double scale = rng->OneIn(3) ? 9.0e18 : rng->OneIn(2) ? 1e6 : 10.0;
    cols[kDouble].AppendDouble((rng->NextDouble() * 2 - 1) * scale);
    std::string s;
    for (uint64_t n = rng->Uniform(7); n > 0; --n) s += "ACGT"[rng->Uniform(4)];
    cols[kString].AppendString(s);
    cols[kSmallU32].AppendUint32(static_cast<uint32_t>(rng->Uniform(8)));
    cols[kSmallI64].AppendInt64(static_cast<int64_t>(rng->Uniform(8)) - 4);
    cols[kSmallDouble].AppendDouble((rng->NextDouble() * 2 - 1) * 3.9);
    cols[kWord].AppendString(words[rng->Uniform(4)]);
  }
  BinaryChunk chunk(index);
  for (size_t c = 0; c < kNumColumns; ++c) {
    EXPECT_TRUE(chunk.AddColumn(c, std::move(cols[c])).ok());
  }
  return chunk;
}

template <size_t N>
size_t Pick(Random* rng, const size_t (&from)[N]) {
  return from[rng->Uniform(N)];
}

RangePredicate RandomRange(Random* rng) {
  RangePredicate p;
  p.column = Pick(rng, kNumericColumns);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (rng->Uniform(5)) {
    case 0:  // every value
      p.lo = kMin;
      p.hi = kMax;
      break;
    case 1:  // no value: an empty interval
      p.lo = 1;
      p.hi = 0;
      break;
    case 2:  // around the small columns' domain
      p.lo = static_cast<int64_t>(rng->Uniform(9)) - 4;
      p.hi = p.lo + static_cast<int64_t>(rng->Uniform(5));
      break;
    default: {  // two random bounds
      int64_t a = static_cast<int64_t>(rng->NextUint64());
      int64_t b = rng->OneIn(2) ? static_cast<int64_t>(rng->NextUint32())
                                : static_cast<int64_t>(rng->NextUint64());
      p.lo = std::min(a, b);
      p.hi = std::max(a, b);
    }
  }
  return p;
}

QuerySpec RandomSpec(Random* rng) {
  QuerySpec spec;
  for (uint64_t n = rng->Uniform(4); n > 0; --n) {
    spec.sum_columns.push_back(Pick(rng, kNumericColumns));
  }
  if (rng->OneIn(3)) {
    for (uint64_t n = 1 + rng->Uniform(2); n > 0; --n) {
      spec.minmax_columns.push_back(Pick(rng, kNumericColumns));
    }
  }
  switch (rng->Uniform(3)) {
    case 0:
      break;
    case 1:
      spec.group_by_column = Pick(rng, kNumericColumns);
      break;
    default:
      spec.group_by_column = Pick(rng, kStringColumns);
  }
  const char* patterns[] = {"", "A", "AC", "GT", "TTT", "a", "ab", "Z"};
  const uint64_t predicate = rng->Uniform(4);  // none, range, LIKE, both
  if (predicate & 1) spec.predicate.range = RandomRange(rng);
  if (predicate & 2) {
    spec.predicate.pattern =
        PatternPredicate{Pick(rng, kStringColumns), patterns[rng->Uniform(8)]};
  }
  return spec;
}

// 0 rows, 1 row, or an odd count.
size_t RandomRowCount(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return 0;
    case 1:
      return 1;
    default:
      return 2 * rng->Uniform(150) + 3;
  }
}

void ExpectSameResult(const QueryResult& want, const QueryResult& got) {
  EXPECT_EQ(got.rows_scanned, want.rows_scanned);
  EXPECT_EQ(got.rows_matched, want.rows_matched);
  EXPECT_EQ(got.total_sum, want.total_sum);
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (const auto& [key, agg] : want.groups) {
    ASSERT_EQ(got.groups.count(key), 1u) << "missing group '" << key << "'";
    EXPECT_EQ(got.groups.at(key).count, agg.count) << key;
    EXPECT_EQ(got.groups.at(key).sum, agg.sum) << key;
  }
  ASSERT_EQ(got.column_ranges.size(), want.column_ranges.size());
  for (const auto& [col, range] : want.column_ranges) {
    ASSERT_EQ(got.column_ranges.count(col), 1u) << "missing range " << col;
    EXPECT_EQ(got.column_ranges.at(col).min_value, range.min_value) << col;
    EXPECT_EQ(got.column_ranges.at(col).max_value, range.max_value) << col;
  }
}

TEST(QueryExecutorDifferentialTest, MatchesRowAtATimeOracle) {
  constexpr int kSpecs = 1500;
  Random rng(20140622);
  // Each shape the generator must reach, counted over the run.
  int empty_chunks = 0, one_row_chunks = 0, none_matched = 0, all_matched = 0,
      numeric_groups = 0, string_groups = 0, wrapped_sums = 0;
  for (int i = 0; i < kSpecs; ++i) {
    const QuerySpec spec = RandomSpec(&rng);
    QueryExecutor engine(spec);
    RowAtATimeExecutor oracle(spec);
    for (uint64_t c = 0, n = 1 + rng.Uniform(3); c < n; ++c) {
      const size_t rows = RandomRowCount(&rng);
      empty_chunks += rows == 0;
      one_row_chunks += rows == 1;
      const BinaryChunk chunk = RandomChunk(&rng, c, rows);
      ASSERT_TRUE(engine.Consume(chunk).ok());
      oracle.Consume(chunk);
    }
    const QueryResult want = oracle.Finish();
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectSameResult(want, engine.Finish());
    if (want.rows_scanned > 0 && spec.predicate.range.has_value()) {
      none_matched += want.rows_matched == 0;
      all_matched += want.rows_matched == want.rows_scanned &&
                     !spec.predicate.pattern.has_value();
    }
    if (spec.group_by_column.has_value() && want.groups.size() > 1) {
      const bool by_string = spec.group_by_column == kString ||
                             spec.group_by_column == kWord;
      (by_string ? string_groups : numeric_groups) += 1;
    }
    const bool sums_i64 = std::count(spec.sum_columns.begin(),
                                     spec.sum_columns.end(), kI64) > 0;
    wrapped_sums += sums_i64 && want.rows_matched > 1;
  }
  EXPECT_GT(empty_chunks, 0);
  EXPECT_GT(one_row_chunks, 0);
  EXPECT_GT(none_matched, 0);
  EXPECT_GT(all_matched, 0);
  EXPECT_GT(numeric_groups, 0);
  EXPECT_GT(string_groups, 0);
  EXPECT_GT(wrapped_sums, 0);
}

}  // namespace
}  // namespace scanraw
