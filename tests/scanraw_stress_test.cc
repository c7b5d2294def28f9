// Randomized end-to-end property tests: for random operator configurations
// (policy, workers, cache size, odd chunk sizes, feature flags) and random
// query specs, ScanRaw over the raw file must agree exactly with a naive
// in-memory reference executor — on the first query and on re-queries that
// mix cache, database and raw sources.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "datagen/csv_generator.h"
#include "scanraw/scanraw_manager.h"

namespace scanraw {
namespace {

constexpr uint64_t kRows = 6000;
constexpr size_t kCols = 6;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/stress_" + name;
}

// Replays the generator's value stream so the reference sees exactly the
// file's contents.
std::vector<std::vector<uint32_t>> MaterializeValues(const CsvSpec& spec) {
  Random rng(spec.seed);
  std::vector<std::vector<uint32_t>> rows(spec.num_rows);
  for (auto& row : rows) {
    row.resize(spec.num_columns);
    for (size_t c = 0; c < spec.num_columns; ++c) {
      row[c] = rng.NextUint32() % spec.max_value;
    }
  }
  return rows;
}

QueryResult ReferenceExecute(const std::vector<std::vector<uint32_t>>& rows,
                             const QuerySpec& spec) {
  QueryResult result;
  for (const auto& row : rows) {
    ++result.rows_scanned;
    if (spec.predicate.range.has_value()) {
      const auto& p = *spec.predicate.range;
      const int64_t v = row[p.column];
      if (v < p.lo || v > p.hi) continue;
    }
    ++result.rows_matched;
    uint64_t row_sum = 0;
    for (size_t c : spec.sum_columns) row_sum += row[c];
    result.total_sum += row_sum;
    for (size_t c : spec.minmax_columns) {
      const int64_t v = row[c];
      auto [it, inserted] =
          result.column_ranges.emplace(c, ColumnRange{v, v});
      if (!inserted) {
        it->second.min_value = std::min(it->second.min_value, v);
        it->second.max_value = std::max(it->second.max_value, v);
      }
    }
    if (spec.group_by_column.has_value()) {
      std::string key = std::to_string(row[*spec.group_by_column]);
      GroupAggregate& agg = result.groups[key];
      ++agg.count;
      agg.sum += row_sum;
    }
  }
  return result;
}

QuerySpec RandomQuery(Random* rng) {
  QuerySpec spec;
  const uint64_t n_sums = rng->Uniform(kCols) + (rng->OneIn(4) ? 0 : 1);
  for (uint64_t i = 0; i < n_sums; ++i) {
    spec.sum_columns.push_back(rng->Uniform(kCols));
  }
  std::sort(spec.sum_columns.begin(), spec.sum_columns.end());
  spec.sum_columns.erase(
      std::unique(spec.sum_columns.begin(), spec.sum_columns.end()),
      spec.sum_columns.end());
  if (rng->OneIn(3)) {
    spec.minmax_columns.push_back(rng->Uniform(kCols));
  }
  if (rng->OneIn(2)) {
    const size_t col = rng->Uniform(kCols);
    // Bounds spanning none / some / all of the [0, 2^31) value range.
    const int64_t a = static_cast<int64_t>(rng->Uniform(1ull << 32)) -
                      (1 << 30);
    const int64_t b = a + static_cast<int64_t>(rng->Uniform(1ull << 31));
    spec.predicate.range = RangePredicate{col, a, b};
  }
  if (rng->OneIn(4)) {
    // Group by a low-cardinality projection? Columns are near-unique, so
    // cap the damage by grouping only on small trials.
    spec.group_by_column = rng->Uniform(kCols);
  }
  return spec;
}

void ExpectEqualResults(const QueryResult& got, const QueryResult& want,
                        const std::string& context,
                        bool compare_scanned = true) {
  // Statistics-based chunk skipping legitimately reduces rows_scanned for
  // filtered queries, so callers disable that comparison there.
  if (compare_scanned) {
    EXPECT_EQ(got.rows_scanned, want.rows_scanned) << context;
  }
  EXPECT_EQ(got.rows_matched, want.rows_matched) << context;
  EXPECT_EQ(got.total_sum, want.total_sum) << context;
  EXPECT_EQ(got.column_ranges.size(), want.column_ranges.size()) << context;
  for (const auto& [col, range] : want.column_ranges) {
    ASSERT_TRUE(got.column_ranges.count(col)) << context;
    EXPECT_EQ(got.column_ranges.at(col).min_value, range.min_value)
        << context;
    EXPECT_EQ(got.column_ranges.at(col).max_value, range.max_value)
        << context;
  }
  ASSERT_EQ(got.groups.size(), want.groups.size()) << context;
  for (const auto& [key, agg] : want.groups) {
    ASSERT_TRUE(got.groups.count(key)) << context << " group " << key;
    EXPECT_EQ(got.groups.at(key).count, agg.count) << context;
    EXPECT_EQ(got.groups.at(key).sum, agg.sum) << context;
  }
}

TEST(StressTest, RandomConfigurationsMatchReference) {
  CsvSpec file_spec;
  file_spec.num_rows = kRows;
  file_spec.num_columns = kCols;
  file_spec.seed = 20140622;
  const std::string csv = TempPath("data.csv");
  ASSERT_TRUE(GenerateCsvFile(csv, file_spec).ok());
  const auto rows = MaterializeValues(file_spec);

  Random rng(99);
  constexpr LoadPolicy kPolicies[] = {
      LoadPolicy::kExternalTables, LoadPolicy::kFullLoad,
      LoadPolicy::kSpeculativeLoading, LoadPolicy::kInvisibleLoading,
      LoadPolicy::kBufferedLoading};

  for (int trial = 0; trial < 10; ++trial) {
    ScanRawOptions options;
    options.policy = kPolicies[rng.Uniform(5)];
    options.num_workers = rng.Uniform(5);            // 0..4
    options.cache_capacity_chunks = rng.Uniform(9);  // 0..8
    options.chunk_rows = 97 + rng.Uniform(1400);     // odd, non-power-of-2
    options.text_buffer_capacity = 1 + rng.Uniform(8);
    options.output_buffer_capacity = 1 + rng.Uniform(8);
    options.cache_positional_maps = rng.OneIn(2);
    options.collect_sketches = rng.OneIn(2);
    options.delay_admission_for_writes = rng.OneIn(3);
    if (rng.OneIn(3)) options.sort_column_before_load = rng.Uniform(kCols);
    options.invisible_chunks_per_query = 1 + rng.Uniform(4);

    ScanRawManager::Config config;
    config.db_path = TempPath("trial" + std::to_string(trial) + ".db");
    auto manager = ScanRawManager::Create(config);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)
                    ->RegisterRawFile("t", csv, CsvSchema(file_spec), options)
                    .ok());

    const std::string base_context =
        "trial " + std::to_string(trial) + " policy " +
        std::string(LoadPolicyName(options.policy)) + " workers " +
        std::to_string(options.num_workers) + " chunk_rows " +
        std::to_string(options.chunk_rows);
    for (int q = 0; q < 4; ++q) {
      const QuerySpec spec = RandomQuery(&rng);
      auto result = (*manager)->Query("t", spec);
      ASSERT_TRUE(result.ok())
          << base_context << ": " << result.status().ToString();
      // Chunk skipping can legitimately reduce rows_scanned; compare
      // everything else, and rows_scanned only when no range predicate.
      QueryResult want = ReferenceExecute(rows, spec);
      const std::string context = base_context + " query " + std::to_string(q);
      EXPECT_EQ(result->rows_matched, want.rows_matched) << context;
      EXPECT_EQ(result->total_sum, want.total_sum) << context;
      if (!spec.predicate.range.has_value()) {
        EXPECT_EQ(result->rows_scanned, want.rows_scanned) << context;
      }
      for (const auto& [col, range] : want.column_ranges) {
        ASSERT_TRUE(result->column_ranges.count(col)) << context;
        EXPECT_EQ(result->column_ranges.at(col).min_value, range.min_value)
            << context;
        EXPECT_EQ(result->column_ranges.at(col).max_value, range.max_value)
            << context;
      }
      ASSERT_EQ(result->groups.size(), want.groups.size()) << context;
      for (const auto& [key, agg] : want.groups) {
        ASSERT_TRUE(result->groups.count(key)) << context;
        EXPECT_EQ(result->groups.at(key).count, agg.count) << context;
        EXPECT_EQ(result->groups.at(key).sum, agg.sum) << context;
      }
    }
  }
}

// A long alternating sequence on one operator: correctness must hold while
// the loaded fraction only grows and the same answer comes back every time.
TEST(StressTest, LongAlternatingSequenceOnOneOperator) {
  CsvSpec file_spec;
  file_spec.num_rows = kRows;
  file_spec.num_columns = kCols;
  file_spec.seed = 7;
  const std::string csv = TempPath("seq.csv");
  ASSERT_TRUE(GenerateCsvFile(csv, file_spec).ok());
  const auto rows = MaterializeValues(file_spec);

  ScanRawOptions options;
  options.policy = LoadPolicy::kSpeculativeLoading;
  options.num_workers = 3;
  options.chunk_rows = 333;
  options.cache_capacity_chunks = 5;
  ScanRawManager::Config config;
  config.db_path = TempPath("seq.db");
  auto manager = ScanRawManager::Create(config);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(
      (*manager)
          ->RegisterRawFile("t", csv, CsvSchema(file_spec), options)
          .ok());

  Random rng(5);
  double last_fraction = 0;
  for (int q = 0; q < 12; ++q) {
    const QuerySpec spec = RandomQuery(&rng);
    auto result = (*manager)->Query("t", spec);
    ASSERT_TRUE(result.ok()) << "query " << q;
    QueryResult want = ReferenceExecute(rows, spec);
    ExpectEqualResults(*result, want, "query " + std::to_string(q),
                       /*compare_scanned=*/!spec.predicate.range.has_value());
    ScanRaw* op = (*manager)->GetOperator("t");
    if (op != nullptr) op->WaitForWrites();
    auto meta = (*manager)->catalog()->GetTable("t");
    ASSERT_TRUE(meta.ok());
    EXPECT_GE(meta->LoadedFraction(), last_fraction) << "query " << q;
    last_fraction = meta->LoadedFraction();
  }
}

}  // namespace
}  // namespace scanraw
