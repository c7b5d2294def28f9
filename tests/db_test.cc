#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <iterator>

#include "db/catalog.h"
#include "db/heap_scan.h"
#include "db/statistics.h"
#include "db/storage_manager.h"
#include "io/file.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

BinaryChunk MakeChunk(uint64_t index, std::vector<uint32_t> c0,
                      std::vector<uint32_t> c1) {
  BinaryChunk chunk(index);
  ColumnVector v0(FieldType::kUint32), v1(FieldType::kUint32);
  for (uint32_t v : c0) v0.AppendUint32(v);
  for (uint32_t v : c1) v1.AppendUint32(v);
  EXPECT_TRUE(chunk.AddColumn(0, std::move(v0)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, std::move(v1)).ok());
  return chunk;
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  Schema schema = Schema::AllUint32(2);
  ASSERT_TRUE(catalog.CreateTable("t", "/raw/t.csv", schema, 1000).ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_TRUE(catalog.CreateTable("t", "x", schema, 1).code() ==
              StatusCode::kAlreadyExists);
  auto meta = catalog.GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->raw_path, "/raw/t.csv");
  EXPECT_EQ(meta->target_chunk_rows, 1000u);
  EXPECT_FALSE(meta->layout_known);
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"t"});
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.HasTable("t"));
  EXPECT_TRUE(catalog.DropTable("t").IsNotFound());
  EXPECT_TRUE(catalog.GetTable("t").status().IsNotFound());
}

std::vector<ChunkMetadata> TwoChunkLayout() {
  std::vector<ChunkMetadata> chunks(2);
  chunks[0].chunk_index = 0;
  chunks[0].raw_offset = 0;
  chunks[0].raw_size = 100;
  chunks[0].num_rows = 3;
  chunks[1].chunk_index = 1;
  chunks[1].raw_offset = 100;
  chunks[1].raw_size = 80;
  chunks[1].num_rows = 2;
  return chunks;
}

TEST(CatalogTest, LayoutAndSegments) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", "raw", Schema::AllUint32(2), 10).ok());
  ASSERT_TRUE(catalog.SetChunkLayout("t", TwoChunkLayout()).ok());
  EXPECT_TRUE(catalog.SetChunkLayout("t", TwoChunkLayout()).code() ==
              StatusCode::kAlreadyExists);

  StoredSegment seg;
  seg.page = {0, 55};
  seg.columns = {0};
  std::map<size_t, ColumnStats> stats{{0, {5, 42}}};
  ASSERT_TRUE(catalog.RecordSegment("t", 0, seg, stats).ok());
  EXPECT_TRUE(catalog.RecordSegment("t", 9, seg, stats).code() ==
              StatusCode::kOutOfRange);

  auto meta = catalog.GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->layout_known);
  EXPECT_EQ(meta->chunks[0].loaded_columns.size(), 1u);
  EXPECT_EQ(meta->chunks[0].stats.at(0).min_value, 5);
  EXPECT_FALSE(meta->FullyLoaded());
  EXPECT_DOUBLE_EQ(meta->LoadedFraction(), 0.25);

  // Loading the rest flips FullyLoaded.
  StoredSegment rest;
  rest.page = {55, 60};
  rest.columns = {1};
  ASSERT_TRUE(catalog.RecordSegment("t", 0, rest, {}).ok());
  StoredSegment both;
  both.page = {115, 100};
  both.columns = {0, 1};
  ASSERT_TRUE(catalog.RecordSegment("t", 1, both, {}).ok());
  meta = catalog.GetTable("t");
  EXPECT_TRUE(meta->FullyLoaded());
  EXPECT_DOUBLE_EQ(meta->LoadedFraction(), 1.0);
}

TEST(CatalogTest, StatsMergeWidensRange) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", "raw", Schema::AllUint32(1), 10).ok());
  std::vector<ChunkMetadata> layout(1);
  layout[0].chunk_index = 0;
  ASSERT_TRUE(catalog.SetChunkLayout("t", std::move(layout)).ok());
  StoredSegment seg;
  seg.columns = {0};
  ASSERT_TRUE(catalog.RecordSegment("t", 0, seg, {{0, {10, 20}}}).ok());
  ASSERT_TRUE(catalog.RecordSegment("t", 0, seg, {{0, {5, 15}}}).ok());
  auto meta = catalog.GetTable("t");
  EXPECT_EQ(meta->chunks[0].stats.at(0).min_value, 5);
  EXPECT_EQ(meta->chunks[0].stats.at(0).max_value, 20);
}

TEST(CatalogTest, ChunkSkippingPredicate) {
  ChunkMetadata chunk;
  chunk.stats[0] = {100, 200};
  EXPECT_TRUE(chunk.CanSkipForRange(0, 0, 99));
  EXPECT_TRUE(chunk.CanSkipForRange(0, 201, 500));
  EXPECT_FALSE(chunk.CanSkipForRange(0, 150, 160));
  EXPECT_FALSE(chunk.CanSkipForRange(0, 0, 100));
  EXPECT_FALSE(chunk.CanSkipForRange(1, 0, 0));  // no stats -> cannot skip
}

TEST(CatalogTest, PersistenceRoundTrip) {
  const std::string path = TempPath("catalog.txt");
  Catalog catalog;
  Schema schema(std::vector<ColumnDef>{{"id", FieldType::kUint32},
                                       {"name", FieldType::kString}},
                '\t');
  ASSERT_TRUE(catalog.CreateTable("genes", "/data/genes.sam", schema, 512).ok());
  ASSERT_TRUE(catalog.SetChunkLayout("genes", TwoChunkLayout()).ok());
  StoredSegment seg;
  seg.page = {7, 99};
  seg.columns = {0, 1};
  ASSERT_TRUE(
      catalog.RecordSegment("genes", 1, seg, {{0, {-3, 88}}}).ok());
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  Catalog restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  auto meta = restored.GetTable("genes");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->raw_path, "/data/genes.sam");
  EXPECT_EQ(meta->schema.num_columns(), 2u);
  EXPECT_EQ(meta->schema.delimiter(), '\t');
  EXPECT_EQ(meta->schema.column(1).type, FieldType::kString);
  EXPECT_TRUE(meta->layout_known);
  ASSERT_EQ(meta->chunks.size(), 2u);
  EXPECT_EQ(meta->chunks[1].segments.size(), 1u);
  EXPECT_EQ(meta->chunks[1].segments[0].page.offset, 7u);
  EXPECT_EQ(meta->chunks[1].stats.at(0).min_value, -3);
  EXPECT_EQ(meta->chunks[1].loaded_columns.count(1), 1u);
  EXPECT_EQ(meta->chunks[0].num_rows, 3u);
}

TEST(CatalogTest, LoadRejectsGarbage) {
  const std::string path = TempPath("catalog_bad.txt");
  ASSERT_TRUE(WriteStringToFile(path, "nonsense record here\n").ok());
  Catalog catalog;
  EXPECT_TRUE(catalog.LoadFromFile(path).IsCorruption());
}

TEST(CatalogTest, CreateTableRejectsEmptyName) {
  Catalog catalog;
  EXPECT_TRUE(catalog.CreateTable("", "raw", Schema::AllUint32(1), 10)
                  .IsInvalidArgument());
}

// Names with embedded whitespace used to shear the whitespace-split text
// format; percent-escaping makes them round-trip.
TEST(CatalogTest, PersistenceRoundTripEscapedNames) {
  const std::string path = TempPath("catalog_escaped.txt");
  Catalog catalog;
  Schema schema(
      std::vector<ColumnDef>{{"gene name", FieldType::kUint32},
                             {"50% identity\tmatch", FieldType::kString},
                             {"", FieldType::kInt64}},
      ',');
  ASSERT_TRUE(catalog
                  .CreateTable("my table", "/data/raw files/genes 2.sam",
                               schema, 128)
                  .ok());
  ASSERT_TRUE(catalog.SetChunkLayout("my table", TwoChunkLayout()).ok());
  StoredSegment seg;
  seg.page = {0, 10};
  seg.columns = {0};
  ASSERT_TRUE(catalog.RecordSegment("my table", 0, seg, {{0, {1, 2}}}).ok());
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  Catalog restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  auto meta = restored.GetTable("my table");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->raw_path, "/data/raw files/genes 2.sam");
  EXPECT_EQ(meta->schema.column(0).name, "gene name");
  EXPECT_EQ(meta->schema.column(1).name, "50% identity\tmatch");
  EXPECT_EQ(meta->schema.column(2).name, "");
  EXPECT_EQ(meta->chunks[0].stats.at(0).min_value, 1);
  EXPECT_EQ(meta->chunks[0].loaded_columns.count(0), 1u);
}

// Double zone-map bounds must survive a save/load bit-exactly — denormals,
// extreme magnitudes, and 17-significant-digit values included. Truncating
// them through the int64 path is the regression this guards against.
TEST(CatalogTest, PersistenceRoundTripAdversarialDoubles) {
  const std::string path = TempPath("catalog_doubles.txt");
  const double kAdversarial[][2] = {
      {5e-324, 2.2250738585072014e-308},     // denormal .. smallest normal
      {-DBL_MAX, DBL_MAX},
      {-0.0, 0.0},
      {0.1, 0.30000000000000004},            // classic non-representables
      {-9007199254740993.0, 9007199254740993.0},  // 2^53 + 1 territory
      {1.7976931348623155e+308, 1.7976931348623157e+308},
  };
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", "raw",
                               Schema::AllUint32(std::size(kAdversarial)), 10)
                  .ok());
  std::vector<ChunkMetadata> layout(1);
  layout[0].chunk_index = 0;
  ASSERT_TRUE(catalog.SetChunkLayout("t", std::move(layout)).ok());
  StoredSegment seg;
  seg.page = {0, 1};
  std::map<size_t, ColumnStats> stats;
  for (size_t i = 0; i < std::size(kAdversarial); ++i) {
    seg.columns.push_back(i);
    ColumnStats st;
    st.has_double = true;
    st.min_double = kAdversarial[i][0];
    st.max_double = kAdversarial[i][1];
    st.min_value = INT64_MIN;
    st.max_value = INT64_MAX;
    stats[i] = st;
  }
  ASSERT_TRUE(catalog.RecordSegment("t", 0, seg, stats).ok());
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  Catalog restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  auto meta = restored.GetTable("t");
  ASSERT_TRUE(meta.ok());
  for (size_t i = 0; i < std::size(kAdversarial); ++i) {
    const ColumnStats& st = meta->chunks[0].stats.at(i);
    ASSERT_TRUE(st.has_double) << "column " << i;
    // Bit-exact, not just value-equal: -0.0 must stay -0.0.
    uint64_t want_lo, want_hi, got_lo, got_hi;
    std::memcpy(&want_lo, &kAdversarial[i][0], 8);
    std::memcpy(&want_hi, &kAdversarial[i][1], 8);
    std::memcpy(&got_lo, &st.min_double, 8);
    std::memcpy(&got_hi, &st.max_double, 8);
    EXPECT_EQ(got_lo, want_lo) << "column " << i << " min";
    EXPECT_EQ(got_hi, want_hi) << "column " << i << " max";
  }
}

// The restart-then-skip regression: skip decisions taken from fractional
// double bounds must be identical before and after a catalog round-trip.
TEST(CatalogTest, RestartPreservesDoubleSkipDecisions) {
  const std::string path = TempPath("catalog_skip.txt");
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", "raw", Schema::AllUint32(1), 10).ok());
  std::vector<ChunkMetadata> layout(1);
  layout[0].chunk_index = 0;
  ASSERT_TRUE(catalog.SetChunkLayout("t", std::move(layout)).ok());
  StoredSegment seg;
  seg.columns = {0};
  ColumnStats st;
  st.has_double = true;
  st.min_double = -3.5;
  st.max_double = -0.5;
  st.min_value = -4;  // conservative floor/ceil envelope
  st.max_value = 0;
  ASSERT_TRUE(catalog.RecordSegment("t", 0, seg, {{0, st}}).ok());

  auto check = [](const ChunkMetadata& chunk) {
    // All values in [-3.5, -0.5]: a [0, 100] probe is skippable only with
    // the exact double upper bound (the int64 envelope rounds it to 0).
    EXPECT_TRUE(chunk.CanSkipForRange(0, 0, 100));
    EXPECT_TRUE(chunk.CanSkipForRange(0, -100, -4));
    EXPECT_FALSE(chunk.CanSkipForRange(0, -3, -1));
    // A probe at exactly -4 overlaps the int64 envelope but not the exact
    // double bounds — only the latter proves the chunk skippable.
    EXPECT_TRUE(chunk.CanSkipForRange(0, -4, -4));
  };
  check(catalog.GetTable("t")->chunks[0]);
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  Catalog restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  check(restored.GetTable("t")->chunks[0]);
}

TEST(CatalogTest, TornTrailingLineTolerated) {
  const std::string path = TempPath("catalog_torn.txt");
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", "raw", Schema::AllUint32(2), 10).ok());
  ASSERT_TRUE(catalog.SetChunkLayout("t", TwoChunkLayout()).ok());
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  // Simulate a legacy non-atomic writer dying mid-append: a partial record
  // with no final newline.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteStringToFile(path, *contents + "seg t 1 99").ok());

  Catalog restored;
  Catalog::LoadStats stats;
  ASSERT_TRUE(restored.LoadFromFile(path, &stats).ok());
  EXPECT_TRUE(stats.torn_tail_dropped);
  EXPECT_EQ(stats.torn_tail, "seg t 1 99");
  auto meta = restored.GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->chunks.size(), 2u);
  EXPECT_TRUE(meta->chunks[1].segments.empty());  // torn record dropped
}

TEST(CatalogTest, TerminatedGarbageLineStillCorruption) {
  const std::string path = TempPath("catalog_mid.txt");
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", "raw", Schema::AllUint32(1), 10).ok());
  ASSERT_TRUE(catalog.SaveToFile(path).ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  // A newline-terminated bad record is real corruption, not a torn tail.
  ASSERT_TRUE(WriteStringToFile(path, *contents + "seg t 1 99\n").ok());
  Catalog restored;
  EXPECT_TRUE(restored.LoadFromFile(path).IsCorruption());
}

TEST(CatalogTest, LegacyV1HeaderlessFileLoads) {
  const std::string path = TempPath("catalog_v1.txt");
  // Hand-written v1 record set: no header, raw (unescaped) fields,
  // int-only stats.
  ASSERT_TRUE(WriteStringToFile(path,
                                "table t /raw/t.csv 44 100 1\n"
                                "col t c0 0\n"
                                "col t c1 3\n"
                                "chunk t 0 0 64 4\n"
                                "stat t 0 0 -3 88\n"
                                "seg t 0 0 55 0,1\n")
                  .ok());
  Catalog catalog;
  Catalog::LoadStats stats;
  ASSERT_TRUE(catalog.LoadFromFile(path, &stats).ok());
  EXPECT_EQ(stats.version, 1);
  auto meta = catalog.GetTable("t");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->raw_path, "/raw/t.csv");
  EXPECT_EQ(meta->schema.delimiter(), ',');
  EXPECT_EQ(meta->schema.column(1).type, FieldType::kString);
  EXPECT_EQ(meta->chunks[0].stats.at(0).min_value, -3);
  EXPECT_FALSE(meta->chunks[0].stats.at(0).has_double);
  EXPECT_EQ(meta->chunks[0].loaded_columns.size(), 2u);
}

TEST(CatalogTest, NewerFormatVersionRejected) {
  const std::string path = TempPath("catalog_future.txt");
  ASSERT_TRUE(WriteStringToFile(path, "scanraw-catalog v99\n").ok());
  Catalog catalog;
  EXPECT_TRUE(catalog.LoadFromFile(path).IsCorruption());
}

TEST(StatisticsTest, ComputesMinMaxAcrossTypes) {
  BinaryChunk chunk(0);
  ColumnVector u(FieldType::kUint32);
  u.AppendUint32(7);
  u.AppendUint32(3);
  u.AppendUint32(9);
  ColumnVector i(FieldType::kInt64);
  i.AppendInt64(-4);
  i.AppendInt64(100);
  i.AppendInt64(0);
  ColumnVector s(FieldType::kString);
  s.AppendString("a");
  s.AppendString("b");
  s.AppendString("c");
  ASSERT_TRUE(chunk.AddColumn(0, std::move(u)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(i)).ok());
  ASSERT_TRUE(chunk.AddColumn(2, std::move(s)).ok());
  auto stats = ComputeChunkStats(chunk);
  ASSERT_EQ(stats.size(), 2u);  // string column skipped
  EXPECT_EQ(stats.at(0).min_value, 3);
  EXPECT_EQ(stats.at(0).max_value, 9);
  EXPECT_EQ(stats.at(1).min_value, -4);
  EXPECT_EQ(stats.at(1).max_value, 100);
}

TEST(StatisticsTest, DoubleColumnsGetExactBoundsAndEnvelope) {
  BinaryChunk chunk(0);
  ColumnVector d(FieldType::kDouble);
  d.AppendDouble(-3.5);
  d.AppendDouble(2.25);
  d.AppendDouble(-0.5);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(d)).ok());
  auto stats = ComputeChunkStats(chunk);
  ASSERT_EQ(stats.size(), 1u);
  const ColumnStats& st = stats.at(0);
  ASSERT_TRUE(st.has_double);
  EXPECT_DOUBLE_EQ(st.min_double, -3.5);
  EXPECT_DOUBLE_EQ(st.max_double, 2.25);
  // Conservative integer envelope: floor of the min, ceil of the max.
  EXPECT_EQ(st.min_value, -4);
  EXPECT_EQ(st.max_value, 3);
}

TEST(StatisticsTest, EmptyChunkNoStats) {
  BinaryChunk chunk(0);
  EXPECT_TRUE(ComputeChunkStats(chunk).empty());
}

TEST(StatisticsTest, RangeCardinalityEstimate) {
  ChunkMetadata chunk;
  chunk.num_rows = 1000;
  chunk.stats[0] = {0, 99};
  EXPECT_EQ(EstimateRangeCardinality(chunk, 0, 0, 99), 1000u);
  EXPECT_EQ(EstimateRangeCardinality(chunk, 0, 200, 300), 0u);
  const uint64_t half = EstimateRangeCardinality(chunk, 0, 0, 49);
  EXPECT_NEAR(static_cast<double>(half), 500.0, 10.0);
  // No stats: conservative full count.
  EXPECT_EQ(EstimateRangeCardinality(chunk, 5, 0, 1), 1000u);
}

TEST(StorageManagerTest, WriteAndReadSegment) {
  auto storage = StorageManager::Create(TempPath("db1.bin"));
  ASSERT_TRUE(storage.ok());
  BinaryChunk chunk = MakeChunk(4, {1, 2, 3}, {10, 20, 30});
  auto seg = (*storage)->WriteChunk(chunk);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg->columns, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(seg->page.offset, 0u);
  EXPECT_GT(seg->page.size, 0u);
  auto back = (*storage)->ReadSegment(seg->page);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->chunk_index(), 4u);
  EXPECT_EQ(back->column(1).AsUint32()[2], 30u);
}

TEST(StorageManagerTest, PartialColumnSegmentsMerge) {
  auto storage = StorageManager::Create(TempPath("db2.bin"));
  ASSERT_TRUE(storage.ok());
  BinaryChunk chunk = MakeChunk(0, {1, 2}, {7, 8});

  ChunkMetadata meta;
  meta.chunk_index = 0;
  meta.num_rows = 2;
  auto seg0 = (*storage)->WriteSegment(chunk, {0});
  ASSERT_TRUE(seg0.ok());
  meta.segments.push_back(*seg0);
  meta.loaded_columns.insert(0);

  // Column 1 not loaded yet: read must fail.
  auto missing = (*storage)->ReadChunkColumns(meta, {0, 1});
  EXPECT_TRUE(missing.status().IsNotFound());

  auto seg1 = (*storage)->WriteSegment(chunk, {1});
  ASSERT_TRUE(seg1.ok());
  meta.segments.push_back(*seg1);
  meta.loaded_columns.insert(1);

  auto merged = (*storage)->ReadChunkColumns(meta, {0, 1});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->column(0).AsUint32()[0], 1u);
  EXPECT_EQ(merged->column(1).AsUint32()[1], 8u);
}

// The requested columns span two stored segments that overlap in column
// 2: the merge moves each column out of the earliest segment holding it,
// strings included.
TEST(StorageManagerTest, OverlappingSegmentsMergeEarliestFirst) {
  auto storage = StorageManager::Create(TempPath("db_overlap.bin"));
  ASSERT_TRUE(storage.ok());
  BinaryChunk chunk = MakeChunk(3, {1, 2, 3}, {4, 5, 6});
  ColumnVector names(FieldType::kString);
  for (const char* name : {"ada", "", "grace"}) names.AppendString(name);
  ASSERT_TRUE(chunk.AddColumn(2, std::move(names)).ok());

  ChunkMetadata meta;
  meta.chunk_index = 3;
  meta.num_rows = 3;
  for (const std::vector<size_t>& columns :
       {std::vector<size_t>{2, 0}, std::vector<size_t>{1, 2, 1}}) {
    auto seg = (*storage)->WriteSegment(chunk, columns);
    ASSERT_TRUE(seg.ok()) << seg.status().ToString();
    meta.segments.push_back(*seg);
    meta.loaded_columns.insert(columns.begin(), columns.end());
  }
  auto merged = (*storage)->ReadChunkColumns(meta, {1, 2, 0});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->ColumnIds(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(merged->num_rows(), 3u);
  EXPECT_EQ(merged->column(0).AsUint32()[2], 3u);
  EXPECT_EQ(merged->column(1).AsUint32()[0], 4u);
  EXPECT_EQ(merged->column(2).StringAt(0), "ada");
  EXPECT_EQ(merged->column(2).StringAt(1), "");
  EXPECT_EQ(merged->column(2).StringAt(2), "grace");
}

TEST(StorageManagerTest, WriteMislengthColumnRejected) {
  auto storage = StorageManager::Create(TempPath("db_mislength.bin"));
  ASSERT_TRUE(storage.ok());
  BinaryChunk chunk = MakeChunk(0, {1, 2}, {3, 4});
  chunk.set_num_rows(3);
  EXPECT_TRUE(
      (*storage)->WriteSegment(chunk, {0}).status().IsInvalidArgument());
  EXPECT_EQ((*storage)->bytes_written(), 0u);
}

TEST(StorageManagerTest, WriteMissingColumnRejected) {
  auto storage = StorageManager::Create(TempPath("db3.bin"));
  ASSERT_TRUE(storage.ok());
  BinaryChunk chunk = MakeChunk(0, {1}, {2});
  EXPECT_TRUE(
      (*storage)->WriteSegment(chunk, {5}).status().IsInvalidArgument());
}

TEST(StorageManagerTest, BytesWrittenAdvances) {
  auto storage = StorageManager::Create(TempPath("db4.bin"));
  ASSERT_TRUE(storage.ok());
  EXPECT_EQ((*storage)->bytes_written(), 0u);
  BinaryChunk chunk = MakeChunk(0, {1}, {2});
  ASSERT_TRUE((*storage)->WriteChunk(chunk).ok());
  const uint64_t after_one = (*storage)->bytes_written();
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE((*storage)->WriteChunk(chunk).ok());
  EXPECT_EQ((*storage)->bytes_written(), 2 * after_one);
}

class HeapScanTest : public testing::Test {
 protected:
  void SetUp() override {
    auto storage = StorageManager::Create(TempPath("heap.bin"));
    ASSERT_TRUE(storage.ok());
    storage_ = std::move(*storage);
    ASSERT_TRUE(
        catalog_.CreateTable("t", "raw", Schema::AllUint32(2), 3).ok());
    // Three chunks; chunk 1 stays unloaded.
    std::vector<ChunkMetadata> layout(3);
    for (int i = 0; i < 3; ++i) {
      layout[i].chunk_index = i;
      layout[i].num_rows = 3;
    }
    ASSERT_TRUE(catalog_.SetChunkLayout("t", std::move(layout)).ok());
    LoadChunk(0, {1, 2, 3}, {10, 20, 30});
    LoadChunk(2, {100, 200, 300}, {7, 8, 9});
  }

  void LoadChunk(uint64_t index, std::vector<uint32_t> c0,
                 std::vector<uint32_t> c1) {
    BinaryChunk chunk = MakeChunk(index, std::move(c0), std::move(c1));
    auto seg = storage_->WriteChunk(chunk);
    ASSERT_TRUE(seg.ok());
    ASSERT_TRUE(catalog_
                    .RecordSegment("t", index, *seg,
                                   ComputeChunkStats(chunk))
                    .ok());
  }

  Catalog catalog_;
  std::unique_ptr<StorageManager> storage_;
};

TEST_F(HeapScanTest, ScansOnlyLoadedChunks) {
  auto meta = catalog_.GetTable("t");
  ASSERT_TRUE(meta.ok());
  HeapScan scan(*meta, storage_.get(), {0, 1});
  std::vector<uint64_t> seen;
  while (true) {
    auto chunk = scan.Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    seen.push_back((*chunk)->chunk_index());
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 2}));
}

TEST(CatalogTest, AppendChunkIncrementalDiscovery) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", "raw", Schema::AllUint32(1), 10).ok());
  ChunkMetadata c0;
  c0.chunk_index = 0;
  c0.raw_offset = 0;
  c0.raw_size = 50;
  c0.num_rows = 5;
  ASSERT_TRUE(catalog.AppendChunk("t", c0).ok());
  // Idempotent re-append of an identical chunk (abandoned discovery).
  ASSERT_TRUE(catalog.AppendChunk("t", c0).ok());
  // Re-append with a different extent is rejected.
  ChunkMetadata c0_bad = c0;
  c0_bad.raw_size = 99;
  EXPECT_TRUE(catalog.AppendChunk("t", c0_bad).IsInvalidArgument());
  // Gap in indexes is rejected.
  ChunkMetadata c5;
  c5.chunk_index = 5;
  EXPECT_TRUE(catalog.AppendChunk("t", c5).IsInvalidArgument());
  // Sealing stops further appends.
  ASSERT_TRUE(catalog.MarkLayoutComplete("t").ok());
  ChunkMetadata c1;
  c1.chunk_index = 1;
  EXPECT_EQ(catalog.AppendChunk("t", c1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.GetTable("t")->layout_known);
}

TEST(StorageManagerTest, OpenExistingReadsOldAndAppendsNew) {
  const std::string path = TempPath("reopen.bin");
  StoredSegment old_seg;
  {
    auto storage = StorageManager::Create(path);
    ASSERT_TRUE(storage.ok());
    auto seg = (*storage)->WriteChunk(MakeChunk(1, {10, 20}, {30, 40}));
    ASSERT_TRUE(seg.ok());
    old_seg = *seg;
  }
  auto reopened = StorageManager::OpenExisting(path);
  ASSERT_TRUE(reopened.ok());
  // Old segment still readable at its recorded PageRef.
  auto back = (*reopened)->ReadSegment(old_seg.page);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->column(0).AsUint32()[1], 20u);
  // New segments append after the existing data.
  auto seg2 = (*reopened)->WriteChunk(MakeChunk(2, {5}, {6}));
  ASSERT_TRUE(seg2.ok());
  EXPECT_EQ(seg2->page.offset, old_seg.page.size);
  auto back2 = (*reopened)->ReadSegment(seg2->page);
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2->chunk_index(), 2u);
}

TEST_F(HeapScanTest, RangeFilterSkipsChunks) {
  auto meta = catalog_.GetTable("t");
  ASSERT_TRUE(meta.ok());
  HeapScan scan(*meta, storage_.get(), {0});
  scan.SetRangeFilter(0, 150, 400);  // chunk 0 (max 3) can be skipped
  std::vector<uint64_t> seen;
  while (true) {
    auto chunk = scan.Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    seen.push_back((*chunk)->chunk_index());
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{2}));
  EXPECT_EQ(scan.chunks_skipped(), 1u);
}

}  // namespace
}  // namespace scanraw
