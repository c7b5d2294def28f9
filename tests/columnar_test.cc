#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/binary_chunk.h"
#include "columnar/chunk_serde.h"
#include "columnar/chunk_sort.h"
#include "columnar/column_vector.h"
#include "common/checksum.h"
#include "common/random.h"

namespace scanraw {
namespace {

TEST(ColumnVectorTest, Uint32AppendAndRead) {
  ColumnVector v(FieldType::kUint32);
  v.AppendUint32(1);
  v.AppendUint32(42);
  v.AppendUint32(4294967295u);
  ASSERT_EQ(v.size(), 3u);
  auto span = v.AsUint32();
  EXPECT_EQ(span[0], 1u);
  EXPECT_EQ(span[1], 42u);
  EXPECT_EQ(span[2], 4294967295u);
  EXPECT_EQ(v.NumericAt(2), 4294967295);
}

TEST(ColumnVectorTest, Int64AndDouble) {
  ColumnVector a(FieldType::kInt64);
  a.AppendInt64(-5);
  a.AppendInt64(1ll << 40);
  EXPECT_EQ(a.AsInt64()[0], -5);
  EXPECT_EQ(a.NumericAt(1), 1ll << 40);

  ColumnVector b(FieldType::kDouble);
  b.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(b.AsDouble()[0], 2.5);
  EXPECT_EQ(b.NumericAt(0), 2);
}

TEST(ColumnVectorTest, Strings) {
  ColumnVector v(FieldType::kString);
  v.AppendString("alpha");
  v.AppendString("");
  v.AppendString("gamma");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.StringAt(0), "alpha");
  EXPECT_EQ(v.StringAt(1), "");
  EXPECT_EQ(v.StringAt(2), "gamma");
  EXPECT_GT(v.MemoryBytes(), 10u);
}

TEST(ColumnVectorTest, EmptyVector) {
  ColumnVector v(FieldType::kUint32);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.AsUint32().size(), 0u);
}

TEST(BinaryChunkTest, AddAndAccessColumns) {
  BinaryChunk chunk(7);
  ColumnVector c0(FieldType::kUint32);
  c0.AppendUint32(10);
  c0.AppendUint32(20);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(c0)).ok());
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_TRUE(chunk.HasColumn(0));
  EXPECT_FALSE(chunk.HasColumn(1));
  EXPECT_EQ(chunk.chunk_index(), 7u);
  EXPECT_EQ(chunk.column(0).AsUint32()[1], 20u);
}

TEST(BinaryChunkTest, RowCountMismatchRejected) {
  BinaryChunk chunk(0);
  ColumnVector c0(FieldType::kUint32);
  c0.AppendUint32(1);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(c0)).ok());
  ColumnVector c1(FieldType::kUint32);
  c1.AppendUint32(1);
  c1.AppendUint32(2);
  EXPECT_TRUE(chunk.AddColumn(1, std::move(c1)).IsInvalidArgument());
}

TEST(BinaryChunkTest, EmptyColumnThenLongerRejected) {
  BinaryChunk chunk(0);
  ASSERT_TRUE(chunk.AddColumn(0, ColumnVector(FieldType::kUint32)).ok());
  ColumnVector longer(FieldType::kUint32);
  longer.AppendUint32(1);
  EXPECT_TRUE(chunk.AddColumn(1, std::move(longer)).IsInvalidArgument());
  EXPECT_EQ(chunk.num_rows(), 0u);
  EXPECT_FALSE(chunk.HasColumn(1));
}

TEST(BinaryChunkTest, LongerColumnThenEmptyRejected) {
  BinaryChunk chunk(0);
  ColumnVector longer(FieldType::kUint32);
  longer.AppendUint32(1);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(longer)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, ColumnVector(FieldType::kUint32))
                  .IsInvalidArgument());
  EXPECT_EQ(chunk.num_rows(), 1u);
  EXPECT_FALSE(chunk.HasColumn(1));
}

TEST(BinaryChunkTest, MergeColumns) {
  BinaryChunk a(3), b(3);
  ColumnVector c0(FieldType::kUint32);
  c0.AppendUint32(1);
  ASSERT_TRUE(a.AddColumn(0, std::move(c0)).ok());
  ColumnVector c1(FieldType::kInt64);
  c1.AppendInt64(-9);
  ASSERT_TRUE(b.AddColumn(1, std::move(c1)).ok());
  ASSERT_TRUE(a.MergeColumnsFrom(b).ok());
  EXPECT_TRUE(a.HasColumn(0));
  EXPECT_TRUE(a.HasColumn(1));
  EXPECT_EQ(a.column(1).AsInt64()[0], -9);
}

TEST(BinaryChunkTest, MergeDifferentIndexRejected) {
  BinaryChunk a(1), b(2);
  EXPECT_TRUE(a.MergeColumnsFrom(b).IsInvalidArgument());
}

TEST(BinaryChunkTest, MergeKeepsExistingColumn) {
  BinaryChunk a(0), b(0);
  ColumnVector av(FieldType::kUint32);
  av.AppendUint32(111);
  ASSERT_TRUE(a.AddColumn(0, std::move(av)).ok());
  ColumnVector bv(FieldType::kUint32);
  bv.AppendUint32(222);
  ASSERT_TRUE(b.AddColumn(0, std::move(bv)).ok());
  ASSERT_TRUE(a.MergeColumnsFrom(b).ok());
  EXPECT_EQ(a.column(0).AsUint32()[0], 111u);
}

BinaryChunk MakeMixedChunk(uint64_t index, size_t rows) {
  Random rng(index + 1);
  BinaryChunk chunk(index);
  ColumnVector u(FieldType::kUint32), i(FieldType::kInt64),
      d(FieldType::kDouble), s(FieldType::kString);
  for (size_t r = 0; r < rows; ++r) {
    u.AppendUint32(rng.NextUint32());
    i.AppendInt64(static_cast<int64_t>(rng.NextUint64()));
    d.AppendDouble(rng.NextDouble() * 1000.0);
    std::string str;
    for (uint64_t k = rng.Uniform(12); k > 0; --k) {
      str.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    s.AppendString(str);
  }
  EXPECT_TRUE(chunk.AddColumn(0, std::move(u)).ok());
  EXPECT_TRUE(chunk.AddColumn(1, std::move(i)).ok());
  EXPECT_TRUE(chunk.AddColumn(5, std::move(d)).ok());
  EXPECT_TRUE(chunk.AddColumn(9, std::move(s)).ok());
  return chunk;
}

void ExpectChunksEqual(const BinaryChunk& a, const BinaryChunk& b) {
  ASSERT_EQ(a.chunk_index(), b.chunk_index());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.ColumnIds(), b.ColumnIds());
  for (size_t col : a.ColumnIds()) {
    const ColumnVector& va = a.column(col);
    const ColumnVector& vb = b.column(col);
    ASSERT_EQ(va.type(), vb.type());
    ASSERT_EQ(va.size(), vb.size());
    for (size_t r = 0; r < va.size(); ++r) {
      if (va.type() == FieldType::kString) {
        EXPECT_EQ(va.StringAt(r), vb.StringAt(r));
      } else if (va.type() == FieldType::kDouble) {
        EXPECT_DOUBLE_EQ(va.AsDouble()[r], vb.AsDouble()[r]);
      } else {
        EXPECT_EQ(va.NumericAt(r), vb.NumericAt(r));
      }
    }
  }
}

TEST(ChunkSerdeTest, RoundTripMixedTypes) {
  BinaryChunk chunk = MakeMixedChunk(11, 100);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectChunksEqual(chunk, *back);
}

TEST(ChunkSerdeTest, RoundTripEmptyChunk) {
  BinaryChunk chunk(0);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 0u);
}

TEST(ChunkSerdeTest, DetectsBitFlip) {
  BinaryChunk chunk = MakeMixedChunk(1, 50);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  blob[blob.size() / 2] ^= 0x01;
  auto back = DeserializeChunk(blob);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(ChunkSerdeTest, DetectsTruncation) {
  BinaryChunk chunk = MakeMixedChunk(1, 50);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  auto back = DeserializeChunk(std::string_view(blob).substr(0, blob.size() / 2));
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(ChunkSerdeTest, DetectsBadMagic) {
  auto back = DeserializeChunk("this is not a chunk blob at all");
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(ChunkSerdeTest, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1aHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1aHash("a"), 0xaf63dc4c8601ec8cull);
}

// Page header: magic (u32), body size (u64), body checksum (u64 slot).
constexpr size_t kPageHeaderBytes = 4 + 8 + 8;

TEST(ChunkSerdeTest, PageChecksumIsCrc32cOfBody) {
  BinaryChunk chunk = MakeMixedChunk(2, 20);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  uint64_t body_size = 0, checksum = 0;
  std::memcpy(&body_size, blob.data() + 4, sizeof(body_size));
  std::memcpy(&checksum, blob.data() + 12, sizeof(checksum));
  ASSERT_EQ(body_size, blob.size() - kPageHeaderBytes);
  EXPECT_EQ(checksum,
            Crc32cPortable(std::string_view(blob).substr(kPageHeaderBytes)));
}

TEST(ChunkSerdeTest, DetectsEverySingleByteChangeInBody) {
  BinaryChunk chunk = MakeMixedChunk(3, 4);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  ASSERT_TRUE(DeserializeChunk(blob).ok());
  size_t checked = 0;
  for (size_t at = kPageHeaderBytes; at < blob.size(); ++at) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string bad = blob;
      bad[at] = static_cast<char>(bad[at] ^ mask);
      ASSERT_TRUE(DeserializeChunk(bad).status().IsCorruption())
          << "byte " << at << " xor " << mask;
      ++checked;
    }
  }
  EXPECT_GT(checked, 255u * 100);
}

// A page of the older format: the same body, the old magic, and the
// body's FNV-1a in the checksum slot.
TEST(ChunkSerdeTest, OlderFnvPageFormatIsCorruption) {
  BinaryChunk chunk = MakeMixedChunk(4, 30);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  const uint32_t old_magic = 0x53435243;
  const uint64_t fnv =
      Fnv1aHash(std::string_view(blob).substr(kPageHeaderBytes));
  std::memcpy(blob.data(), &old_magic, sizeof(old_magic));
  std::memcpy(blob.data() + 12, &fnv, sizeof(fnv));
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.status().IsCorruption());
  EXPECT_NE(back.status().message().find("page format"), std::string::npos)
      << back.status().ToString();
}

// One-pass encoding of a column list is byte-identical to copying those
// columns into a chunk of their own and serializing that, for lists in any
// order and with duplicates, compressed or not.
TEST(ChunkSerdeTest, ColumnSubsetMatchesSubsetThenSerialize) {
  const BinaryChunk chunk = MakeMixedChunk(6, 64);
  const std::vector<std::vector<size_t>> lists = {
      {}, {0}, {9, 0}, {5, 1, 9, 0}, {1, 1, 5, 1}, {9, 5, 9, 0, 1}};
  for (bool compress : {false, true}) {
    for (const std::vector<size_t>& columns : lists) {
      BinaryChunk subset(chunk.chunk_index());
      subset.set_num_rows(chunk.num_rows());
      for (size_t col : columns) {
        ASSERT_TRUE(subset.AddColumn(col, chunk.column(col)).ok());
      }
      std::string expected, actual = "prefix";
      ASSERT_TRUE(SerializeChunk(subset, &expected, compress).ok());
      ASSERT_TRUE(
          SerializeChunkColumns(chunk, columns, &actual, compress).ok());
      EXPECT_EQ(actual, "prefix" + expected)
          << columns.size() << " columns, compress " << compress;
    }
  }
}

TEST(ChunkSerdeTest, ColumnSubsetRejectsMissingOrMislengthColumn) {
  BinaryChunk chunk = MakeMixedChunk(7, 10);
  std::string out;
  EXPECT_TRUE(
      SerializeChunkColumns(chunk, {0, 3}, &out).IsInvalidArgument());
  // A row count that disagrees with the columns, as AddColumn rejects it.
  chunk.set_num_rows(11);
  EXPECT_TRUE(SerializeChunkColumns(chunk, {1}, &out).IsInvalidArgument());
  BinaryChunk subset(chunk.chunk_index());
  subset.set_num_rows(chunk.num_rows());
  EXPECT_TRUE(subset.AddColumn(1, chunk.column(1)).IsInvalidArgument());
  EXPECT_TRUE(out.empty());
}

// Property sweep: serialization round-trips across sizes.
class SerdeSweepTest : public testing::TestWithParam<size_t> {};

TEST_P(SerdeSweepTest, RoundTrip) {
  BinaryChunk chunk = MakeMixedChunk(GetParam(), GetParam());
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob).ok());
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.ok());
  ExpectChunksEqual(chunk, *back);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerdeSweepTest,
                         testing::Values(0, 1, 2, 17, 128, 1000));

TEST(ChunkSerdeTest, CompressedRoundTrip) {
  BinaryChunk chunk = MakeMixedChunk(11, 200);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob, /*compress=*/true).ok());
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectChunksEqual(chunk, *back);
}

TEST(ChunkSerdeTest, CompressionShrinksClusteredData) {
  // Sorted (clustered) integers delta-compress far below 4 bytes/value.
  BinaryChunk chunk(0);
  ColumnVector vec(FieldType::kUint32);
  for (uint32_t i = 0; i < 10000; ++i) vec.AppendUint32(1000000 + i * 3);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(vec)).ok());
  std::string raw_blob, packed_blob;
  ASSERT_TRUE(SerializeChunk(chunk, &raw_blob, false).ok());
  ASSERT_TRUE(SerializeChunk(chunk, &packed_blob, true).ok());
  EXPECT_LT(packed_blob.size() * 3, raw_blob.size());
  auto back = DeserializeChunk(packed_blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->column(0).AsUint32()[9999], 1000000u + 9999 * 3);
}

TEST(ChunkSerdeTest, CompressedInt64WithNegatives) {
  BinaryChunk chunk(0);
  ColumnVector vec(FieldType::kInt64);
  vec.AppendInt64(INT64_MIN);
  vec.AppendInt64(-1);
  vec.AppendInt64(0);
  vec.AppendInt64(INT64_MAX);
  ASSERT_TRUE(chunk.AddColumn(0, std::move(vec)).ok());
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob, true).ok());
  auto back = DeserializeChunk(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->column(0).AsInt64()[0], INT64_MIN);
  EXPECT_EQ(back->column(0).AsInt64()[3], INT64_MAX);
}

TEST(ChunkSerdeTest, CompressedCorruptionDetected) {
  BinaryChunk chunk = MakeMixedChunk(1, 100);
  std::string blob;
  ASSERT_TRUE(SerializeChunk(chunk, &blob, true).ok());
  blob[blob.size() - 3] ^= 0x10;
  EXPECT_TRUE(DeserializeChunk(blob).status().IsCorruption());
}

TEST(ChunkSortTest, GatherReordersAllTypes) {
  ColumnVector u(FieldType::kUint32);
  u.AppendUint32(10);
  u.AppendUint32(20);
  u.AppendUint32(30);
  auto gathered = GatherColumn(u, {2, 0, 1});
  EXPECT_EQ(gathered.AsUint32()[0], 30u);
  EXPECT_EQ(gathered.AsUint32()[1], 10u);
  EXPECT_EQ(gathered.AsUint32()[2], 20u);

  ColumnVector s(FieldType::kString);
  s.AppendString("a");
  s.AppendString("bb");
  s.AppendString("ccc");
  auto gs = GatherColumn(s, {1, 2, 0});
  EXPECT_EQ(gs.StringAt(0), "bb");
  EXPECT_EQ(gs.StringAt(2), "a");

  ColumnVector d(FieldType::kDouble);
  d.AppendDouble(1.5);
  d.AppendDouble(-2.5);
  auto gd = GatherColumn(d, {1, 0});
  EXPECT_DOUBLE_EQ(gd.AsDouble()[0], -2.5);
}

TEST(ChunkSortTest, SortsRowsTogether) {
  BinaryChunk chunk(3);
  ColumnVector key(FieldType::kUint32), payload(FieldType::kString);
  const std::vector<uint32_t> keys = {30, 10, 20};
  const std::vector<std::string> names = {"c", "a", "b"};
  for (size_t i = 0; i < 3; ++i) {
    key.AppendUint32(keys[i]);
    payload.AppendString(names[i]);
  }
  ASSERT_TRUE(chunk.AddColumn(0, std::move(key)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(payload)).ok());
  auto sorted = SortChunkByColumn(chunk, 0);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(sorted->chunk_index(), 3u);
  auto k = sorted->column(0).AsUint32();
  EXPECT_TRUE(std::is_sorted(k.begin(), k.end()));
  // Rows stay aligned: key 10 carries "a".
  EXPECT_EQ(sorted->column(1).StringAt(0), "a");
  EXPECT_EQ(sorted->column(1).StringAt(2), "c");
}

TEST(ChunkSortTest, StringKeyAndStability) {
  BinaryChunk chunk(0);
  ColumnVector key(FieldType::kString), order(FieldType::kUint32);
  const std::vector<std::string> keys = {"b", "a", "b", "a"};
  for (size_t i = 0; i < 4; ++i) {
    key.AppendString(keys[i]);
    order.AppendUint32(static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(chunk.AddColumn(0, std::move(key)).ok());
  ASSERT_TRUE(chunk.AddColumn(1, std::move(order)).ok());
  auto sorted = SortChunkByColumn(chunk, 0);
  ASSERT_TRUE(sorted.ok());
  // Stable: equal keys keep their original relative order.
  EXPECT_EQ(sorted->column(1).AsUint32()[0], 1u);  // first "a"
  EXPECT_EQ(sorted->column(1).AsUint32()[1], 3u);  // second "a"
  EXPECT_EQ(sorted->column(1).AsUint32()[2], 0u);  // first "b"
}

TEST(ChunkSortTest, MissingColumnRejected) {
  BinaryChunk chunk(0);
  EXPECT_TRUE(SortChunkByColumn(chunk, 5).status().IsInvalidArgument());
}

TEST(ChunkSortTest, KeyShorterThanChunkRejected) {
  BinaryChunk chunk(0);
  ASSERT_TRUE(chunk.AddColumn(0, ColumnVector(FieldType::kUint32)).ok());
  chunk.set_num_rows(3);  // the key column holds 0 of the 3 rows
  EXPECT_TRUE(SortPermutation(chunk, 0).status().IsInvalidArgument());
  EXPECT_TRUE(SortChunkByColumn(chunk, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace scanraw
