#include <gtest/gtest.h>

#include "io/file.h"
#include "scanraw/raw_reader.h"

namespace scanraw {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string MakeLines(int n, int start = 0) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "line" + std::to_string(start + i) + "\n";
  }
  return out;
}

TEST(SequentialChunkerTest, SplitsIntoChunks) {
  const std::string path = TempPath("chunker1.txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(10)).ok());
  auto chunker = SequentialChunker::Open(path, 4);
  ASSERT_TRUE(chunker.ok());
  std::vector<size_t> rows;
  std::vector<uint64_t> offsets;
  uint64_t expected_index = 0;
  while (true) {
    auto chunk = (*chunker)->Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    EXPECT_EQ((*chunk)->chunk_index, expected_index++);
    rows.push_back((*chunk)->num_rows());
    offsets.push_back((*chunk)->file_offset);
  }
  EXPECT_EQ(rows, (std::vector<size_t>{4, 4, 2}));
  EXPECT_EQ(offsets[0], 0u);
  // Offsets are contiguous.
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ((*chunker)->chunks_produced(), 3u);
}

TEST(SequentialChunkerTest, ExactMultiple) {
  const std::string path = TempPath("chunker2.txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(8)).ok());
  auto chunker = SequentialChunker::Open(path, 4);
  ASSERT_TRUE(chunker.ok());
  int chunks = 0;
  while (true) {
    auto chunk = (*chunker)->Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    EXPECT_EQ((*chunk)->num_rows(), 4u);
    ++chunks;
  }
  EXPECT_EQ(chunks, 2);
}

TEST(SequentialChunkerTest, NoTrailingNewline) {
  const std::string path = TempPath("chunker3.txt");
  ASSERT_TRUE(WriteStringToFile(path, "a\nb\nc").ok());
  auto chunker = SequentialChunker::Open(path, 2);
  ASSERT_TRUE(chunker.ok());
  auto c1 = (*chunker)->Next();
  ASSERT_TRUE(c1.ok() && c1->has_value());
  EXPECT_EQ((*c1)->num_rows(), 2u);
  auto c2 = (*chunker)->Next();
  ASSERT_TRUE(c2.ok() && c2->has_value());
  EXPECT_EQ((*c2)->num_rows(), 1u);
  EXPECT_EQ((*c2)->line(0), "c");
  auto end = (*chunker)->Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(SequentialChunkerTest, EmptyFile) {
  const std::string path = TempPath("chunker4.txt");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto chunker = SequentialChunker::Open(path, 4);
  ASSERT_TRUE(chunker.ok());
  auto chunk = (*chunker)->Next();
  ASSERT_TRUE(chunk.ok());
  EXPECT_FALSE(chunk->has_value());
}

TEST(SequentialChunkerTest, ZeroChunkRowsRejected) {
  const std::string path = TempPath("chunker5.txt");
  ASSERT_TRUE(WriteStringToFile(path, "x\n").ok());
  EXPECT_TRUE(
      SequentialChunker::Open(path, 0).status().IsInvalidArgument());
}

TEST(SequentialChunkerTest, MissingFile) {
  EXPECT_TRUE(
      SequentialChunker::Open(TempPath("nope"), 4).status().IsIoError());
}

TEST(SequentialChunkerTest, LinesLongerThanReadBlock) {
  // Lines of ~2 MB exceed the 1 MB internal read block.
  const std::string path = TempPath("chunker6.txt");
  std::string data;
  for (int i = 0; i < 3; ++i) {
    data += std::string(2 << 20, static_cast<char>('a' + i));
    data += "\n";
  }
  ASSERT_TRUE(WriteStringToFile(path, data).ok());
  auto chunker = SequentialChunker::Open(path, 2);
  ASSERT_TRUE(chunker.ok());
  auto c1 = (*chunker)->Next();
  ASSERT_TRUE(c1.ok() && c1->has_value());
  EXPECT_EQ((*c1)->num_rows(), 2u);
  EXPECT_EQ((*c1)->line(0).size(), static_cast<size_t>(2 << 20));
  auto c2 = (*chunker)->Next();
  ASSERT_TRUE(c2.ok() && c2->has_value());
  EXPECT_EQ((*c2)->num_rows(), 1u);
}

// READ of a known chunk is a bare read: its records are found by TOKENIZE's
// structural pass (tests/structural_index_test.cc).
TEST(ReadChunkAtTest, ReadsRecordedExtentOnly) {
  const std::string path = TempPath("extent.txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(6)).ok());
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  ChunkMetadata meta;
  meta.chunk_index = 1;
  meta.raw_offset = 18;  // "line3\nline4\nline5\n"
  meta.raw_size = 18;
  meta.num_rows = 3;
  auto chunk = ReadChunkAt(**file, meta);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->chunk_index, 1u);
  EXPECT_EQ(chunk->file_offset, 18u);
  EXPECT_EQ(chunk->data, "line3\nline4\nline5\n");
  EXPECT_EQ(chunk->num_rows(), 0u);
}

TEST(ReadChunkAtTest, TruncatedFileIsCorruption) {
  const std::string path = TempPath("trunc.txt");
  ASSERT_TRUE(WriteStringToFile(path, "ab\n").ok());
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  ChunkMetadata meta;
  meta.chunk_index = 0;
  meta.raw_offset = 0;
  meta.raw_size = 100;  // beyond EOF
  meta.num_rows = 1;
  EXPECT_TRUE(ReadChunkAt(**file, meta).status().IsCorruption());
}

// Chunk extents recorded during discovery tile the file exactly.
class ChunkerTilingTest : public testing::TestWithParam<int> {};

TEST_P(ChunkerTilingTest, ExtentsTileFile) {
  const int lines = GetParam();
  const std::string path = TempPath("tiling" + std::to_string(lines) + ".txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(lines)).ok());
  auto chunker = SequentialChunker::Open(path, 7);
  ASSERT_TRUE(chunker.ok());
  uint64_t expected_offset = 0;
  size_t total_rows = 0;
  while (true) {
    auto chunk = (*chunker)->Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    EXPECT_EQ((*chunk)->file_offset, expected_offset);
    expected_offset += (*chunk)->data.size();
    total_rows += (*chunk)->num_rows();
  }
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(expected_offset, *size);
  EXPECT_EQ(total_rows, static_cast<size_t>(lines));
}

INSTANTIATE_TEST_SUITE_P(LineCounts, ChunkerTilingTest,
                         testing::Values(1, 6, 7, 8, 13, 14, 100));

}  // namespace
}  // namespace scanraw
