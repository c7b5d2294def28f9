// Tests for the structural pass (format/structural_index), which finds the
// records of a raw chunk READ handed over as bare bytes and tokenizes them
// in one scan: the re-read chunk's records, the catalog row-count check
// (unit and end to end, for every raw format whose records TOKENIZE finds),
// and a seeded differential and mutation fuzzer against the frozen
// reference tier, FindLineStarts + TokenizeChunk, on every mask kernel the
// host can run.

#include "format/structural_index.h"

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "format/schema.h"
#include "io/file.h"
#include "pipeline/thread_pool.h"
#include "scanraw/raw_reader.h"
#include "scanraw/scanraw_manager.h"

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

TokenizeOptions Fields(size_t schema_fields, size_t max_fields = 0) {
  TokenizeOptions options;
  options.schema_fields = schema_fields;
  options.max_fields = max_fields;
  return options;
}

// READ hands over a known chunk's bytes alone; the pass finds its records.
TEST(StructuralIndexTest, FindsRecordsOfReReadChunk) {
  const std::string path = TempPath("reread.txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(6)).ok());

  // Discover the layout first.
  auto chunker = SequentialChunker::Open(path, 3);
  ASSERT_TRUE(chunker.ok());
  std::vector<ChunkMetadata> layout;
  while (true) {
    auto chunk = (*chunker)->Next();
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    ChunkMetadata meta;
    meta.chunk_index = (*chunk)->chunk_index;
    meta.raw_offset = (*chunk)->file_offset;
    meta.raw_size = (*chunk)->data.size();
    meta.num_rows = (*chunk)->num_rows();
    layout.push_back(meta);
  }
  ASSERT_EQ(layout.size(), 2u);

  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  auto second = ReadChunkAt(**file, layout[1]);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->num_rows(), 0u);  // READ only reads
  auto map = IndexUnquotedChunk(&*second, Fields(1), {}, nullptr,
                                layout[1].num_rows);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(second->chunk_index, 1u);
  EXPECT_EQ(second->num_rows(), 3u);
  EXPECT_EQ(second->line(0), "line3");
  EXPECT_EQ(map->num_rows(), 3u);
}

// The catalog's row count is checked where the records are found, before
// any row is tokenized: these rows also lack a field.
TEST(StructuralIndexTest, RowMismatchIsCorruption) {
  const std::string path = TempPath("mismatch.txt");
  ASSERT_TRUE(WriteStringToFile(path, MakeLines(4)).ok());
  auto file = RandomAccessFile::Open(path);
  ASSERT_TRUE(file.ok());
  ChunkMetadata meta;
  meta.chunk_index = 0;
  meta.raw_offset = 0;
  meta.raw_size = 12;  // "line0\nline1\n"
  meta.num_rows = 5;   // wrong on purpose
  auto chunk = ReadChunkAt(**file, meta);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  auto map = IndexUnquotedChunk(&*chunk, Fields(2), {}, nullptr,
                                meta.num_rows);
  ASSERT_TRUE(map.status().IsCorruption());
  EXPECT_EQ(map.status().message(), "chunk 0: expected 5 rows, found 2");
}

// A re-scan of a raw file rewritten to the same size with one record fewer
// fails with the catalog mismatch in each raw format: unquoted and quoted
// delimited text, and JSON lines.
TEST(StructuralIndexTest, ReScanOfRewrittenFileReportsRowMismatch) {
  struct Case {
    const char* name;
    bool quoted;
    bool json;
    std::string before;
    std::string after;
  };
  const Case cases[] = {
      {"unquoted", false, false, "1,2\n3,4\n", "1,2,3,4\n"},
      {"quoted", true, false, "1,\"2\"\n3,\"4\"\n", "1,\"2\",3,\"4\"\n"},
      {"json", false, true, "{\"C0\":1,\"C1\":2}\n{\"C0\":3,\"C1\":4}\n",
       "{\"C0\":1,\"C1\":2} {\"C0\":3,\"C1\":4}\n"},
  };
  // Without the positional-map cache the re-scan tokenizes again. With it,
  // the second query hits the first one's map (same column) or extends it
  // (a column the map lacks); neither may skip the record count.
  enum class MapCache { kOff, kHit, kExtend };
  for (const Case& c : cases) {
    for (const MapCache mode :
         {MapCache::kOff, MapCache::kHit, MapCache::kExtend}) {
      SCOPED_TRACE(testing::Message() << c.name << ", map cache mode "
                                      << static_cast<int>(mode));
      ASSERT_EQ(c.before.size(), c.after.size());
      const std::string path = TempPath(std::string("drift_") + c.name +
                                        std::to_string(static_cast<int>(mode)));
      ASSERT_TRUE(WriteStringToFile(path, c.before).ok());
      ScanRawManager::Config config;
      config.db_path = path + ".db";
      auto manager = ScanRawManager::Create(config);
      ASSERT_TRUE(manager.ok());
      ScanRawOptions options;
      options.policy = LoadPolicy::kExternalTables;
      options.cache_capacity_chunks = 0;  // the second query re-reads raw
      options.cache_positional_maps = mode != MapCache::kOff;
      options.quoted_fields = c.quoted;
      if (c.json) options.raw_format = RawFormat::kJsonLines;
      ASSERT_TRUE(
          (*manager)
              ->RegisterRawFile("t", path, Schema::AllUint32(2), options)
              .ok());
      QuerySpec q;
      q.sum_columns = {0};
      auto first = (*manager)->Query("t", q);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      EXPECT_EQ(first->total_sum, 4u);

      ASSERT_TRUE(WriteStringToFile(path, c.after).ok());
      if (mode == MapCache::kExtend) q.sum_columns = {1};
      auto second = (*manager)->Query("t", q);
      ASSERT_FALSE(second.ok());
      EXPECT_TRUE(second.status().IsCorruption());
      EXPECT_EQ(second.status().message(), "chunk 0: expected 2 rows, found 1");
    }
  }
}

// ------------------------------------------------ differential fuzzer ---

// One unquoted chunk of about `target_bytes`: rows of `fields` fields, a few
// with too few or too many, '\n' or "\r\n" endings, empty lines, and a last
// line with or without its newline.
std::string GenerateChunk(Random* rng, char delim, size_t fields,
                          size_t target_bytes) {
  static constexpr char kAlphabet[] = "0123456789abcxyz ._-\"\r";
  std::string out;
  const bool crlf = rng->OneIn(3);
  while (out.size() < target_bytes) {
    if (!rng->OneIn(20)) {  // else an empty line
      size_t n = fields;
      if (rng->OneIn(40)) n = rng->Uniform(fields + 1);
      if (rng->OneIn(40)) n = fields + 1 + rng->Uniform(3);
      for (size_t f = 0; f < n; ++f) {
        if (f > 0) out.push_back(delim);
        const size_t len = rng->Uniform(12);
        for (size_t i = 0; i < len; ++i) {
          // '\r' only rarely: mid-field it is field text, at a line's end
          // LineEnd trims it.
          const size_t pick = rng->Uniform(sizeof(kAlphabet) - 1);
          const char c = kAlphabet[pick];
          out.push_back(c == '\r' && !rng->OneIn(8) ? '0' : c);
        }
      }
    }
    out += crlf || rng->OneIn(50) ? "\r\n" : "\n";
  }
  if (!out.empty() && rng->OneIn(2)) out.pop_back();
  return out;
}

// Byte mutations: overwrite with a structural byte or any byte, insert,
// erase.
void Mutate(Random* rng, char delim, std::string* data) {
  const size_t edits = 1 + rng->Uniform(4);
  for (size_t e = 0; e < edits; ++e) {
    const char picks[] = {delim, '\n', '\r',
                          static_cast<char>(rng->Uniform(256))};
    const char byte = picks[rng->Uniform(4)];
    const size_t at = data->empty() ? 0 : rng->Uniform(data->size());
    switch (data->empty() ? 1 : rng->Uniform(3)) {
      case 0:
        (*data)[at] = byte;
        break;
      case 1:
        data->insert(data->begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        data->erase(at, 1);
        break;
    }
  }
}

// Runs one input through the pass and the reference; equal line starts and
// map bytes, or the same first error.
void ExpectMatchesReference(const std::string& data,
                            const TokenizeOptions& options,
                            const ParallelTokenizeOptions& parallel,
                            std::optional<uint64_t> expected_rows,
                            Random* rng, const std::string& context) {
  const uint64_t index = rng->Uniform(100);
  const TextChunk reference = MakeTextChunk(data, index);
  Result<PositionalMap> want =
      expected_rows.has_value() && *expected_rows != reference.num_rows()
          ? Result<PositionalMap>(RowCountMismatch(index, *expected_rows,
                                                   reference.num_rows()))
          : TokenizeChunk(reference, options);

  // Recycled buffers arrive holding stale values of any length.
  TextChunk chunk;
  chunk.chunk_index = index;
  chunk.data = data;
  chunk.line_starts.assign(rng->Uniform(64), 0xDEADBEEFu);
  std::vector<uint32_t> slots(rng->Uniform(4096), 0xDEADBEEFu);
  SpeculationStats stats;
  auto got = IndexUnquotedChunk(&chunk, options, parallel, &stats,
                                expected_rows, std::move(slots));
  if (want.ok()) {
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    ASSERT_EQ(chunk.line_starts, reference.line_starts) << context;
    ASSERT_EQ(got->fields_per_row(), want->fields_per_row()) << context;
    ASSERT_FALSE(got->explicit_ends()) << context;
    ASSERT_EQ(got->raw_offsets(), want->raw_offsets()) << context;
    EXPECT_GE(stats.ranges, 1u) << context;
  } else {
    ASSERT_FALSE(got.ok()) << context << ": want " << want.status().ToString();
    ASSERT_EQ(got.status().code(), want.status().code()) << context;
    ASSERT_EQ(got.status().message(), want.status().message()) << context;
  }
}

class StructuralKernelTest : public testing::TestWithParam<StructuralKernel> {
 protected:
  void SetUp() override {
    if (GetParam() > BestStructuralKernel()) {
      GTEST_SKIP() << "mask kernel not supported on this host";
    }
    UseStructuralKernel(GetParam());
  }
  void TearDown() override { UseStructuralKernel(BestStructuralKernel()); }
};

TEST_P(StructuralKernelTest, FuzzedChunksMatchReference) {
  static ThreadPool pool(3);
  constexpr char kDelims[] = {',', '|', '\t', ';', ' ', '\0', '\n', '\r'};
  Random rng(2026 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 3000; ++iter) {
    const char delim = rng.OneIn(10) ? kDelims[5 + rng.Uniform(3)]
                                     : kDelims[rng.Uniform(5)];
    const size_t fields = 1 + rng.Uniform(8);
    // Mostly small chunks, so range boundaries land on every kind of byte.
    const size_t bytes = rng.OneIn(50)   ? 8192 + rng.Uniform(120000)
                         : rng.OneIn(5)  ? 256 + rng.Uniform(8192)
                                         : rng.Uniform(256);
    std::string data = GenerateChunk(&rng, delim, fields, bytes);
    if (rng.OneIn(2)) Mutate(&rng, delim, &data);

    TokenizeOptions options = Fields(fields, rng.Uniform(fields + 2));
    options.delimiter = delim;
    ParallelTokenizeOptions parallel;
    parallel.pool = rng.OneIn(4) ? nullptr : &pool;
    parallel.num_ranges = rng.Uniform(17);
    const size_t min_range[] = {1, 1, 7, 65536};
    parallel.min_range_bytes = min_range[rng.Uniform(4)];
    std::optional<uint64_t> expected_rows;
    if (rng.OneIn(2)) {
      const uint64_t rows = MakeTextChunk(data).num_rows();
      expected_rows = rng.OneIn(5) ? rows + 1 : rows;
      if (rows > 0 && rng.OneIn(5)) expected_rows = rows - 1;
    }
    const std::string context =
        "iter " + std::to_string(iter) + " bytes " +
        std::to_string(data.size()) + " delim " +
        std::to_string(static_cast<int>(delim)) + " fields " +
        std::to_string(fields) + " max " +
        std::to_string(options.max_fields) + " ranges " +
        std::to_string(parallel.num_ranges) + " min " +
        std::to_string(parallel.min_range_bytes);
    ExpectMatchesReference(data, options, parallel, expected_rows, &rng,
                           context);
    if (HasFatalFailure()) return;
  }
}

// Every byte as a range boundary: one small chunk split into every range
// count up to one byte per range.
TEST_P(StructuralKernelTest, EveryRangeBoundaryMatchesReference) {
  static ThreadPool pool(3);
  Random rng(7 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 20; ++iter) {
    std::string data = GenerateChunk(&rng, ',', 3, 150);
    if (iter % 2 == 1) Mutate(&rng, ',', &data);
    for (size_t ranges = 1; ranges <= data.size() + 1; ++ranges) {
      ParallelTokenizeOptions parallel;
      parallel.pool = &pool;
      parallel.num_ranges = ranges;
      parallel.min_range_bytes = 1;
      ExpectMatchesReference(data, Fields(3, iter % 4), parallel, std::nullopt,
                             &rng,
                             "iter " + std::to_string(iter) + " ranges " +
                                 std::to_string(ranges));
      if (HasFatalFailure()) return;
    }
  }
}

// Chunks up to 1 MB: many 64-byte batches per range, and a final block that
// runs past the buffer.
TEST_P(StructuralKernelTest, LargeChunksMatchReference) {
  static ThreadPool pool(3);
  Random rng(99 + static_cast<uint64_t>(GetParam()));
  for (const size_t bytes : {size_t{1} << 16, size_t{300001}, size_t{1} << 20}) {
    std::string data = GenerateChunk(&rng, ',', 16, bytes);
    ParallelTokenizeOptions parallel;
    parallel.pool = &pool;
    ExpectMatchesReference(data, Fields(16), parallel, std::nullopt, &rng,
                           "bytes " + std::to_string(bytes));
    if (HasFatalFailure()) return;
    Mutate(&rng, ',', &data);
    parallel.min_range_bytes = 1;
    parallel.num_ranges = 13;
    ExpectMatchesReference(data, Fields(16, 5), parallel, std::nullopt, &rng,
                           "mutated bytes " + std::to_string(bytes));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, StructuralKernelTest,
    testing::Values(StructuralKernel::kPortable, StructuralKernel::kAvx2),
    [](const testing::TestParamInfo<StructuralKernel>& info) {
      switch (info.param) {
        case StructuralKernel::kPortable:
          return "portable";
        case StructuralKernel::kAvx2:
          return "avx2";
      }
      return "unknown";
    });

}  // namespace
}  // namespace scanraw
