// Equivalence tests for the hot path's three tiers: the scalar reference
// (bench/reference_scalar.h, frozen), the sequential SIMD tokenizer, and the
// speculative parallel tokenizer (format/parallel_chunker) must produce
// byte-identical PositionalMaps — and the column-at-a-time parser identical
// BinaryChunks — over randomized schemas, delimiters, and edge-case
// layouts: CRLF line endings, empty fields, unterminated last lines,
// projections, selective tokenizing, push-down filters (including filters
// that drop every row), and RFC-4180 quoted fields with range boundaries
// forced into adversarial spots.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench/reference_scalar.h"
#include "common/random.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/schema.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"
#include "pipeline/thread_pool.h"
#include "scanraw/chunk_buffer_pool.h"

namespace scanraw {
namespace {

void ExpectMapsEqual(const PositionalMap& got, const PositionalMap& want,
                     const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  ASSERT_EQ(got.fields_per_row(), want.fields_per_row()) << context;
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t f = 0; f < want.fields_per_row(); ++f) {
      ASSERT_EQ(got.FieldStart(r, f), want.FieldStart(r, f))
          << context << " row " << r << " field " << f;
      ASSERT_EQ(got.FieldEnd(r, f), want.FieldEnd(r, f))
          << context << " row " << r << " field " << f;
    }
  }
}

void ExpectChunksEqual(const BinaryChunk& got, const BinaryChunk& want,
                       const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  ASSERT_EQ(got.ColumnIds(), want.ColumnIds()) << context;
  for (size_t id : want.ColumnIds()) {
    const ColumnVector& g = got.column(id);
    const ColumnVector& w = want.column(id);
    ASSERT_EQ(g.type(), w.type()) << context << " col " << id;
    ASSERT_EQ(g.size(), w.size()) << context << " col " << id;
    // Byte-identical backing arrays, not just equal logical values.
    ASSERT_EQ(g.fixed_data(), w.fixed_data()) << context << " col " << id;
    ASSERT_EQ(g.string_arena(), w.string_arena()) << context << " col " << id;
    ASSERT_EQ(g.string_offsets(), w.string_offsets())
        << context << " col " << id;
  }
}

FieldType RandomType(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0: return FieldType::kUint32;
    case 1: return FieldType::kInt64;
    case 2: return FieldType::kDouble;
    default: return FieldType::kString;
  }
}

std::string RandomFieldText(Random* rng, FieldType type, char delimiter) {
  switch (type) {
    case FieldType::kUint32:
      return std::to_string(rng->NextUint32());
    case FieldType::kInt64: {
      const int64_t v = static_cast<int64_t>(rng->NextUint64());
      std::string s = std::to_string(v);
      if (v >= 0 && rng->OneIn(4)) s.insert(0, "+");
      return s;
    }
    case FieldType::kDouble:
      switch (rng->Uniform(4)) {
        case 0:
          return std::to_string(rng->NextDouble() * 1e6 - 5e5);
        case 1:
          return std::to_string(rng->NextUint32()) + "e" +
                 std::to_string(rng->Uniform(30));
        case 2:
          return "-" + std::to_string(rng->NextDouble());
        default:
          return std::to_string(rng->Uniform(1000));
      }
    case FieldType::kString: {
      const size_t len = rng->Uniform(12);  // often empty
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(' ' + rng->Uniform(94));
        if (c == delimiter || c == '\n' || c == '\r') c = '_';
        s.push_back(c);
      }
      return s;
    }
  }
  return "";
}

struct RandomCsv {
  Schema schema;
  TextChunk chunk;
  size_t rows = 0;
};

RandomCsv MakeRandomCsv(Random* rng, uint64_t chunk_index) {
  static const char kDelims[] = {',', ';', '\t', '|'};
  const char delim = kDelims[rng->Uniform(4)];
  const size_t columns = 1 + rng->Uniform(12);
  const size_t rows = rng->Uniform(120);  // sometimes zero
  const bool crlf = rng->OneIn(3);
  const bool unterminated = rows > 0 && rng->OneIn(3);

  std::vector<ColumnDef> defs(columns);
  for (size_t c = 0; c < columns; ++c) {
    defs[c].name = "c" + std::to_string(c);
    defs[c].type = RandomType(rng);
  }
  RandomCsv out;
  out.schema = Schema(defs, delim);
  out.rows = rows;

  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) data.push_back(delim);
      data += RandomFieldText(rng, defs[c].type, delim);
    }
    if (r + 1 == rows && unterminated) break;
    data += crlf ? "\r\n" : "\n";
  }
  out.chunk = MakeTextChunk(std::move(data), chunk_index);
  return out;
}

TokenizeOptions TokOpts(const Schema& schema, size_t max_fields = 0) {
  TokenizeOptions opts;
  opts.delimiter = schema.delimiter();
  opts.schema_fields = schema.num_columns();
  opts.max_fields = max_fields;
  return opts;
}

TEST(HotpathEquivalenceTest, RandomizedTokenizeAndParse) {
  Random rng(20240817);
  ThreadPool pool(3);
  for (int iter = 0; iter < 60; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);

    auto ref_map = reference::RefTokenizeChunk(csv.chunk, topts);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << context << ": " << ref_map.status().ToString();
    ASSERT_TRUE(map.ok()) << context << ": " << map.status().ToString();
    ExpectMapsEqual(*map, *ref_map, context);

    // Third tier: the speculative parallel tokenizer, with range boundaries
    // forced even on tiny chunks, must match the frozen reference too.
    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.num_ranges = 1 + rng.Uniform(6);
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto par_map = ParallelTokenizeChunk(csv.chunk, topts, ptopts, &stats);
    ASSERT_TRUE(par_map.ok()) << context << ": "
                              << par_map.status().ToString();
    ExpectMapsEqual(*par_map, *ref_map, context + " (parallel)");

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *ref_map, csv.schema, {});
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, {});
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RandomizedProjectionsAndSelectiveTokenize) {
  Random rng(99);
  for (int iter = 0; iter < 40; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const size_t columns = csv.schema.num_columns();

    // Project a random prefix-closed subset and tokenize only up to the
    // last projected field (selective tokenizing).
    ParseOptions popts;
    const size_t keep = 1 + rng.Uniform(columns);
    for (size_t c = 0; c < keep; ++c) {
      if (rng.OneIn(2) || c + 1 == keep) popts.projected_columns.push_back(c);
    }
    const size_t max_fields = popts.projected_columns.back() + 1;
    const TokenizeOptions topts = TokOpts(csv.schema, max_fields);

    auto ref_map = reference::RefTokenizeChunk(csv.chunk, topts);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << context << ": " << ref_map.status().ToString();
    ASSERT_TRUE(map.ok()) << context << ": " << map.status().ToString();
    ExpectMapsEqual(*map, *ref_map, context);

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *ref_map, csv.schema, popts);
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, popts);
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RandomizedPushdownFilters) {
  Random rng(4242);
  int exercised = 0;
  int filtered_all = 0;
  for (int iter = 0; iter < 80; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    // Find an integer column for the predicate. Doubles are excluded: the
    // generator produces values far outside int64 range, and the
    // double→int64 predicate cast would overflow (UB) in both paths.
    size_t pc = csv.schema.num_columns();
    for (size_t c = 0; c < csv.schema.num_columns(); ++c) {
      const FieldType t = csv.schema.column(c).type;
      if (t == FieldType::kUint32 || t == FieldType::kInt64) {
        pc = c;
        break;
      }
    }
    if (pc == csv.schema.num_columns()) continue;
    ++exercised;

    ParseOptions popts;
    popts.pushdown = PushdownFilter{};
    popts.pushdown->column = pc;
    switch (rng.Uniform(3)) {
      case 0:  // passes everything
        popts.pushdown->min_value = INT64_MIN;
        popts.pushdown->max_value = INT64_MAX;
        break;
      case 1:  // filters everything (empty range)
        popts.pushdown->min_value = 1;
        popts.pushdown->max_value = 0;
        ++filtered_all;
        break;
      default: {  // arbitrary band
        const int64_t a = static_cast<int64_t>(rng.NextUint64());
        const int64_t b = static_cast<int64_t>(rng.NextUint64());
        popts.pushdown->min_value = std::min(a, b);
        popts.pushdown->max_value = std::max(a, b);
        break;
      }
    }

    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(map.ok()) << context;

    auto ref_parsed =
        reference::RefParseChunk(csv.chunk, *map, csv.schema, popts);
    auto parsed = ParseChunk(csv.chunk, *map, csv.schema, popts);
    ASSERT_TRUE(ref_parsed.ok())
        << context << ": " << ref_parsed.status().ToString();
    ASSERT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
    ExpectChunksEqual(*parsed, *ref_parsed, context);
  }
  EXPECT_GT(exercised, 20);
  EXPECT_GT(filtered_all, 5);
}

TEST(HotpathEquivalenceTest, HandcraftedEdgeCases) {
  struct Case {
    const char* name;
    const char* data;
  };
  const Case cases[] = {
      {"empty fields", ",,\n,,\n"},
      {"crlf", "a,b,c\r\nd,e,f\r\n"},
      {"unterminated last line", "x,y,z\np,q,r"},
      {"single row single field", "hello"},
      {"trailing empty field", "a,b,\n"},
      {"empty chunk", ""},
  };
  std::vector<ColumnDef> defs(3);
  for (size_t c = 0; c < 3; ++c) {
    defs[c] = {"s" + std::to_string(c), FieldType::kString};
  }
  for (const Case& tc : cases) {
    const size_t columns = std::string_view(tc.data).empty() ? 3
                           : std::string(tc.data).find(',') == std::string::npos
                               ? 1
                               : 3;
    Schema schema(std::vector<ColumnDef>(defs.begin(), defs.begin() + columns));
    TextChunk chunk = MakeTextChunk(tc.data);
    const TokenizeOptions topts = TokOpts(schema);

    auto ref_map = reference::RefTokenizeChunk(chunk, topts);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(ref_map.ok()) << tc.name;
    ASSERT_TRUE(map.ok()) << tc.name;
    ExpectMapsEqual(*map, *ref_map, tc.name);

    auto ref_parsed = reference::RefParseChunk(chunk, *ref_map, schema, {});
    auto parsed = ParseChunk(chunk, *map, schema, {});
    ASSERT_TRUE(ref_parsed.ok()) << tc.name;
    ASSERT_TRUE(parsed.ok()) << tc.name;
    ExpectChunksEqual(*parsed, *ref_parsed, tc.name);
  }
}

TEST(HotpathEquivalenceTest, TokenizeErrorsMatchReference) {
  std::vector<ColumnDef> defs(3);
  for (size_t c = 0; c < 3; ++c) defs[c] = {"c", FieldType::kString};
  const Schema schema(defs);
  const TokenizeOptions topts = TokOpts(schema);
  for (const char* data : {"a,b\n", "a,b,c,d\n", "ok,ok,ok\nshort\n"}) {
    TextChunk chunk = MakeTextChunk(data, 5);
    auto ref_map = reference::RefTokenizeChunk(chunk, topts);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_FALSE(ref_map.ok()) << data;
    ASSERT_FALSE(map.ok()) << data;
    EXPECT_EQ(map.status().ToString(), ref_map.status().ToString()) << data;
  }
}

TEST(HotpathEquivalenceTest, SingleParseErrorMatchesReference) {
  // One malformed field in the chunk: row-major (reference) and
  // column-major (vectorized) discovery must report the same location and
  // message. Multi-error chunks may legitimately report different (valid)
  // first errors, so only single-error inputs are compared.
  std::vector<ColumnDef> defs = {{"a", FieldType::kUint32},
                                 {"b", FieldType::kInt64},
                                 {"c", FieldType::kDouble}};
  const Schema schema(defs);
  const TokenizeOptions topts = TokOpts(schema);
  const char* cases[] = {
      "1,2,3.5\n4,oops,6.5\n7,8,9.5\n",   // bad int64 mid-chunk
      "bad,2,3.5\n",                      // bad uint32 first row
      "1,2,\n",                           // empty double
      "99999999999,2,3.5\n",              // uint32 overflow
  };
  for (const char* data : cases) {
    TextChunk chunk = MakeTextChunk(data, 11);
    auto map = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(map.ok()) << data;
    auto ref_parsed = reference::RefParseChunk(chunk, *map, schema, {});
    auto parsed = ParseChunk(chunk, *map, schema, {});
    ASSERT_FALSE(ref_parsed.ok()) << data;
    ASSERT_FALSE(parsed.ok()) << data;
    EXPECT_EQ(parsed.status().ToString(), ref_parsed.status().ToString())
        << data;
  }
}

// ---- adversarial u32 fields ------------------------------------------------
//
// ParseChunk decodes a u32 field of 1-16 bytes that ends at least 16 bytes
// into the chunk with a 16-byte SIMD kernel, and every other field with
// from_chars. Each case puts one field at a chosen span of a one-row chunk
// and compares ParseChunk with the frozen reference: without push-down (the
// compact-map loop), and with push-down on the field's column (the
// predicate pass, then the selected-rows loop). Bytes before the field are
// digits, so a keep mask one lane too wide changes the value.

// Compares one chunk whose only field spans [s, e) of `bytes`. The chunk
// buffer is allocated to exactly `bytes.size()`, so ASan flags any read
// past it.
void ExpectU32SpanMatchesReference(const std::string& bytes, uint32_t s,
                                   uint32_t e) {
  TextChunk chunk;
  chunk.chunk_index = 3;
  chunk.data = std::string(bytes.data(), bytes.size());
  chunk.line_starts = {0};
  PositionalMap map(1, 1);
  map.Set(0, 0, s);
  map.Set(0, 1, e);
  const Schema schema = Schema::AllUint32(1);
  const std::string context = "field " +
                              testing::PrintToString(bytes.substr(s, e - s)) +
                              " at [" + std::to_string(s) + ", " +
                              std::to_string(e) + ") of " +
                              testing::PrintToString(bytes);

  auto want = reference::RefParseChunk(chunk, map, schema, {});
  auto got = ParseChunk(chunk, map, schema, {});
  ASSERT_EQ(got.ok(), want.ok())
      << context << ": got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (want.ok()) {
    ExpectChunksEqual(*got, *want, context);
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    EXPECT_EQ(got.status().message(), want.status().message()) << context;
  }

  // A band of exactly the reference value keeps the row only if the
  // predicate pass decoded the same value.
  ParseOptions popts;
  popts.pushdown = PushdownFilter{0, INT64_MIN, INT64_MAX};
  if (want.ok()) {
    const int64_t v = want->column(0).AsUint32()[0];
    popts.pushdown->min_value = v;
    popts.pushdown->max_value = v;
  }
  auto want_pd = reference::RefParseChunk(chunk, map, schema, popts);
  auto got_pd = ParseChunk(chunk, map, schema, popts);
  ASSERT_EQ(got_pd.ok(), want_pd.ok())
      << context << " (push-down): got " << got_pd.status().ToString()
      << ", want " << want_pd.status().ToString();
  if (want_pd.ok()) {
    ASSERT_EQ(want_pd->num_rows(), 1u) << context;
    ExpectChunksEqual(*got_pd, *want_pd, context + " (push-down)");
  } else {
    EXPECT_EQ(got_pd.status().code(), want_pd.status().code()) << context;
    EXPECT_EQ(got_pd.status().message(), want_pd.status().message())
        << context << " (push-down)";
  }
}

// `text` as the one field, `offset` bytes into the chunk after digits, and
// followed by `tail`.
void ExpectU32FieldMatchesReference(size_t offset, const std::string& text,
                                    const std::string& tail) {
  const std::string bytes = std::string(offset, '9') + text + tail;
  ExpectU32SpanMatchesReference(bytes, static_cast<uint32_t>(offset),
                                static_cast<uint32_t>(offset + text.size()));
}

TEST(HotpathEquivalenceTest, AdversarialU32FieldsMatchReference) {
  // Every length 0-20: digit runs that fit or overflow, all zeros, leading
  // zeros before one digit, and the u32 edges behind 0-7 leading zeros
  // (10-17 characters).
  std::vector<std::string> texts;
  for (size_t len = 0; len <= 20; ++len) {
    texts.push_back(std::string("12345678901234567890").substr(0, len));
    texts.push_back(std::string("98765432109876543210").substr(0, len));
    texts.push_back(std::string(len, '0'));
    if (len > 0) texts.push_back(std::string(len - 1, '0') + "7");
  }
  for (const char* edge : {"4294967295", "4294967296", "9999999999"}) {
    for (size_t zeros = 0; zeros <= 7; ++zeros) {
      texts.push_back(std::string(zeros, '0') + edge);
    }
  }
  // At every offset 0-20 from the chunk start: mid-row, and as the last
  // bytes of the chunk with and without a newline.
  for (size_t offset = 0; offset <= 20; ++offset) {
    for (const std::string& text : texts) {
      for (const char* tail : {",4321\n", "\n", ""}) {
        ExpectU32FieldMatchesReference(offset, text, tail);
        if (testing::Test::HasFailure()) return;
      }
    }
  }

  // Each non-digit byte at each position, in fields the kernel decodes.
  // '/' and ':' sit next to '0' and '9'.
  for (size_t len : {1, 2, 9, 10, 11, 16}) {
    const std::string digits = std::string("4294967295123456").substr(0, len);
    for (size_t pos = 0; pos < len; ++pos) {
      for (int byte = 0; byte < 256; ++byte) {
        if (byte >= '0' && byte <= '9') continue;
        std::string text = digits;
        text[pos] = static_cast<char>(byte);
        ExpectU32FieldMatchesReference(16, text, "\n");
        if (testing::Test::HasFailure()) return;
      }
    }
  }

  // A span that runs past the chunk buffer, as only a corrupt positional
  // map can hold, is Corruption with and without push-down; the frozen
  // reference clamps it to the buffer instead. The kernel's 16-byte load
  // must not be used for it (ASan flags the load for the first two ends).
  TextChunk chunk;
  chunk.chunk_index = 3;
  chunk.data = "99999999999912345678";
  chunk.line_starts = {0};
  for (uint32_t e : {28u, 24u, 21u}) {
    PositionalMap map(1, 1);
    map.Set(0, 0, 12);
    map.Set(0, 1, e);
    for (bool pushdown : {false, true}) {
      ParseOptions popts;
      if (pushdown) popts.pushdown = PushdownFilter{0, INT64_MIN, INT64_MAX};
      auto got = ParseChunk(chunk, map, Schema::AllUint32(1), popts);
      EXPECT_TRUE(got.status().IsCorruption())
          << "[12, " << e << ") push-down " << pushdown << ": "
          << got.status().ToString();
    }
  }
}

TEST(HotpathEquivalenceTest, QuotedParallelMatchesSequential) {
  // The scalar reference predates quoting, so the quoted dialect's two live
  // tiers (sequential FSM, speculative parallel) are compared against each
  // other — including quotes straddling the forced range boundaries.
  Random rng(31337);
  ThreadPool pool(3);
  const RecordDialect dialect{true, '"'};
  for (int iter = 0; iter < 40; ++iter) {
    const size_t columns = 1 + rng.Uniform(5);
    const size_t rows = 1 + rng.Uniform(60);
    std::string data;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < columns; ++c) {
        if (c > 0) data.push_back(',');
        data.push_back('"');
        const size_t len = rng.Uniform(8);
        for (size_t i = 0; i < len; ++i) {
          switch (rng.Uniform(5)) {
            case 0: data += "\"\""; break;
            case 1: data.push_back('\n'); break;
            case 2: data.push_back(','); break;
            default: data.push_back(static_cast<char>('a' + rng.Uniform(26)));
          }
        }
        data.push_back('"');
      }
      data.push_back('\n');
    }
    std::vector<uint32_t> newlines;
    FindRecordNewlines(data.data(), 0, data.size(), dialect, false, &newlines);
    std::vector<uint32_t> starts{0};
    for (uint32_t nl : newlines) {
      if (nl + 1 < data.size()) starts.push_back(nl + 1);
    }
    TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts), iter);
    ASSERT_EQ(chunk.num_rows(), rows);

    std::vector<ColumnDef> defs(columns);
    for (size_t c = 0; c < columns; ++c) {
      defs[c] = {"s" + std::to_string(c), FieldType::kString};
    }
    const Schema schema(defs);
    TokenizeOptions topts = TokOpts(schema);
    topts.quoted = true;

    const std::string context = "iter " + std::to_string(iter);
    auto want = TokenizeChunk(chunk, topts);
    ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();

    ParallelTokenizeOptions ptopts;
    ptopts.pool = &pool;
    ptopts.num_ranges = 2 + rng.Uniform(6);
    ptopts.min_range_bytes = 1;
    SpeculationStats stats;
    auto got = ParallelTokenizeChunk(chunk, topts, ptopts, &stats);
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    ExpectMapsEqual(*got, *want, context);

    // And the parsed chunks (doubled quotes collapsed) stay identical.
    ParseOptions popts;
    popts.unescape_quotes = true;
    auto want_parsed = ParseChunk(chunk, *want, schema, popts);
    auto got_parsed = ParseChunk(chunk, *got, schema, popts);
    ASSERT_TRUE(want_parsed.ok()) << context;
    ASSERT_TRUE(got_parsed.ok()) << context;
    ExpectChunksEqual(*got_parsed, *want_parsed, context);
  }
}

TEST(HotpathEquivalenceTest, RecycledBuffersProduceIdenticalOutput) {
  Random rng(777);
  ChunkBufferPool pool;
  for (int iter = 0; iter < 20; ++iter) {
    RandomCsv csv = MakeRandomCsv(&rng, iter);
    const std::string context = "iter " + std::to_string(iter);
    const TokenizeOptions topts = TokOpts(csv.schema);
    auto map = TokenizeChunk(csv.chunk, topts);
    ASSERT_TRUE(map.ok()) << context;

    auto fresh = ParseChunk(csv.chunk, *map, csv.schema, {});
    ASSERT_TRUE(fresh.ok()) << context;

    ParseOptions recycled_opts;
    recycled_opts.recycler = &pool;
    auto recycled = ParseChunk(csv.chunk, *map, csv.schema, recycled_opts);
    ASSERT_TRUE(recycled.ok()) << context;
    ExpectChunksEqual(*recycled, *fresh, context);
    // Return the buffers so later iterations genuinely reuse them.
    recycled->ReleaseBuffersTo(&pool);
  }
}

}  // namespace
}  // namespace scanraw
