#include <gtest/gtest.h>

#include "format/parser.h"
#include "format/tokenizer.h"

namespace scanraw {
namespace {

PositionalMap Tokenize(const TextChunk& chunk, const Schema& schema,
                       size_t max_fields = 0) {
  TokenizeOptions opts;
  opts.delimiter = schema.delimiter();
  opts.schema_fields = schema.num_columns();
  opts.max_fields = max_fields;
  auto map = TokenizeChunk(chunk, opts);
  EXPECT_TRUE(map.ok()) << map.status().ToString();
  return std::move(*map);
}

TEST(ScalarParseTest, Uint32Valid) {
  EXPECT_EQ(*ParseUint32("0"), 0u);
  EXPECT_EQ(*ParseUint32("4294967295"), 4294967295u);
  EXPECT_EQ(*ParseUint32("123"), 123u);
}

TEST(ScalarParseTest, Uint32Invalid) {
  EXPECT_TRUE(ParseUint32("").status().IsCorruption());
  EXPECT_TRUE(ParseUint32("-1").status().IsCorruption());
  EXPECT_TRUE(ParseUint32("12x").status().IsCorruption());
  EXPECT_TRUE(ParseUint32("4294967296").status().IsCorruption());
  EXPECT_TRUE(ParseUint32("99999999999999999999").status().IsCorruption());
}

TEST(ScalarParseTest, Int64Valid) {
  EXPECT_EQ(*ParseInt64("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(*ParseInt64("+5"), 5);
  EXPECT_EQ(*ParseInt64("-0"), 0);
}

TEST(ScalarParseTest, Int64Invalid) {
  EXPECT_TRUE(ParseInt64("").status().IsCorruption());
  EXPECT_TRUE(ParseInt64("-").status().IsCorruption());
  EXPECT_TRUE(ParseInt64("9223372036854775808").status().IsCorruption());
  EXPECT_TRUE(ParseInt64("-9223372036854775809").status().IsCorruption());
  EXPECT_TRUE(ParseInt64("1.5").status().IsCorruption());
  EXPECT_TRUE(ParseInt64("18446744073709551616").status().IsCorruption());
}

TEST(ScalarParseTest, DoubleValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ScalarParseTest, DoubleInvalid) {
  EXPECT_TRUE(ParseDouble("").status().IsCorruption());
  EXPECT_TRUE(ParseDouble("abc").status().IsCorruption());
  EXPECT_TRUE(ParseDouble("1.5x").status().IsCorruption());
  EXPECT_TRUE(ParseDouble("+-5").status().IsCorruption());
  EXPECT_TRUE(ParseDouble("+").status().IsCorruption());
  EXPECT_TRUE(ParseDouble("+ 1.5").status().IsCorruption());
}

// Regression: the old strtod path copied the field into a 64-byte stack
// buffer and rejected anything longer. Long numeric fields are legitimate
// (high-precision scientific data) and must parse.
TEST(ScalarParseTest, DoubleLongerThan64Chars) {
  const std::string ones(100, '1');  // 1.11...e99, 100 chars
  auto v = ParseDouble(ones);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(*v, 1.1111111111111111e99);

  std::string precise = "3.";
  precise += std::string(80, '1');
  auto p = ParseDouble(precise);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 3.1111111111111111);
}

TEST(ScalarParseTest, TryParseVariantsMatchResultVariants) {
  const char* cases[] = {"0",   "42",  "-7",    "+5",   "4294967296",
                         "1.5", "",    "-",     "+",    "abc",
                         "1e3", "0x10", " 1",   "1 ",   "9223372036854775807"};
  for (const char* c : cases) {
    const std::string_view text(c);
    uint32_t u = 0;
    EXPECT_EQ(TryParseUint32(text.data(), text.data() + text.size(), &u),
              ParseUint32(text).ok())
        << text;
    int64_t i = 0;
    EXPECT_EQ(TryParseInt64(text.data(), text.data() + text.size(), &i),
              ParseInt64(text).ok())
        << text;
    double d = 0;
    EXPECT_EQ(TryParseDouble(text.data(), text.data() + text.size(), &d),
              ParseDouble(text).ok())
        << text;
  }
}

TEST(ParseChunkTest, AllColumns) {
  Schema schema = Schema::AllUint32(3);
  TextChunk chunk = MakeTextChunk("1,2,3\n4,5,6\n", 9);
  PositionalMap map = Tokenize(chunk, schema);
  auto binary = ParseChunk(chunk, map, schema, ParseOptions{});
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->chunk_index(), 9u);
  EXPECT_EQ(binary->num_rows(), 2u);
  EXPECT_EQ(binary->num_columns(), 3u);
  EXPECT_EQ(binary->column(0).AsUint32()[1], 4u);
  EXPECT_EQ(binary->column(2).AsUint32()[0], 3u);
}

TEST(ParseChunkTest, SelectiveParsing) {
  Schema schema = Schema::AllUint32(4);
  TextChunk chunk = MakeTextChunk("1,2,3,4\n5,6,7,8\n");
  PositionalMap map = Tokenize(chunk, schema);
  ParseOptions opts;
  opts.projected_columns = {1, 3};
  auto binary = ParseChunk(chunk, map, schema, opts);
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary->num_columns(), 2u);
  EXPECT_FALSE(binary->HasColumn(0));
  EXPECT_EQ(binary->column(1).AsUint32()[0], 2u);
  EXPECT_EQ(binary->column(3).AsUint32()[1], 8u);
}

TEST(ParseChunkTest, MixedTypes) {
  Schema schema(std::vector<ColumnDef>{{"id", FieldType::kUint32},
                                       {"delta", FieldType::kInt64},
                                       {"score", FieldType::kDouble},
                                       {"name", FieldType::kString}});
  TextChunk chunk = MakeTextChunk("1,-5,2.5,alice\n2,9,0.25,bob\n");
  PositionalMap map = Tokenize(chunk, schema);
  auto binary = ParseChunk(chunk, map, schema, ParseOptions{});
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(binary->column(0).AsUint32()[0], 1u);
  EXPECT_EQ(binary->column(1).AsInt64()[0], -5);
  EXPECT_DOUBLE_EQ(binary->column(2).AsDouble()[1], 0.25);
  EXPECT_EQ(binary->column(3).StringAt(1), "bob");
}

TEST(ParseChunkTest, PartialMapCoversProjection) {
  Schema schema = Schema::AllUint32(8);
  TextChunk chunk = MakeTextChunk("0,1,2,3,4,5,6,7\n");
  PositionalMap map = Tokenize(chunk, schema, /*max_fields=*/3);
  ParseOptions opts;
  opts.projected_columns = {0, 2};
  auto binary = ParseChunk(chunk, map, schema, opts);
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(binary->column(2).AsUint32()[0], 2u);
}

TEST(ParseChunkTest, ColumnBeyondMapRejected) {
  Schema schema = Schema::AllUint32(8);
  TextChunk chunk = MakeTextChunk("0,1,2,3,4,5,6,7\n");
  PositionalMap map = Tokenize(chunk, schema, /*max_fields=*/3);
  ParseOptions opts;
  opts.projected_columns = {5};
  auto binary = ParseChunk(chunk, map, schema, opts);
  ASSERT_FALSE(binary.ok());
  EXPECT_TRUE(binary.status().IsInvalidArgument());
}

TEST(ParseChunkTest, OutOfRangeColumnRejected) {
  Schema schema = Schema::AllUint32(2);
  TextChunk chunk = MakeTextChunk("0,1\n");
  PositionalMap map = Tokenize(chunk, schema);
  ParseOptions opts;
  opts.projected_columns = {7};
  EXPECT_TRUE(ParseChunk(chunk, map, schema, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(ParseChunkTest, MalformedValueReportsLocation) {
  Schema schema = Schema::AllUint32(2);
  TextChunk chunk = MakeTextChunk("1,2\n3,oops\n", 42);
  PositionalMap map = Tokenize(chunk, schema);
  auto binary = ParseChunk(chunk, map, schema, ParseOptions{});
  ASSERT_FALSE(binary.ok());
  EXPECT_TRUE(binary.status().IsCorruption());
  EXPECT_NE(binary.status().message().find("chunk 42"), std::string::npos);
  EXPECT_NE(binary.status().message().find("row 1"), std::string::npos);
}

TEST(ParseChunkTest, SpanPastChunkIsCorruption) {
  // Only a corrupt positional map holds such a span. Row 0 maps to [4, 9)
  // of the 5-byte chunk; its text clamped to the chunk ("9") parses, and
  // the rows after it must not come back silently zero.
  Schema schema = Schema::AllUint32(1);
  TextChunk chunk = MakeTextChunk("7\n8\n9", 5);
  PositionalMap map = Tokenize(chunk, schema);
  ASSERT_EQ(map.num_rows(), 3u);
  map.Set(0, 0, 4);
  map.Set(0, 1, 9);
  auto binary = ParseChunk(chunk, map, schema, ParseOptions{});
  ASSERT_FALSE(binary.ok());
  EXPECT_TRUE(binary.status().IsCorruption()) << binary.status().ToString();
  EXPECT_NE(binary.status().message().find("chunk 5 row 0 col 0"),
            std::string::npos)
      << binary.status().ToString();
}

// Round-trip property: print -> tokenize -> parse recovers the values.
class ParserRoundTripTest : public testing::TestWithParam<size_t> {};

TEST_P(ParserRoundTripTest, Uint32Columns) {
  const size_t width = GetParam();
  Schema schema = Schema::AllUint32(width);
  const size_t rows = 29;
  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) data.push_back(',');
      data += std::to_string((r * 2654435761u + c * 40503u) % 4294967295u);
    }
    data.push_back('\n');
  }
  TextChunk chunk = MakeTextChunk(std::move(data));
  PositionalMap map = Tokenize(chunk, schema);
  auto binary = ParseChunk(chunk, map, schema, ParseOptions{});
  ASSERT_TRUE(binary.ok());
  ASSERT_EQ(binary->num_rows(), rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < width; ++c) {
      EXPECT_EQ(binary->column(c).AsUint32()[r],
                (r * 2654435761u + c * 40503u) % 4294967295u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParserRoundTripTest,
                         testing::Values(1, 2, 8, 64, 256));

}  // namespace
}  // namespace scanraw
