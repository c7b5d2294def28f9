// Scalar reference implementations of the conversion hot path, frozen at
// the pre-vectorization behavior: per-field memchr tokenizing, digit-loop /
// strtod scalar parsing, and row-at-a-time chunk conversion. Used by the
// equivalence tests (the vectorized path must produce byte-identical
// output) and by the micro_stages bench as the speedup baseline. Not built
// into the library — intentionally not updated when the production path
// changes.
#ifndef SCANRAW_BENCH_REFERENCE_SCALAR_H_
#define SCANRAW_BENCH_REFERENCE_SCALAR_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"
#include "common/string_util.h"
#include "format/parser.h"
#include "format/positional_map.h"
#include "format/schema.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"

namespace scanraw {
namespace reference {

inline TextChunk RefMakeTextChunk(std::string data, uint64_t chunk_index = 0,
                                  uint64_t file_offset = 0) {
  TextChunk chunk;
  chunk.chunk_index = chunk_index;
  chunk.file_offset = file_offset;
  chunk.data = std::move(data);
  if (!chunk.data.empty()) chunk.line_starts.push_back(0);
  for (size_t i = 0; i + 1 < chunk.data.size(); ++i) {
    if (chunk.data[i] == '\n') {
      chunk.line_starts.push_back(static_cast<uint32_t>(i + 1));
    }
  }
  return chunk;
}

inline uint32_t RefLineEnd(const TextChunk& chunk, size_t r) {
  uint32_t end = (r + 1 < chunk.line_starts.size())
                     ? chunk.line_starts[r + 1]
                     : static_cast<uint32_t>(chunk.data.size());
  const std::string& d = chunk.data;
  while (end > chunk.line_starts[r] &&
         (d[end - 1] == '\n' || d[end - 1] == '\r')) {
    --end;
  }
  return end;
}

inline Result<PositionalMap> RefTokenizeChunk(const TextChunk& chunk,
                                              const TokenizeOptions& options) {
  if (options.schema_fields == 0) {
    return Status::InvalidArgument("schema_fields must be > 0");
  }
  const size_t fields = options.EffectiveFields();
  const char delim = options.delimiter;
  const char* data = chunk.data.data();
  PositionalMap map(chunk.num_rows(), fields);

  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    uint32_t pos = chunk.line_starts[r];
    const uint32_t end = RefLineEnd(chunk, r);
    map.Set(r, 0, pos);
    for (size_t f = 1; f < fields; ++f) {
      const char* hit = static_cast<const char*>(
          std::memchr(data + pos, delim, end - pos));
      if (hit == nullptr) {
        return Status::Corruption(StringPrintf(
            "chunk %llu row %zu: expected %zu fields, found %zu",
            static_cast<unsigned long long>(chunk.chunk_index), r, fields, f));
      }
      pos = static_cast<uint32_t>(hit - data) + 1;
      map.Set(r, f, pos);
    }
    const char* hit =
        static_cast<const char*>(std::memchr(data + pos, delim, end - pos));
    uint32_t last_end = (hit != nullptr && fields < options.schema_fields)
                            ? static_cast<uint32_t>(hit - data)
                            : end;
    if (hit != nullptr && fields == options.schema_fields) {
      return Status::Corruption(StringPrintf(
          "chunk %llu row %zu: more fields than the %zu in the schema",
          static_cast<unsigned long long>(chunk.chunk_index), r, fields));
    }
    map.Set(r, fields, last_end);
  }
  return map;
}

inline Result<uint32_t> RefParseUint32(std::string_view text) {
  if (text.empty()) return Status::Corruption("empty uint32 field");
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::Corruption("invalid uint32: '" + std::string(text) + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > UINT32_MAX) {
      return Status::Corruption("uint32 overflow: '" + std::string(text) +
                                "'");
    }
  }
  return static_cast<uint32_t>(value);
}

inline Result<int64_t> RefParseInt64(std::string_view text) {
  if (text.empty()) return Status::Corruption("empty int64 field");
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
    if (text.size() == 1) return Status::Corruption("lone sign in int64");
  }
  uint64_t magnitude = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') {
      return Status::Corruption("invalid int64: '" + std::string(text) + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (magnitude > (UINT64_MAX - digit) / 10) {
      return Status::Corruption("int64 overflow: '" + std::string(text) + "'");
    }
    magnitude = magnitude * 10 + digit;
  }
  const uint64_t limit = negative ? (1ull << 63) : (1ull << 63) - 1;
  if (magnitude > limit) {
    return Status::Corruption("int64 overflow: '" + std::string(text) + "'");
  }
  return negative ? static_cast<int64_t>(0 - magnitude)
                  : static_cast<int64_t>(magnitude);
}

inline Result<double> RefParseDouble(std::string_view text) {
  if (text.empty()) return Status::Corruption("empty double field");
  char buf[64];
  if (text.size() >= sizeof(buf)) {
    return Status::Corruption("double field too long");
  }
  std::copy(text.begin(), text.end(), buf);
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size()) {
    return Status::Corruption("invalid double: '" + std::string(text) + "'");
  }
  return value;
}

inline Status RefAppendField(std::string_view text, FieldType type,
                             ColumnVector* out) {
  switch (type) {
    case FieldType::kUint32: {
      auto v = RefParseUint32(text);
      if (!v.ok()) return v.status();
      out->AppendUint32(*v);
      return Status::OK();
    }
    case FieldType::kInt64: {
      auto v = RefParseInt64(text);
      if (!v.ok()) return v.status();
      out->AppendInt64(*v);
      return Status::OK();
    }
    case FieldType::kDouble: {
      auto v = RefParseDouble(text);
      if (!v.ok()) return v.status();
      out->AppendDouble(*v);
      return Status::OK();
    }
    case FieldType::kString:
      out->AppendString(text);
      return Status::OK();
  }
  return Status::Internal("unknown field type");
}

// Row-at-a-time chunk conversion, exactly as the pre-columnar parser did it.
inline Result<BinaryChunk> RefParseChunk(const TextChunk& chunk,
                                         const PositionalMap& map,
                                         const Schema& schema,
                                         const ParseOptions& options) {
  std::vector<size_t> cols = options.projected_columns;
  if (cols.empty()) {
    cols.resize(schema.num_columns());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  }
  for (size_t c : cols) {
    if (c >= schema.num_columns()) {
      return Status::InvalidArgument(
          StringPrintf("projected column %zu out of range", c));
    }
    if (c >= map.fields_per_row()) {
      return Status::InvalidArgument(StringPrintf(
          "column %zu not covered by positional map (%zu fields)", c,
          map.fields_per_row()));
    }
  }
  if (map.num_rows() != chunk.num_rows()) {
    return Status::InvalidArgument("positional map / chunk row mismatch");
  }

  const std::string_view data(chunk.data);
  std::vector<ColumnVector> vectors;
  vectors.reserve(cols.size());
  for (size_t c : cols) vectors.emplace_back(schema.column(c).type);

  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) {
      const size_t c = cols[i];
      const std::string_view field =
          data.substr(map.FieldStart(r, c),
                      map.FieldEnd(r, c) - map.FieldStart(r, c));
      Status s = RefAppendField(field, schema.column(c).type, &vectors[i]);
      if (!s.ok()) {
        return Status(
            s.code(),
            StringPrintf("chunk %llu row %zu col %zu: ",
                         static_cast<unsigned long long>(chunk.chunk_index),
                         r, c) +
                std::string(s.message()));
      }
    }
  }

  BinaryChunk out(chunk.chunk_index);
  for (size_t i = 0; i < cols.size(); ++i) {
    SCANRAW_RETURN_IF_ERROR(out.AddColumn(cols[i], std::move(vectors[i])));
  }
  return out;
}

}  // namespace reference
}  // namespace scanraw

#endif  // SCANRAW_BENCH_REFERENCE_SCALAR_H_
