// PARSE stage: converts attribute text into typed binary columns using the
// offsets computed by TOKENIZE (§2). Supports selective parsing: only the
// projected columns are converted.
#ifndef SCANRAW_FORMAT_PARSER_H_
#define SCANRAW_FORMAT_PARSER_H_

#include <cstdint>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"
#include "format/positional_map.h"
#include "format/schema.h"
#include "format/text_chunk.h"

namespace scanraw {

struct ParseOptions {
  // Column indexes to convert; empty means every schema column. Must all be
  // covered by the positional map.
  std::vector<size_t> projected_columns;
  // When set, output columns draw their backing buffers from here instead
  // of allocating fresh ones (see ChunkBufferPool). May be null.
  ColumnBufferSource* recycler = nullptr;
  // RFC-4180 quoted dialect, PARSE half: collapse doubled quote characters
  // ("" -> ") in string fields. The tokenizer's spans already exclude the
  // enclosing quotes, so numeric columns parse unchanged either way.
  bool unescape_quotes = false;
  char quote = '"';
};

// Parses the projected columns of `chunk` into a BinaryChunk with one row
// per row of the chunk.
Result<BinaryChunk> ParseChunk(const TextChunk& chunk,
                               const PositionalMap& map, const Schema& schema,
                               const ParseOptions& options);

// -- scalar conversions (exposed for tests and the genomics plugin) --

// Fast unsigned decimal parse; rejects empty/overflow/non-digit input.
Result<uint32_t> ParseUint32(std::string_view text);
Result<int64_t> ParseInt64(std::string_view text);
Result<double> ParseDouble(std::string_view text);

// Allocation-free variants used by the columnar hot loops: parse [first,
// last) and return false on any malformed input without building an error
// string (the caller classifies the failure only after it happens, via the
// Result-returning functions above). Built on std::from_chars — no stack
// copy, no field-length limit, locale-independent. TryParseUint32 defines
// the u32 accept set. ParseChunk decodes a u32 field of 1-16 bytes that
// ends at least 16 bytes into the chunk with a branch-free 16-byte SSE4.1
// kernel that accepts exactly the same fields, and passes every other
// field (and every field on a CPU or build without SIMD) to TryParseUint32.
bool TryParseUint32(const char* first, const char* last, uint32_t* out);
bool TryParseInt64(const char* first, const char* last, int64_t* out);
bool TryParseDouble(const char* first, const char* last, double* out);

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_PARSER_H_
