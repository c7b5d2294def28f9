#include "format/parser.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string>

#include "common/byte_scan.h"
#include "common/string_util.h"

namespace scanraw {

namespace {

// Full-range strtod through a NUL-terminated heap copy: the cold
// compatibility path for inputs std::from_chars rejects but the historical
// strtod-based parser accepted (hex floats, leading whitespace, and
// out-of-range magnitudes saturating to ±HUGE_VAL / 0). Never runs for
// well-formed decimal fields.
bool StrtodFull(const char* first, const char* last, double* out) {
  const std::string copy(first, last);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

}  // namespace

bool TryParseUint32(const char* first, const char* last, uint32_t* out) {
  // std::from_chars already rejects signs, whitespace, and empty input,
  // exactly matching the digits-only contract of ParseUint32.
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool TryParseInt64(const char* first, const char* last, int64_t* out) {
  // from_chars accepts '-' but not '+'; strip an explicit plus, which must
  // be followed by a digit (not another sign or end-of-field).
  if (first != last && *first == '+') {
    ++first;
    if (first == last || *first < '0' || *first > '9') return false;
  }
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool TryParseDouble(const char* first, const char* last, double* out) {
  if (first == last) return false;
  const char* p = first;
  if (*p == '+') {
    ++p;
    // "+-1" / "++1" / a bare "+" were never valid; bail before from_chars
    // would happily parse the inner "-1".
    if (p == last || *p == '+' || *p == '-') return false;
  }
  const auto [ptr, ec] =
      std::from_chars(p, last, *out, std::chars_format::general);
  if (ec == std::errc() && ptr == last) return true;
  return StrtodFull(first, last, out);
}

Result<uint32_t> ParseUint32(std::string_view text) {
  uint32_t value = 0;
  if (TryParseUint32(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  if (text.empty()) return Status::Corruption("empty uint32 field");
  // Overflow is reported the moment the digit prefix exceeds the type's
  // range, even with trailing junk after it (matching the historical
  // digit-by-digit accumulation).
  uint32_t probe = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), probe);
  (void)ptr;
  if (ec == std::errc::result_out_of_range) {
    return Status::Corruption("uint32 overflow: '" + std::string(text) + "'");
  }
  return Status::Corruption("invalid uint32: '" + std::string(text) + "'");
}

Result<int64_t> ParseInt64(std::string_view text) {
  int64_t value = 0;
  if (TryParseInt64(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  if (text.empty()) return Status::Corruption("empty int64 field");
  if (text.size() == 1 && (text[0] == '-' || text[0] == '+')) {
    return Status::Corruption("lone sign in int64");
  }
  // Reconstruct the historical accumulate-in-uint64 semantics: overflow is
  // reported when the digit prefix exceeds the uint64 accumulator (even
  // with trailing junk), or when a fully-digits magnitude exceeds the
  // signed limit; anything else is malformed.
  std::string_view digits = text;
  if (digits[0] == '-' || digits[0] == '+') digits.remove_prefix(1);
  const bool negative = text[0] == '-';
  uint64_t magnitude = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), magnitude);
  const bool all_digits = ptr == digits.data() + digits.size();
  if (ec == std::errc::result_out_of_range) {
    return Status::Corruption("int64 overflow: '" + std::string(text) + "'");
  }
  if (all_digits && ec == std::errc()) {
    const uint64_t limit = negative ? (1ull << 63) : (1ull << 63) - 1;
    if (magnitude > limit) {
      return Status::Corruption("int64 overflow: '" + std::string(text) +
                                "'");
    }
  }
  return Status::Corruption("invalid int64: '" + std::string(text) + "'");
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::Corruption("empty double field");
  double value = 0;
  if (TryParseDouble(text.data(), text.data() + text.size(), &value)) {
    return value;
  }
  return Status::Corruption("invalid double: '" + std::string(text) + "'");
}

namespace {

Result<int64_t> ParseNumeric(std::string_view text, FieldType type) {
  switch (type) {
    case FieldType::kUint32: {
      auto v = ParseUint32(text);
      if (!v.ok()) return v.status();
      return static_cast<int64_t>(*v);
    }
    case FieldType::kInt64:
      return ParseInt64(text);
    case FieldType::kDouble: {
      auto v = ParseDouble(text);
      if (!v.ok()) return v.status();
      return static_cast<int64_t>(*v);
    }
    case FieldType::kString:
      break;
  }
  return Status::InvalidArgument("push-down filter on non-numeric column");
}

// Only a corrupt positional map holds a span [s, e) that is not inside its
// chunk. The fast paths reject such a span, but its text clamped to the
// chunk may well parse, so it is reported before any re-parse.
bool SpanInChunk(std::string_view data, uint32_t s, uint32_t e) {
  return s <= e && e <= data.size();
}

// Builds the full error for the field at [s, e) that the Try* fast path
// rejected: the classified scalar message (reproduced via the
// Result-returning parser), or Corruption for a span outside the chunk,
// wrapped with chunk/row/col context. Only runs after a parse has already
// failed, so the hot loops stay allocation-free.
Status FieldError(const TextChunk& chunk, size_t r, size_t c, uint32_t fs,
                  uint32_t fe, FieldType type) {
  const std::string_view data(chunk.data);
  Status s = [&]() -> Status {
    if (!SpanInChunk(data, fs, fe)) {
      return Status::Corruption(StringPrintf(
          "field [%u, %u) outside the %zu-byte chunk", fs, fe, data.size()));
    }
    const std::string_view field = data.substr(fs, fe - fs);
    switch (type) {
      case FieldType::kUint32:
        return ParseUint32(field).status();
      case FieldType::kInt64:
        return ParseInt64(field).status();
      case FieldType::kDouble:
        return ParseDouble(field).status();
      case FieldType::kString:
        break;
    }
    return Status::Internal("unknown field type");
  }();
  return Status(
      s.code(),
      StringPrintf("chunk %llu row %zu col %zu: ",
                   static_cast<unsigned long long>(chunk.chunk_index), r, c) +
          std::string(s.message()));
}

#if SCANRAW_BYTE_SCAN_SIMD

bool HaveSse41() {
  static const bool have = __builtin_cpu_supports("sse4.1") != 0;
  return have;
}

// Sliding window for the keep mask: the 16 bytes at kKeepWindow + len are
// 0 in the first 16 - len lanes and 0xFF in the last len lanes.
constexpr char kKeepWindow[32] = {0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,
                                  0,  0,  0,  0,  0,  -1, -1, -1, -1, -1, -1,
                                  -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};

// Branch-free decode of the 1..16-byte field that ends at `end`; the 16
// bytes before `end` must be readable. Lanes before the field are forced to
// '0', so the field's digits sit right-aligned in a 16-digit number that
// maddubs/madd/packus/madd reduce to two 8-digit halves. Accepts exactly
// what TryParseUint32 accepts for such a field: digits only, value at most
// UINT32_MAX (leading zeros allowed).
__attribute__((target("sse4.1"))) inline bool DecodeUint32x16(
    const char* end, uint32_t len, uint32_t* out) {
  const __m128i zero = _mm_set1_epi8('0');
  const __m128i text =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(end - 16));
  const __m128i keep =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kKeepWindow + len));
  const __m128i digits = _mm_sub_epi8(_mm_blendv_epi8(zero, text, keep), zero);
  // A byte is a digit iff byte - '0', read unsigned, is at most 9.
  const __m128i above_nine = _mm_subs_epu8(digits, _mm_set1_epi8(9));
  const __m128i d2 = _mm_maddubs_epi16(
      digits, _mm_setr_epi8(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1,
                            10, 1));
  const __m128i d4 =
      _mm_madd_epi16(d2, _mm_setr_epi16(100, 1, 100, 1, 100, 1, 100, 1));
  const __m128i d8 = _mm_madd_epi16(
      _mm_packus_epi32(d4, d4),
      _mm_setr_epi16(10000, 1, 10000, 1, 10000, 1, 10000, 1));
  const uint64_t hi = static_cast<uint32_t>(_mm_cvtsi128_si32(d8));
  const uint64_t lo = static_cast<uint32_t>(_mm_extract_epi32(d8, 1));
  const uint64_t value = hi * 100000000 + lo;
  *out = static_cast<uint32_t>(value);
  return (_mm_testz_si128(above_nine, above_nine) != 0) &
         (value <= UINT32_MAX);
}

template <typename SpanFn>
__attribute__((target("sse4.1"))) size_t DecodeUint32sSse41(
    std::string_view data, size_t n, uint32_t* dst, SpanFn span) {
  const char* base = data.data();
  for (size_t i = 0; i < n; ++i) {
    uint32_t s = 0;
    uint32_t e = 0;
    span(i, &s, &e);
    const uint32_t len = e - s;
    // The kernel reads [e - 16, e): only fields that fit in it and lie at
    // least 16 bytes into the buffer take it.
    const bool ok = len - 1 < 16 && e >= 16 && e <= data.size()
                        ? DecodeUint32x16(base + e, len, &dst[i])
                        : TryParseUint32(base + s, base + e, &dst[i]);
    if (!ok) return i;
  }
  return n;
}

#endif  // SCANRAW_BYTE_SCAN_SIMD

// Decodes `n` u32 fields into dst[0, n); field i spans [s, e) of `data` as
// `span(i, &s, &e)` reports it. Returns the index of the first field that
// is not a valid u32, or n. The CPU check runs once per call, not per field.
template <typename SpanFn>
size_t DecodeUint32s(std::string_view data, size_t n, uint32_t* dst,
                     SpanFn span) {
#if SCANRAW_BYTE_SCAN_SIMD
  if (HaveSse41()) return DecodeUint32sSse41(data, n, dst, span);
#endif
  for (size_t i = 0; i < n; ++i) {
    uint32_t s = 0;
    uint32_t e = 0;
    span(i, &s, &e);
    if (!TryParseUint32(data.data() + s, data.data() + e, &dst[i])) return i;
  }
  return n;
}

// Converts `bn` selected rows starting at selection index `b0` of column
// `c` in one typed loop, templated on a span provider `span(i, &r, &s, &e)`
// so the compact fast path (hoisted row stride, loop-invariant end
// adjustment) and the generic path share the per-type bodies. The type
// switch runs once per block instead of once per field, and fixed-width
// output lands in a single bulk-resized block.
template <typename SpanFn>
Status ParseBlockTyped(const TextChunk& chunk, size_t c, FieldType type,
                       size_t bn, const ParseOptions& options,
                       ColumnVector* out, SpanFn span) {
  const std::string_view data(chunk.data);
  const char* base = data.data();
  size_t r = 0;
  uint32_t s = 0;
  uint32_t e = 0;
  switch (type) {
    case FieldType::kUint32: {
      uint32_t* dst = out->AppendUint32Block(bn);
      const size_t bad = DecodeUint32s(
          data, bn, dst, [span](size_t i, uint32_t* fs, uint32_t* fe) {
            size_t row = 0;
            span(i, &row, fs, fe);
          });
      if (bad == bn) return Status::OK();
      span(bad, &r, &s, &e);
      return FieldError(chunk, r, c, s, e, type);
    }
    case FieldType::kInt64: {
      int64_t* dst = out->AppendInt64Block(bn);
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        if (!TryParseInt64(base + s, base + e, &dst[i])) {
          return FieldError(chunk, r, c, s, e, type);
        }
      }
      return Status::OK();
    }
    case FieldType::kDouble: {
      double* dst = out->AppendDoubleBlock(bn);
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        if (!TryParseDouble(base + s, base + e, &dst[i])) {
          return FieldError(chunk, r, c, s, e, type);
        }
      }
      return Status::OK();
    }
    case FieldType::kString: {
      const char quote = options.quote;
      std::string collapsed;
      for (size_t i = 0; i < bn; ++i) {
        span(i, &r, &s, &e);
        const std::string_view field = data.substr(s, e - s);
        if (!options.unescape_quotes ||
            field.find(quote) == std::string_view::npos) {
          out->AppendString(field);
          continue;
        }
        // Quoted-dialect escape: a doubled quote inside the field is one
        // literal quote character; a lone quote passes through unchanged.
        collapsed.clear();
        collapsed.reserve(field.size());
        for (size_t p = 0; p < field.size(); ++p) {
          collapsed.push_back(field[p]);
          if (field[p] == quote && p + 1 < field.size() &&
              field[p + 1] == quote) {
            ++p;
          }
        }
        out->AppendString(collapsed);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown field type");
}

// One block of one column. `sel` lists the surviving row indexes (null =
// all rows); `b0` is the block's first selection index.
Status ParseColumnBlock(const TextChunk& chunk, const PositionalMap& map,
                        size_t c, FieldType type, const uint32_t* sel,
                        size_t b0, size_t bn, const ParseOptions& options,
                        ColumnVector* out) {
  if (!map.explicit_ends() && sel == nullptr) {
    // Compact unfiltered fast path: rows are consecutive, so the slot
    // pointer advances by a fixed stride, and whether the field end needs
    // the delimiter-byte adjustment is a per-column constant.
    const size_t stride = map.fields_per_row() + 1;
    const uint32_t* slot = map.RowData(b0) + c;
    const uint32_t adj = (c + 1 == map.fields_per_row()) ? 0 : 1;
    return ParseBlockTyped(
        chunk, c, type, bn, options, out,
        [=](size_t i, size_t* r, uint32_t* s, uint32_t* e) {
          *r = b0 + i;
          const uint32_t* p = slot + i * stride;
          *s = p[0];
          *e = p[1] - adj;
        });
  }
  return ParseBlockTyped(chunk, c, type, bn, options, out,
                         [&map, sel, c, b0](size_t i, size_t* r, uint32_t* s,
                                            uint32_t* e) {
                           *r = sel != nullptr ? sel[b0 + i] : b0 + i;
                           *s = map.FieldStart(*r, c);
                           *e = map.FieldEnd(*r, c);
                         });
}

// Rows per processing block: columns are parsed block-at-a-time so the
// text and map bytes a block touches stay cache-resident while every
// projected column walks them (a whole wide chunk would be re-streamed
// from memory once per column otherwise).
constexpr size_t kParseRowBlock = 512;

}  // namespace

Result<BinaryChunk> ParseChunk(const TextChunk& chunk,
                               const PositionalMap& map, const Schema& schema,
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
  if (options.pushdown.has_value()) {
    const size_t pc = options.pushdown->column;
    if (pc >= map.fields_per_row()) {
      return Status::InvalidArgument("push-down column not tokenized");
    }
    if (schema.column(pc).type == FieldType::kString) {
      return Status::InvalidArgument("push-down filter on string column");
    }
  }
  if (map.num_rows() != chunk.num_rows()) {
    return Status::InvalidArgument("positional map / chunk row mismatch");
  }

  const std::string_view data(chunk.data);
  const size_t num_rows = chunk.num_rows();

  // Push-down selection first (§2): one typed pass over the predicate
  // column produces the row selection every projected column then honors.
  std::vector<uint32_t> selected;
  const bool filtered = options.pushdown.has_value();
  if (filtered) {
    const auto& pd = *options.pushdown;
    const FieldType pt = schema.column(pd.column).type;
    const char* base = data.data();
    selected.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const uint32_t s = map.FieldStart(r, pd.column);
      const uint32_t e = map.FieldEnd(r, pd.column);
      int64_t value = 0;
      bool parsed = false;
      switch (pt) {
        case FieldType::kUint32: {
          uint32_t v = 0;
          parsed = DecodeUint32s(data, 1, &v,
                                 [s, e](size_t, uint32_t* fs, uint32_t* fe) {
                                   *fs = s;
                                   *fe = e;
                                 }) == 1;
          value = static_cast<int64_t>(v);
          break;
        }
        case FieldType::kInt64:
          parsed = TryParseInt64(base + s, base + e, &value);
          break;
        case FieldType::kDouble: {
          double v = 0;
          parsed = TryParseDouble(base + s, base + e, &v);
          value = static_cast<int64_t>(v);
          break;
        }
        case FieldType::kString:
          break;  // rejected by validation above
      }
      if (!parsed) {
        return SpanInChunk(data, s, e)
                   ? ParseNumeric(data.substr(s, e - s), pt).status()
                   : FieldError(chunk, r, pd.column, s, e, pt);
      }
      if (value >= pd.min_value && value <= pd.max_value) {
        selected.push_back(static_cast<uint32_t>(r));
      }
    }
  }
  const uint32_t* sel = filtered ? selected.data() : nullptr;
  const size_t out_rows = filtered ? selected.size() : num_rows;

  std::vector<ColumnVector> vectors;
  vectors.reserve(cols.size());
  for (size_t c : cols) {
    ColumnVector vec(schema.column(c).type);
    if (options.recycler != nullptr) vec.AdoptBuffersFrom(options.recycler);
    vec.Reserve(out_rows);
    vectors.push_back(std::move(vec));
  }
  for (size_t b0 = 0; b0 < out_rows; b0 += kParseRowBlock) {
    const size_t bn = std::min(kParseRowBlock, out_rows - b0);
    for (size_t j = 0; j < cols.size(); ++j) {
      SCANRAW_RETURN_IF_ERROR(ParseColumnBlock(chunk, map, cols[j],
                                               schema.column(cols[j]).type,
                                               sel, b0, bn, options,
                                               &vectors[j]));
    }
  }

  BinaryChunk out(chunk.chunk_index);
  for (size_t j = 0; j < cols.size(); ++j) {
    SCANRAW_RETURN_IF_ERROR(out.AddColumn(cols[j], std::move(vectors[j])));
  }
  if (out.num_columns() > 0 && out.num_rows() == 0) {
    // All rows filtered out: keep an explicit zero-row chunk.
    out.set_num_rows(0);
  }
  return out;
}

}  // namespace scanraw
