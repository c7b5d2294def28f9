#include "format/structural_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>

#include "common/byte_scan.h"
#include "common/clock.h"
#include "common/string_util.h"

namespace scanraw {

namespace {

constexpr size_t kBlockBytes = 64;
// Blocks whose masks one kernel call builds: 4 KiB of text per call, and
// 1 KiB of masks on the stack.
constexpr size_t kBatchBlocks = 64;

// Builds, for each of `blocks` 64-byte blocks at `p`, a mask whose bit i is
// set when byte i is `delim`, and one whose bit i is set when byte i is '\n'.
using MaskKernel = void (*)(const char* p, size_t blocks, char delim,
                            uint64_t* delims, uint64_t* newlines);
// Counts the '\n' bytes of `blocks` 64-byte blocks at `p`. It compares for
// newlines only: popcounting the mask kernel's newline masks instead made
// the AVX2 pass 15-29% slower on a 4096-row chunk.
using CountKernel = size_t (*)(const char* p, size_t blocks);

struct Kernels {
  MaskKernel masks;
  CountKernel count;
};

constexpr uint64_t kRepeat = 0x0101010101010101ULL;
constexpr uint64_t kNewlinePattern = kRepeat * static_cast<uint8_t>('\n');

// 0x80 in each byte of the 8 bytes at `p` that equals the byte `pattern`
// repeats, 0 elsewhere. Exact: the zero-byte test cannot borrow across
// bytes.
inline uint64_t EqualBytes(const char* p, uint64_t pattern) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  word = __builtin_bswap64(word);
#endif
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  const uint64_t x = word ^ pattern;                   // 0 where equal
  const uint64_t nonzero = ((x & kLow7) + kLow7) | x;  // high bit: byte != 0
  return ~nonzero & ~kLow7;
}

// Bit i is set when byte i of the 8 bytes at `p` equals `pattern`'s byte.
inline uint64_t ByteMask8(const char* p, uint64_t pattern) {
  // Gathers the high bits (8j + 7) into bits 56..63. The partial products
  // land on distinct bits, so no carry reaches the result.
  return (EqualBytes(p, pattern) * 0x0002040810204081ULL) >> 56;
}

// The path of SCANRAW_SIMD=OFF builds and of hosts without AVX2: eight
// bytes per step.
void MasksPortable(const char* p, size_t blocks, char delim, uint64_t* delims,
                   uint64_t* newlines) {
  const uint64_t delim_pattern = kRepeat * static_cast<uint8_t>(delim);
  for (size_t b = 0; b < blocks; ++b, p += kBlockBytes) {
    uint64_t d = 0;
    uint64_t n = 0;
    for (size_t w = 0; w < kBlockBytes / 8; ++w) {
      d |= ByteMask8(p + 8 * w, delim_pattern) << (8 * w);
      n |= ByteMask8(p + 8 * w, kNewlinePattern) << (8 * w);
    }
    delims[b] = d;
    newlines[b] = n;
  }
}

size_t CountPortable(const char* p, size_t blocks) {
  size_t count = 0;
  for (size_t w = 0; w < blocks * (kBlockBytes / 8); ++w, p += 8) {
    // One 1 per equal byte, summed into the top byte.
    count += ((EqualBytes(p, kNewlinePattern) >> 7) * kRepeat) >> 56;
  }
  return count;
}

#if SCANRAW_BYTE_SCAN_SIMD

__attribute__((target("avx2"))) void MasksAvx2(const char* p, size_t blocks,
                                               char delim, uint64_t* delims,
                                               uint64_t* newlines) {
  const __m256i vdelim = _mm256_set1_epi8(delim);
  const __m256i vnewline = _mm256_set1_epi8('\n');
  for (size_t b = 0; b < blocks; ++b, p += kBlockBytes) {
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const uint64_t d_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, vdelim)));
    const uint64_t d_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, vdelim)));
    const uint64_t n_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, vnewline)));
    const uint64_t n_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, vnewline)));
    delims[b] = d_lo | (d_hi << 32);
    newlines[b] = n_lo | (n_hi << 32);
  }
}

__attribute__((target("avx2,popcnt"))) size_t CountAvx2(const char* p,
                                                        size_t blocks) {
  const __m256i vnewline = _mm256_set1_epi8('\n');
  size_t count = 0;
  for (size_t b = 0; b < blocks; ++b, p += kBlockBytes) {
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const uint64_t n_lo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, vnewline)));
    const uint64_t n_hi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, vnewline)));
    count += static_cast<size_t>(_mm_popcnt_u64(n_lo | (n_hi << 32)));
  }
  return count;
}

#endif  // SCANRAW_BYTE_SCAN_SIMD

Kernels KernelsFor(StructuralKernel kernel) {
  switch (kernel) {
#if SCANRAW_BYTE_SCAN_SIMD
    case StructuralKernel::kAvx2:
      return {MasksAvx2, CountAvx2};
#endif
    default:
      return {MasksPortable, CountPortable};
  }
}

std::atomic<StructuralKernel>& ActiveKernel() {
  static std::atomic<StructuralKernel> kernel{BestStructuralKernel()};
  return kernel;
}

// The bytes one pass walks, with the delimiter and the active kernels.
struct Text {
  const char* data;
  size_t size;
  char delim;
  Kernels kernels;
};

// Calls visit(base, delims, newlines) for each 64-byte block of [from, end)
// in order, with both masks cut to the range. Stops, returning false, when
// visit does.
template <typename Visit>
bool ForEachBlock(const Text& text, size_t from, size_t end, Visit&& visit) {
  uint64_t delims[kBatchBlocks];
  uint64_t newlines[kBatchBlocks];
  for (size_t batch = from; batch < end; batch += kBatchBlocks * kBlockBytes) {
    const size_t blocks =
        std::min(kBatchBlocks, (end - batch + kBlockBytes - 1) / kBlockBytes);
    // Blocks inside the buffer are read in place. Only the buffer's final
    // block can run past its end; it is read from a zero-padded copy.
    const size_t in_place = std::min(blocks, (text.size - batch) / kBlockBytes);
    text.kernels.masks(text.data + batch, in_place, text.delim, delims,
                       newlines);
    if (in_place < blocks) {
      char padded[kBlockBytes] = {};
      const size_t at = batch + in_place * kBlockBytes;
      std::memcpy(padded, text.data + at, text.size - at);
      text.kernels.masks(padded, 1, text.delim, delims + in_place,
                         newlines + in_place);
    }
    for (size_t b = 0; b < blocks; ++b) {
      const size_t base = batch + b * kBlockBytes;
      const size_t valid = end - base;
      const uint64_t keep = valid >= kBlockBytes
                                ? ~uint64_t{0}
                                : (uint64_t{1} << valid) - 1;
      if (!visit(base, delims[b] & keep, newlines[b] & keep)) return false;
    }
  }
  return true;
}

size_t CountNewlines(const Text& text, size_t from, size_t end) {
  const size_t whole = (end - from) / kBlockBytes;
  size_t count = text.kernels.count(text.data + from, whole);
  ForEachBlock(text, from + whole * kBlockBytes, end,
               [&count](size_t, uint64_t, uint64_t newlines) {
                 count += static_cast<size_t>(std::popcount(newlines));
                 return true;
               });
  return count;
}

// Where a range writes: the chunk's line starts and row 0's map slots.
struct Output {
  uint32_t* starts;
  uint32_t* slots;
  size_t stride;  // slots per row
};

// Walks the delimiter and newline bits of [from, end), whose first record
// is row `row`, writing each row's line start and map slots in place. Stops
// at the range's first malformed row, with TokenizeRows' error for it.
Status IndexRange(const Text& text, const TokenizeOptions& options,
                  uint64_t chunk_index, size_t from, size_t end, size_t row,
                  const Output& out) {
  if (from >= end) return Status::OK();
  const size_t fields = options.EffectiveFields();
  size_t start = from;  // the open row's first byte
  uint32_t* slots = out.slots + row * out.stride;
  out.starts[row] = static_cast<uint32_t>(start);
  slots[0] = static_cast<uint32_t>(start);
  bool open = true;     // a row has begun that no newline has closed yet
  size_t seen = 0;      // delimiters seen in the open row, at most `fields`
  size_t overflow = 0;  // the delimiter after the last tokenized field
  Status error;

  // Closes the open row at `line_end` (its newline, or the buffer's end),
  // trimming '\r's as LineEnd does.
  auto close_row = [&](size_t line_end) {
    while (line_end > start && text.data[line_end - 1] == '\r') --line_end;
    if (seen + 1 < fields) {
      error = Status::Corruption(StringPrintf(
          "chunk %llu row %zu: expected %zu fields, found %zu",
          static_cast<unsigned long long>(chunk_index), row, fields,
          seen + 1));
      return false;
    }
    if (seen == fields && fields == options.schema_fields) {
      error = Status::Corruption(StringPrintf(
          "chunk %llu row %zu: more fields than the %zu in the schema",
          static_cast<unsigned long long>(chunk_index), row, fields));
      return false;
    }
    slots[fields] = static_cast<uint32_t>(seen == fields ? overflow : line_end);
    return true;
  };

  const bool ok = ForEachBlock(
      text, from, end, [&](size_t base, uint64_t delims, uint64_t newlines) {
        while (true) {
          // The open row's delimiters in this block lie before its newline,
          // the lowest newline bit (none: the row goes on).
          const uint64_t newline = newlines & (0 - newlines);
          uint64_t row_delims = newline != 0 ? delims & (newline - 1) : delims;
          for (; row_delims != 0 && seen + 1 < fields; ++seen) {
            slots[seen + 1] = static_cast<uint32_t>(
                base + static_cast<size_t>(__builtin_ctzll(row_delims)) + 1);
            row_delims &= row_delims - 1;
          }
          if (row_delims != 0 && seen + 1 == fields) {
            overflow = base + static_cast<size_t>(__builtin_ctzll(row_delims));
            seen = fields;
          }
          if (newline == 0) return true;
          const size_t pos = base + static_cast<size_t>(__builtin_ctzll(newline));
          if (!close_row(pos)) return false;
          newlines ^= newline;
          delims &= ~(newline | (newline - 1));  // only bits past the newline
          start = pos + 1;
          open = start < end;
          if (!open) return true;
          ++row;
          slots += out.stride;
          out.starts[row] = static_cast<uint32_t>(start);
          slots[0] = static_cast<uint32_t>(start);
          seen = 0;
        }
      });
  if (!ok) return error;
  // Only a range ending at the buffer's end can hold an unterminated row.
  if (open && !close_row(end)) return error;
  return Status::OK();
}

}  // namespace

StructuralKernel BestStructuralKernel() {
#if SCANRAW_BYTE_SCAN_SIMD
  if (__builtin_cpu_supports("avx2")) return StructuralKernel::kAvx2;
#endif
  return StructuralKernel::kPortable;
}

void UseStructuralKernel(StructuralKernel kernel) {
  ActiveKernel().store(kernel, std::memory_order_relaxed);
}

Status RowCountMismatch(uint64_t chunk_index, uint64_t expected,
                        size_t found) {
  return Status::Corruption(StringPrintf(
      "chunk %llu: expected %llu rows, found %zu",
      static_cast<unsigned long long>(chunk_index),
      static_cast<unsigned long long>(expected), found));
}

Result<PositionalMap> IndexUnquotedChunk(
    TextChunk* chunk, const TokenizeOptions& options,
    const ParallelTokenizeOptions& parallel_options, SpeculationStats* stats,
    std::optional<uint64_t> expected_rows, std::vector<uint32_t> slots) {
  if (options.schema_fields == 0) {
    return Status::InvalidArgument("schema_fields must be > 0");
  }
  if (options.quoted) {
    return Status::InvalidArgument("the structural pass reads unquoted text");
  }
  const std::string& data = chunk->data;
  const size_t size = data.size();
  if (options.delimiter == '\r') {
    // LineEnd trims '\r's before the delimiter scan; the reference tier
    // keeps that order for this one delimiter.
    FindLineStarts(data, &chunk->line_starts);
    if (expected_rows.has_value() && *expected_rows != chunk->num_rows()) {
      return RowCountMismatch(chunk->chunk_index, *expected_rows,
                              chunk->num_rows());
    }
    return ParallelTokenizeChunk(*chunk, options, parallel_options, stats);
  }
  const Text text{data.data(), size, options.delimiter,
                  KernelsFor(ActiveKernel().load(std::memory_order_relaxed))};

  const size_t n =
      NumRanges(parallel_options.pool, parallel_options.num_ranges, size,
                parallel_options.min_range_bytes, size);
  if (stats != nullptr) stats->ranges += n;
  // Byte targets snapped forward to record starts (one past a newline).
  std::vector<size_t> bounds(n + 1, size);
  bounds[0] = 0;
  for (size_t i = 1; i < n; ++i) {
    const size_t newline =
        bytescan::FindByte(data.data(), size * i / n - 1, size, '\n');
    bounds[i] = std::max(bounds[i - 1],
                         newline == bytescan::kNpos ? size : newline + 1);
  }
  const Clock* clock = RealClock::Instance();
  auto for_each_range = [&](const std::function<void(size_t)>& body) {
    ParallelFor(parallel_options.pool, n, [&](size_t i) {
      const int64_t t0 = parallel_options.range_span ? clock->NowNanos() : 0;
      body(i);
      if (parallel_options.range_span) {
        parallel_options.range_span(i, t0, clock->NowNanos() - t0);
      }
    });
  };

  // Phase 1: every range's record count, then each range's first row.
  std::vector<size_t> first_row(n + 1, 0);
  for_each_range([&](size_t i) {
    first_row[i + 1] = CountNewlines(text, bounds[i], bounds[i + 1]);
  });
  if (size > 0 && data.back() != '\n') ++first_row[n];  // unterminated row
  for (size_t i = 0; i < n; ++i) first_row[i + 1] += first_row[i];
  const size_t rows = first_row[n];
  if (expected_rows.has_value() && *expected_rows != rows) {
    return RowCountMismatch(chunk->chunk_index, *expected_rows, rows);
  }

  // Phase 2: every range writes its rows in place.
  const size_t fields = options.EffectiveFields();
  chunk->line_starts.resize(rows);
  // A recycled array more than twice the map's size would stay held as long
  // as the map lives, in the positional-map cache too: start afresh.
  const size_t need = rows * (fields + 1);
  if (slots.capacity() > 2 * need) slots = std::vector<uint32_t>();
  slots.resize(need);
  PositionalMap map = PositionalMap::FromOffsets(
      fields, /*explicit_ends=*/false, std::move(slots));
  const Output out{chunk->line_starts.data(),
                   rows == 0 ? nullptr : map.MutableRow(0), fields + 1};
  std::vector<Status> statuses(n);
  for_each_range([&](size_t i) {
    statuses[i] = IndexRange(text, options, chunk->chunk_index, bounds[i],
                             bounds[i + 1], first_row[i], out);
  });
  // Ranges are row-ordered and each stops at its first malformed row, so the
  // first failed range holds the error a sequential scan reports first.
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return map;
}

}  // namespace scanraw
