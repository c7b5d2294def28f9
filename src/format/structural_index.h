// One structural pass over unquoted delimited text: record discovery and
// TOKENIZE together (stage 1 of Langdale & Lemire's two-stage parser, for
// the unquoted dialect). For each 64-byte block a SIMD kernel builds a
// delimiter mask and a newline mask; walking their set bits in order writes
// every field start into its row's positional-map slots, and every newline
// closes a row and opens the next. One scan of each raw byte replaces the
// newline scan (FindLineStarts) plus the per-row delimiter scans
// (TokenizeChunk), which stay as the frozen reference tier.
//
// The chunk is split into byte ranges snapped to record starts. Each range
// first counts its records (a popcount of its newline masks); a prefix sum
// then gives every range its first row, so the ranges write line starts and
// map rows in place, in parallel, at their final offsets.
#ifndef SCANRAW_FORMAT_STRUCTURAL_INDEX_H_
#define SCANRAW_FORMAT_STRUCTURAL_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "format/parallel_chunker.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"

namespace scanraw {

// The mask kernels, slowest first. A pass runs the best one the host
// supports (portable only in SCANRAW_SIMD=OFF builds or without AVX2);
// tests switch kernels to cover every one the host can run.
enum class StructuralKernel { kPortable, kAvx2 };
StructuralKernel BestStructuralKernel();
// Makes later passes run `kernel`, which must be at most
// BestStructuralKernel(). Not for use while a pass runs.
void UseStructuralKernel(StructuralKernel kernel);

// Corruption for a chunk holding `found` records where the catalog recorded
// `expected`.
Status RowCountMismatch(uint64_t chunk_index, uint64_t expected, size_t found);

// Finds the records of the unquoted chunk `chunk` and tokenizes them in one
// pass. Replaces chunk->line_starts (reusing its capacity) with what
// FindLineStarts finds, and returns the map TokenizeChunk builds, with the
// same first error. When `expected_rows` is set and the chunk holds another
// number of records, returns RowCountMismatch before tokenizing any row. The
// map is built in `slots` (a recycled slot array, or empty); its length is
// kept up to the size the map needs, so only growth is zero-filled. An
// array more than twice that size is freed and the map built afresh.
// `parallel_options` splits the byte ranges as for ParallelTokenizeChunk;
// range_span fires once per range for each of the two phases.
Result<PositionalMap> IndexUnquotedChunk(
    TextChunk* chunk, const TokenizeOptions& options,
    const ParallelTokenizeOptions& parallel_options, SpeculationStats* stats,
    std::optional<uint64_t> expected_rows = std::nullopt,
    std::vector<uint32_t> slots = {});

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_STRUCTURAL_INDEX_H_
