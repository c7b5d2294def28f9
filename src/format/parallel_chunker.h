// Speculative intra-file parallel TOKENIZE (after Chang et al., "Speculative
// Distributed CSV Data Parsing", SIGMOD 2019 — the source paper's explicit
// speculation applied one level down, inside the file).
//
// The problem: with RFC-4180 quoting a byte range cannot be tokenized in
// isolation, because whether its first newline terminates a record depends on
// the quote parity carried in from everything before it. The fix is to
// speculate: every range is scanned assuming it starts OUTSIDE a quoted
// field. Each scan also reports the range's quote-parity delta, which is
// independent of the (unknown) start state — a quote character always toggles
// parity, doubled-quote escapes toggle twice and cancel. A sequential fold
// over the deltas then recovers the true start state at every stitch point,
// and only the ranges whose speculation was wrong are re-scanned (the repair
// path). Misspeculation needs a quoted newline to straddle a range boundary,
// so repairs are rare and the scan parallelizes almost perfectly.
//
// Two entry points ride on this:
//  * ParallelFindRecordNewlines — record-boundary discovery, where quoted
//    newlines must not split records: in the discovery chunker
//    (scanraw/raw_reader), and in TOKENIZE for a re-read chunk, which READ
//    hands over as bare bytes.
//  * ParallelTokenizeChunk — fans a chunk whose record starts are already
//    known out over the worker pool as byte-balanced row ranges, each
//    tokenized into disjoint rows of one shared PositionalMap. Output is
//    byte-identical to the sequential TokenizeChunk.
#ifndef SCANRAW_FORMAT_PARALLEL_CHUNKER_H_
#define SCANRAW_FORMAT_PARALLEL_CHUNKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"
#include "format/tokenizer.h"

namespace scanraw {

class ThreadPool;

// Text dialect as the record scanner sees it: when `quoted`, a quote
// character toggles quote parity and newlines inside quotes do not terminate
// records. TOKENIZE uses the same FSM so READ and TOKENIZE agree on every
// byte of every input, well-formed or not.
struct RecordDialect {
  bool quoted = false;
  char quote = '"';
};

// Speculation outcome counters, folded into PipelineProfile by the caller
// (scanraw.tokenize.ranges / .misspeculations / .repair_bytes).
struct SpeculationStats {
  uint64_t ranges = 0;
  uint64_t misspeculations = 0;
  uint64_t repair_bytes = 0;
};

// Runs body(0) .. body(n-1), fanning out to `pool` (may be null). The caller
// participates: indexes are claimed from a shared atomic, so a saturated or
// empty pool degrades to the caller running everything rather than
// deadlocking behind its own queue. Returns after every body call finished.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body);

// Range count for a region of `bytes` holding `items` units of work: the
// requested count (0 = pool workers + the participating caller), clamped so
// every range is at least min_range_bytes and holds at least one item.
size_t NumRanges(ThreadPool* pool, size_t requested, size_t bytes,
                 size_t min_range_bytes, size_t items);

// Sequential quote-aware newline scan over data[from, end): appends the
// offset of every record-terminating newline (those at outside-quote parity)
// to `*newlines`. `start_inside` is the quote parity at `from`; the return
// value is the parity at `end`. With an unquoted dialect this is a plain
// bulk newline scan that always returns false.
bool FindRecordNewlines(const char* data, size_t from, size_t end,
                        const RecordDialect& dialect, bool start_inside,
                        std::vector<uint32_t>* newlines);

struct RecordScanOptions {
  RecordDialect dialect;
  ThreadPool* pool = nullptr;
  // Byte ranges to split into; 0 derives it from the pool size (workers + the
  // participating caller).
  size_t num_ranges = 0;
  // Regions smaller than num_ranges * min_range_bytes use fewer ranges —
  // range setup is not free. Tests set 1 to force adversarial boundaries on
  // tiny inputs.
  size_t min_range_bytes = 1 << 16;
};

// Parallel speculative version of FindRecordNewlines (same contract): splits
// [from, end) into ranges, scans each under the outside-quotes speculation,
// validates the stitch points by folding parity deltas, and re-scans only the
// misspeculated ranges. Output is byte-identical to the sequential scan.
// With an unquoted dialect there is nothing to speculate about and the
// sequential bulk scan is used directly.
bool ParallelFindRecordNewlines(const char* data, size_t from, size_t end,
                                bool start_inside,
                                const RecordScanOptions& options,
                                SpeculationStats* stats,
                                std::vector<uint32_t>* newlines);

struct ParallelTokenizeOptions {
  ThreadPool* pool = nullptr;
  size_t num_ranges = 0;        // 0 = derive from pool size
  size_t min_range_bytes = 1 << 16;
  // Per-range span attribution: called once per range with (range index,
  // start nanos, duration nanos) from the thread that tokenized the range.
  // May be invoked concurrently.
  std::function<void(size_t, int64_t, int64_t)> range_span;
};

// Tokenizes `chunk` by fanning byte-balanced row ranges out over the pool,
// each range writing its disjoint rows of one shared PositionalMap. Produces
// the exact bytes TokenizeChunk would (including the same first error when
// rows are malformed). Record starts are already known here, so no
// speculation is needed — `stats` only accrues the range count.
Result<PositionalMap> ParallelTokenizeChunk(
    const TextChunk& chunk, const TokenizeOptions& options,
    const ParallelTokenizeOptions& parallel_options, SpeculationStats* stats);

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_PARALLEL_CHUNKER_H_
