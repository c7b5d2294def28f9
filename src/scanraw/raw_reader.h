// READ-stage helpers: sequential chunking of a never-before-seen raw file
// (layout discovery) and positional re-reads of known chunks.
#ifndef SCANRAW_SCANRAW_RAW_READER_H_
#define SCANRAW_SCANRAW_RAW_READER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/catalog.h"
#include "format/parallel_chunker.h"
#include "format/text_chunk.h"
#include "io/file.h"

namespace scanraw {

class RateLimiter;
class ChunkBufferPool;
class ThreadPool;

// Splits a raw file sequentially into chunks of `chunk_rows` complete
// records, recording each chunk's byte extent for the catalog.
// Single-threaded (one READ step at a time). When `pool` is set, chunk
// text buffers and line-start vectors are drawn from it (and return to it
// when the consumer releases the chunk).
//
// With a quoted `dialect`, record discovery is quote-aware: newlines inside
// quoted fields do not terminate records. When `scan_pool` is also set, the
// quote-parity scan runs as the speculative parallel range scan
// (format/parallel_chunker); without it, the sequential FSM — the frozen
// single-thread reference tier — runs instead. Speculation outcomes
// accumulate in speculation().
class SequentialChunker {
 public:
  static Result<std::unique_ptr<SequentialChunker>> Open(
      const std::string& path, uint64_t chunk_rows,
      RateLimiter* limiter = nullptr, IoStats* stats = nullptr,
      ChunkBufferPool* pool = nullptr, RecordDialect dialect = RecordDialect(),
      ThreadPool* scan_pool = nullptr);

  // Returns the next chunk, or nullopt at end of file.
  Result<std::optional<TextChunk>> Next();

  uint64_t chunks_produced() const { return next_chunk_index_; }
  const SpeculationStats& speculation() const { return spec_stats_; }

 private:
  SequentialChunker(std::unique_ptr<RandomAccessFile> file,
                    uint64_t chunk_rows, ChunkBufferPool* pool,
                    RecordDialect dialect, ThreadPool* scan_pool);

  std::unique_ptr<RandomAccessFile> file_;
  const uint64_t chunk_rows_;
  ChunkBufferPool* const pool_;  // may be null
  const RecordDialect dialect_;
  ThreadPool* const scan_pool_;  // may be null (sequential quote scan)
  SpeculationStats spec_stats_;
  uint64_t file_pos_ = 0;        // next byte to read from the file
  uint64_t next_chunk_index_ = 0;
  std::string carry_;            // bytes after the last complete record
  std::vector<uint32_t> newline_scratch_;  // newline positions, reused
  bool eof_ = false;
};

// Re-reads one chunk of a file whose layout is already in the catalog. The
// dialect/scan_pool/spec_stats trio mirrors SequentialChunker::Open: with a
// quoted dialect, record starts come from the (optionally parallel
// speculative) quote-parity scan instead of the plain newline split.
Result<TextChunk> ReadChunkAt(const RandomAccessFile& file,
                              const ChunkMetadata& meta,
                              ChunkBufferPool* pool = nullptr,
                              RecordDialect dialect = RecordDialect(),
                              ThreadPool* scan_pool = nullptr,
                              SpeculationStats* spec_stats = nullptr);

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_RAW_READER_H_
