#include "scanraw/raw_reader.h"

#include <algorithm>

#include "common/byte_scan.h"
#include "common/string_util.h"
#include "scanraw/chunk_buffer_pool.h"

namespace scanraw {

namespace {
constexpr size_t kReadBlockBytes = 1 << 20;  // 1 MB sequential read unit
}  // namespace

Result<std::unique_ptr<SequentialChunker>> SequentialChunker::Open(
    const std::string& path, uint64_t chunk_rows, RateLimiter* limiter,
    IoStats* stats, ChunkBufferPool* pool, RecordDialect dialect,
    ThreadPool* scan_pool) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be > 0");
  }
  auto file = RandomAccessFile::Open(path, limiter, stats);
  if (!file.ok()) return file.status();
  return std::unique_ptr<SequentialChunker>(new SequentialChunker(
      std::move(*file), chunk_rows, pool, dialect, scan_pool));
}

SequentialChunker::SequentialChunker(std::unique_ptr<RandomAccessFile> file,
                                     uint64_t chunk_rows,
                                     ChunkBufferPool* pool,
                                     RecordDialect dialect,
                                     ThreadPool* scan_pool)
    : file_(std::move(file)),
      chunk_rows_(chunk_rows),
      pool_(pool),
      dialect_(dialect),
      scan_pool_(scan_pool) {}

Result<std::optional<TextChunk>> SequentialChunker::Next() {
  std::string data;
  if (pool_ != nullptr) {
    // Recycled buffer; the carry (usually a partial line) is copied in.
    data = pool_->AcquireText();
    data.assign(carry_);
  } else {
    data = std::move(carry_);
  }
  carry_.clear();
  newline_scratch_.clear();

  uint64_t lines = 0;
  if (!dialect_.quoted) {
    // Unquoted fast path (frozen from before the quoted dialect existed):
    // one bulk scan per byte range, budgeted to chunk_rows hits. Newline
    // positions land in the scratch vector, which both sizes the chunk and
    // becomes its line starts below.
    lines = bytescan::FindAll(data.data(), 0, data.size(), '\n', chunk_rows_,
                              0, &newline_scratch_);
    while (lines < chunk_rows_ && !eof_) {
      const size_t old = data.size();
      data.resize(old + kReadBlockBytes);
      auto n = file_->ReadAt(file_pos_, kReadBlockBytes, data.data() + old);
      if (!n.ok()) return n.status();
      data.resize(old + *n);
      file_pos_ += *n;
      if (*n == 0) {
        eof_ = true;
        break;
      }
      lines += bytescan::FindAll(data.data(), old, data.size(), '\n',
                                 chunk_rows_ - lines, 0, &newline_scratch_);
    }
  } else {
    // Quote-aware record discovery. The carry always begins at a record
    // boundary (it is the tail after the previous chunk's cut), so every
    // Next() starts at outside-quote parity; `inside` threads the parity
    // across the incremental block reads. With a scan pool this is the
    // speculative parallel range scan; otherwise the sequential FSM.
    RecordScanOptions sopts;
    sopts.dialect = dialect_;
    sopts.pool = scan_pool_;
    bool inside =
        ParallelFindRecordNewlines(data.data(), 0, data.size(),
                                   /*start_inside=*/false, sopts,
                                   &spec_stats_, &newline_scratch_);
    lines = newline_scratch_.size();
    while (lines < chunk_rows_ && !eof_) {
      const size_t old = data.size();
      data.resize(old + kReadBlockBytes);
      auto n = file_->ReadAt(file_pos_, kReadBlockBytes, data.data() + old);
      if (!n.ok()) return n.status();
      data.resize(old + *n);
      file_pos_ += *n;
      if (*n == 0) {
        eof_ = true;
        break;
      }
      inside = ParallelFindRecordNewlines(data.data(), old, data.size(),
                                          inside, sopts, &spec_stats_,
                                          &newline_scratch_);
      lines = newline_scratch_.size();
    }
  }

  size_t cut = data.size();
  if (lines >= chunk_rows_) {
    cut = static_cast<size_t>(newline_scratch_[chunk_rows_ - 1]) + 1;
  } else if (eof_ && !data.empty() && data.back() != '\n') {
    ++lines;  // final unterminated line
  }
  carry_.assign(data, cut, std::string::npos);
  data.resize(cut);
  if (data.empty()) {
    if (pool_ != nullptr) pool_->ReleaseTextBuffer(std::move(data));
    return std::optional<TextChunk>();
  }

  // Line starts from the newline positions already in hand: 0, then one past
  // every newline except a final-byte terminator.
  std::vector<uint32_t> starts;
  if (pool_ != nullptr) starts = pool_->AcquireLineStarts();
  starts.clear();
  starts.push_back(0);
  for (const uint32_t nl : newline_scratch_) {
    const size_t next_line = static_cast<size_t>(nl) + 1;
    if (next_line >= cut) break;
    starts.push_back(static_cast<uint32_t>(next_line));
  }

  const uint64_t offset = file_pos_ - carry_.size() - data.size();
  TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts),
                                  next_chunk_index_, offset);
  ++next_chunk_index_;
  return std::optional<TextChunk>(std::move(chunk));
}

Result<TextChunk> ReadChunkAt(const RandomAccessFile& file,
                              const ChunkMetadata& meta,
                              ChunkBufferPool* pool) {
  TextChunk chunk;
  chunk.chunk_index = meta.chunk_index;
  chunk.file_offset = meta.raw_offset;
  // A recycled buffer keeps its length, so only growth is zero-filled.
  if (pool != nullptr) chunk.data = pool->AcquireText();
  chunk.data.resize(meta.raw_size);
  auto n = file.ReadAt(meta.raw_offset, meta.raw_size, chunk.data.data());
  if (!n.ok()) return n.status();
  if (*n != meta.raw_size) {
    return Status::Corruption(StringPrintf(
        "short read of chunk %llu: got %zu of %llu bytes",
        static_cast<unsigned long long>(meta.chunk_index), *n,
        static_cast<unsigned long long>(meta.raw_size)));
  }
  return chunk;
}

}  // namespace scanraw
