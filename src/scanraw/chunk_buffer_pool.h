// ChunkBufferPool: recycles the large allocations of the READ→TOKENIZE→
// PARSE pipeline — TextChunk text buffers, line-start vectors, positional-map
// slot arrays, and ColumnVector backing arrays — so steady-state chunk
// processing reuses capacity instead of round-tripping every chunk's buffers
// through the allocator. Buffers are returned when the last reference to a
// chunk or map drops (see WrapText / WrapMap / WrapChunk) and handed out
// again by READ, TOKENIZE and the parser (via ParseOptions::recycler).
#ifndef SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_
#define SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/thread_annotations.h"
#include "format/positional_map.h"
#include "format/text_chunk.h"
#include "obs/metrics.h"

namespace scanraw {

// Thread-safe. One pool serves all pipeline stages of a query. The column
// lists hand out cleared buffers (string arenas and offset vectors append
// from empty). Text buffers and map slot arrays have lists of their own and
// come back with the length they were released with: every byte or slot is
// overwritten before it is read, so re-reading a chunk of the same size
// fills nothing, and resizing zero-fills only growth past the old length.
class ChunkBufferPool : public ColumnBufferSource {
 public:
  // At most `max_pooled_per_kind` idle buffers are retained per free list;
  // releases beyond that are dropped on the floor (freed).
  explicit ChunkBufferPool(size_t max_pooled_per_kind = 64)
      : max_pooled_(max_pooled_per_kind) {}

  // Optional observability hookup; call before the pool is shared across
  // threads. `hits` counts acquires served from a free list, `misses`
  // acquires that fell through to a fresh buffer, `idle` tracks the total
  // number of pooled buffers.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Gauge* idle) {
    hits_ = hits;
    misses_ = misses;
    idle_ = idle;
  }

  // -- ColumnBufferSource --
  std::vector<uint8_t> AcquireFixed() override EXCLUDES(mu_);
  std::string AcquireString() override EXCLUDES(mu_);
  std::vector<uint32_t> AcquireOffsets() override EXCLUDES(mu_);
  void ReleaseFixed(std::vector<uint8_t> buffer) override EXCLUDES(mu_);
  void ReleaseString(std::string buffer) override EXCLUDES(mu_);
  void ReleaseOffsets(std::vector<uint32_t> buffer) override EXCLUDES(mu_);

  // A chunk's raw bytes, with the length it was released with.
  std::string AcquireText() EXCLUDES(mu_);
  void ReleaseTextBuffer(std::string buffer) EXCLUDES(mu_);
  // Line starts ride the (cleared) offsets list.
  std::vector<uint32_t> AcquireLineStarts() EXCLUDES(mu_) {
    return AcquireOffsets();
  }
  // Takes the chunk's buffers back; the chunk is empty afterwards.
  void ReleaseText(TextChunk* chunk) EXCLUDES(mu_);

  // A positional map's slot array, with the length it was released with.
  std::vector<uint32_t> AcquireMapSlots() EXCLUDES(mu_);
  void ReleaseMapSlots(std::vector<uint32_t> slots) EXCLUDES(mu_);

  size_t idle_buffers() const EXCLUDES(mu_);

  // Wraps a TextChunk so its buffers return to `pool` when the last
  // reference drops — the chunk is shared by TOKENIZE and PARSE, and only
  // the final release may recycle it. A null pool degrades to plain
  // make_shared.
  static std::shared_ptr<TextChunk> WrapText(
      TextChunk chunk, std::shared_ptr<ChunkBufferPool> pool);

  // Same for a positional map whose slot array came from AcquireMapSlots:
  // PARSE and the positional-map cache may both hold it. Wrap only maps
  // built in pooled slots, or the pool fills with arrays nothing draws.
  static std::shared_ptr<const PositionalMap> WrapMap(
      PositionalMap map, std::shared_ptr<ChunkBufferPool> pool);

  // Same for a parsed BinaryChunk handed to the engine/cache: the consumer
  // holds an ordinary BinaryChunkPtr and the columns' backing arrays come
  // home when it lets go.
  static BinaryChunkPtr WrapChunk(BinaryChunk chunk,
                                  std::shared_ptr<ChunkBufferPool> pool);

 private:
  template <typename Buffer>
  using FreeList = std::vector<Buffer> ChunkBufferPool::*;

  template <typename Buffer>
  Buffer Acquire(FreeList<Buffer> list) EXCLUDES(mu_);
  template <typename Buffer>
  void Release(FreeList<Buffer> list, Buffer buffer, bool keep_length)
      EXCLUDES(mu_);
  void UpdateIdle() REQUIRES(mu_);

  const size_t max_pooled_;
  obs::Counter* hits_ = nullptr;    // set once before concurrent use
  obs::Counter* misses_ = nullptr;
  obs::Gauge* idle_ = nullptr;

  mutable Mutex mu_{LockRank::kChunkBufferPool, "ChunkBufferPool.mu"};
  std::vector<std::vector<uint8_t>> fixed_ GUARDED_BY(mu_);
  std::vector<std::string> strings_ GUARDED_BY(mu_);
  std::vector<std::vector<uint32_t>> offsets_ GUARDED_BY(mu_);
  std::vector<std::string> texts_ GUARDED_BY(mu_);
  std::vector<std::vector<uint32_t>> map_slots_ GUARDED_BY(mu_);
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_CHUNK_BUFFER_POOL_H_
