#include "scanraw/chunk_buffer_pool.h"

#include <utility>

namespace scanraw {

template <typename Buffer>
Buffer ChunkBufferPool::Acquire(FreeList<Buffer> list) {
  Buffer buffer;
  bool hit = false;
  {
    MutexLock lock(mu_);
    std::vector<Buffer>& free = this->*list;
    if (!free.empty()) {
      buffer = std::move(free.back());
      free.pop_back();
      hit = true;
    }
    UpdateIdle();
  }
  if (hit && hits_ != nullptr) hits_->Add();
  if (!hit && misses_ != nullptr) misses_->Add();
  return buffer;
}

// Releases past the cap and buffers holding no heap allocation (capacity no
// better than a fresh buffer's — for std::string that means within the SSO
// size) are dropped on the floor.
template <typename Buffer>
void ChunkBufferPool::Release(FreeList<Buffer> list, Buffer buffer,
                              bool keep_length) {
  MutexLock lock(mu_);
  std::vector<Buffer>& free = this->*list;
  if (buffer.capacity() <= Buffer().capacity() || free.size() >= max_pooled_) {
    return;
  }
  if (!keep_length) buffer.clear();
  free.push_back(std::move(buffer));
  UpdateIdle();
}

void ChunkBufferPool::UpdateIdle() {
  if (idle_ != nullptr) {
    idle_->Set(static_cast<int64_t>(fixed_.size() + strings_.size() +
                                    offsets_.size() + texts_.size() +
                                    map_slots_.size()));
  }
}

std::vector<uint8_t> ChunkBufferPool::AcquireFixed() {
  return Acquire(&ChunkBufferPool::fixed_);
}

std::string ChunkBufferPool::AcquireString() {
  return Acquire(&ChunkBufferPool::strings_);
}

std::vector<uint32_t> ChunkBufferPool::AcquireOffsets() {
  return Acquire(&ChunkBufferPool::offsets_);
}

std::string ChunkBufferPool::AcquireText() {
  return Acquire(&ChunkBufferPool::texts_);
}

std::vector<uint32_t> ChunkBufferPool::AcquireMapSlots() {
  return Acquire(&ChunkBufferPool::map_slots_);
}

void ChunkBufferPool::ReleaseFixed(std::vector<uint8_t> buffer) {
  Release(&ChunkBufferPool::fixed_, std::move(buffer), /*keep_length=*/false);
}

void ChunkBufferPool::ReleaseString(std::string buffer) {
  Release(&ChunkBufferPool::strings_, std::move(buffer),
          /*keep_length=*/false);
}

void ChunkBufferPool::ReleaseOffsets(std::vector<uint32_t> buffer) {
  Release(&ChunkBufferPool::offsets_, std::move(buffer),
          /*keep_length=*/false);
}

void ChunkBufferPool::ReleaseTextBuffer(std::string buffer) {
  Release(&ChunkBufferPool::texts_, std::move(buffer), /*keep_length=*/true);
}

void ChunkBufferPool::ReleaseMapSlots(std::vector<uint32_t> slots) {
  Release(&ChunkBufferPool::map_slots_, std::move(slots),
          /*keep_length=*/true);
}

void ChunkBufferPool::ReleaseText(TextChunk* chunk) {
  ReleaseTextBuffer(std::move(chunk->data));
  ReleaseOffsets(std::move(chunk->line_starts));
  chunk->data.clear();
  chunk->line_starts.clear();
}

size_t ChunkBufferPool::idle_buffers() const {
  MutexLock lock(mu_);
  return fixed_.size() + strings_.size() + offsets_.size() + texts_.size() +
         map_slots_.size();
}

std::shared_ptr<TextChunk> ChunkBufferPool::WrapText(
    TextChunk chunk, std::shared_ptr<ChunkBufferPool> pool) {
  if (pool == nullptr) return std::make_shared<TextChunk>(std::move(chunk));
  auto* raw = new TextChunk(std::move(chunk));
  return std::shared_ptr<TextChunk>(
      raw, [pool = std::move(pool)](TextChunk* c) {
        pool->ReleaseText(c);
        delete c;
      });
}

std::shared_ptr<const PositionalMap> ChunkBufferPool::WrapMap(
    PositionalMap map, std::shared_ptr<ChunkBufferPool> pool) {
  if (pool == nullptr) {
    return std::make_shared<const PositionalMap>(std::move(map));
  }
  auto* raw = new PositionalMap(std::move(map));
  return std::shared_ptr<const PositionalMap>(
      raw, [pool = std::move(pool)](const PositionalMap* m) {
        auto* mut = const_cast<PositionalMap*>(m);
        pool->ReleaseMapSlots(mut->TakeOffsets());
        delete mut;
      });
}

BinaryChunkPtr ChunkBufferPool::WrapChunk(
    BinaryChunk chunk, std::shared_ptr<ChunkBufferPool> pool) {
  if (pool == nullptr) {
    return std::make_shared<const BinaryChunk>(std::move(chunk));
  }
  auto* raw = new BinaryChunk(std::move(chunk));
  return BinaryChunkPtr(raw, [pool = std::move(pool)](const BinaryChunk* c) {
    auto* mut = const_cast<BinaryChunk*>(c);
    mut->ReleaseBuffersTo(pool.get());
    delete mut;
  });
}

}  // namespace scanraw
