#include "db/storage_manager.h"

#include "columnar/chunk_serde.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "io/fault_injection.h"

namespace scanraw {

Result<std::unique_ptr<StorageManager>> StorageManager::Create(
    const std::string& path, RateLimiter* limiter, IoStats* stats) {
  auto writer = WritableFile::Create(path, limiter, stats);
  if (!writer.ok()) return writer.status();
  return std::unique_ptr<StorageManager>(
      new StorageManager(path, std::move(*writer), limiter, stats));
}

Result<std::unique_ptr<StorageManager>> StorageManager::OpenExisting(
    const std::string& path, RateLimiter* limiter, IoStats* stats) {
  auto writer = WritableFile::OpenForAppend(path, limiter, stats);
  if (!writer.ok()) return writer.status();
  auto manager = std::unique_ptr<StorageManager>(
      new StorageManager(path, std::move(*writer), limiter, stats));
  manager->next_offset_ = manager->writer_->bytes_written();
  return manager;
}

StorageManager::StorageManager(std::string path,
                               std::unique_ptr<WritableFile> writer,
                               RateLimiter* limiter, IoStats* stats)
    : path_(std::move(path)),
      limiter_(limiter),
      stats_(stats),
      writer_(std::move(writer)) {}

Result<StoredSegment> StorageManager::WriteSegment(
    const BinaryChunk& chunk, const std::vector<size_t>& columns) {
  std::string blob;
  const int64_t t0 = RealClock::Instance()->NowNanos();
  SCANRAW_RETURN_IF_ERROR(SerializeChunkColumns(chunk, columns, &blob));

  MutexLock lock(write_mu_);
  StoredSegment segment;
  segment.page.offset = next_offset_;
  segment.page.size = blob.size();
  segment.columns = columns;
  FaultKillPoint("storage.write_segment.before_append");
  Status append_status = writer_->Append(blob);
  if (!append_status.ok()) {
    // A failed append may still have written a torn prefix (ENOSPC mid
    // write). Resync so the next segment's recorded offset matches the
    // real end of the file instead of overlapping the torn bytes.
    next_offset_ = writer_->bytes_written();
    return append_status;
  }
  FaultKillPoint("storage.write_segment.after_append");
  next_offset_ += blob.size();
  if (segments_metric_ != nullptr) segments_metric_->Add(1);
  if (bytes_metric_ != nullptr) bytes_metric_->Add(blob.size());
  if (write_nanos_metric_ != nullptr) {
    write_nanos_metric_->Record(
        static_cast<uint64_t>(RealClock::Instance()->NowNanos() - t0));
  }
  return segment;
}

Result<StoredSegment> StorageManager::WriteChunk(const BinaryChunk& chunk) {
  return WriteSegment(chunk, chunk.ColumnIds());
}

Status StorageManager::Sync() {
  MutexLock lock(write_mu_);
  return writer_->Sync();
}

Result<BinaryChunk> StorageManager::ReadSegment(const PageRef& page) const {
  {
    MutexLock lock(reader_mu_);
    if (reader_ == nullptr) {
      auto reader = RandomAccessFile::Open(path_, limiter_, stats_);
      if (!reader.ok()) return reader.status();
      reader_ = std::move(*reader);
    }
  }
  // Filled by the read, so left unzeroed.
  auto blob = std::make_unique_for_overwrite<char[]>(page.size);
  auto n = reader_->ReadAt(page.offset, page.size, blob.get());
  if (!n.ok()) return n.status();
  if (*n != page.size) {
    return Status::Corruption(StringPrintf(
        "short read of segment at %llu: got %zu of %llu bytes",
        static_cast<unsigned long long>(page.offset), *n,
        static_cast<unsigned long long>(page.size)));
  }
  return DeserializeChunk(std::string_view(blob.get(), page.size));
}

Status StorageManager::VerifySegment(const PageRef& page) const {
  if (page.offset + page.size > bytes_written()) {
    return Status::Corruption(StringPrintf(
        "segment [%llu, +%llu) extends past storage end %llu",
        static_cast<unsigned long long>(page.offset),
        static_cast<unsigned long long>(page.size),
        static_cast<unsigned long long>(bytes_written())));
  }
  auto chunk = ReadSegment(page);
  return chunk.ok() ? Status::OK() : chunk.status();
}

Result<BinaryChunk> StorageManager::ReadChunkColumns(
    const ChunkMetadata& chunk_meta, const std::vector<size_t>& columns) const {
  if (!chunk_meta.HasColumnsLoaded(columns)) {
    return Status::NotFound(StringPrintf(
        "chunk %llu does not have all requested columns loaded",
        static_cast<unsigned long long>(chunk_meta.chunk_index)));
  }
  BinaryChunk merged(chunk_meta.chunk_index);
  std::set<size_t> needed(columns.begin(), columns.end());
  for (const StoredSegment& seg : chunk_meta.segments) {
    if (needed.empty()) break;
    bool relevant = false;
    for (size_t c : seg.columns) {
      if (needed.count(c)) {
        relevant = true;
        break;
      }
    }
    if (!relevant) continue;
    auto part = ReadSegment(seg.page);
    if (!part.ok()) return part.status();
    SCANRAW_RETURN_IF_ERROR(merged.MergeColumnsFrom(std::move(*part)));
    for (size_t c : seg.columns) needed.erase(c);
  }
  // Segments may carry extra columns beyond the requested set; they are kept
  // since callers address columns by id.
  return merged;
}

uint64_t StorageManager::bytes_written() const {
  MutexLock lock(write_mu_);
  return next_offset_;
}

void StorageManager::BindMetrics(obs::Counter* segments_written,
                                 obs::Counter* bytes,
                                 obs::Histogram* write_nanos) {
  MutexLock lock(write_mu_);
  segments_metric_ = segments_written;
  bytes_metric_ = bytes;
  write_nanos_metric_ = write_nanos;
}

}  // namespace scanraw
