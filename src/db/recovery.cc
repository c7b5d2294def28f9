#include "db/recovery.h"

#include <set>
#include <utility>

#include "common/string_util.h"
#include "io/file.h"

namespace scanraw {

ReconcileReport ReconcileCatalogWithStorage(Catalog& catalog,
                                            const StorageManager& storage) {
  ReconcileReport report;
  auto tables = catalog.Snapshot();
  const uint64_t storage_end = storage.bytes_written();
  bool changed = false;

  for (auto& [name, table] : tables) {
    ++report.tables;
    for (ChunkMetadata& chunk : table.chunks) {
      std::vector<StoredSegment> kept;
      kept.reserve(chunk.segments.size());
      bool dropped_any = false;
      for (const StoredSegment& seg : chunk.segments) {
        ++report.segments_checked;
        const Status ok =
            seg.page.offset + seg.page.size > storage_end
                ? Status::Corruption(StringPrintf(
                      "past storage end %llu",
                      static_cast<unsigned long long>(storage_end)))
                : storage.VerifySegment(seg.page);
        if (ok.ok()) {
          kept.push_back(seg);
          continue;
        }
        ++report.segments_dropped;
        dropped_any = true;
        report.details.push_back(StringPrintf(
            "%s chunk %llu: dropped segment [%llu, +%llu): %s", name.c_str(),
            static_cast<unsigned long long>(chunk.chunk_index),
            static_cast<unsigned long long>(seg.page.offset),
            static_cast<unsigned long long>(seg.page.size),
            std::string(ok.message()).c_str()));
      }
      if (!dropped_any) continue;
      changed = true;
      const size_t loaded_before = chunk.loaded_columns.size();
      chunk.segments = std::move(kept);
      chunk.loaded_columns.clear();
      for (const StoredSegment& seg : chunk.segments) {
        for (size_t c : seg.columns) chunk.loaded_columns.insert(c);
      }
      if (chunk.loaded_columns.size() < loaded_before) {
        ++report.chunks_reverted;
      }
    }
  }

  if (changed) catalog.Restore(std::move(tables));
  return report;
}

uint64_t ReconcileHistoryWithCatalog(obs::WorkloadHistory& history,
                                     const Catalog& catalog) {
  std::set<std::string> keep;
  for (const auto& [name, table] : catalog.Snapshot()) keep.insert(name);
  return history.DropTablesNotIn(keep);
}

std::string PosmapSidecarPath(const std::string& catalog_path,
                              const std::string& table) {
  return catalog_path + ".posmap." + table;
}

namespace {

// True when every field of `map` spans start <= end <= chunk_size.
bool SpansWithin(const PositionalMap& map, uint64_t chunk_size) {
  for (size_t r = 0; r < map.num_rows(); ++r) {
    for (size_t f = 0; f < map.fields_per_row(); ++f) {
      const uint32_t end = map.FieldEnd(r, f);
      if (map.FieldStart(r, f) > end || end > chunk_size) return false;
    }
  }
  return true;
}

}  // namespace

Result<PosmapSidecar> LoadPosmapSidecar(const std::string& path,
                                        const TableMetadata& table) {
  if (!FileExists(path)) {
    return Status::NotFound("no posmap sidecar at " + path);
  }
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();

  PosmapSidecarHeader header;
  auto decoded = DecodePosmapSidecar(*data, &header);
  if (!decoded.ok()) return decoded.status();
  if (header.table != table.name) {
    return Status::Corruption(StringPrintf(
        "posmap sidecar records table '%s', expected '%s'",
        header.table.c_str(), table.name.c_str()));
  }

  // Exact-stat check: a positional map indexes byte offsets into the raw
  // file, so any change to the file (size or mtime) invalidates the whole
  // sidecar. This mirrors vroom's reopen rule: match exactly or re-index.
  auto stat = StatFile(table.raw_path);
  if (!stat.ok()) return stat.status();
  if (stat->size != header.raw_size ||
      stat->mtime_nanos != header.raw_mtime_nanos) {
    return Status::Corruption(StringPrintf(
        "posmap sidecar stale: raw file is %llu bytes mtime %lld, "
        "sidecar recorded %llu bytes mtime %lld",
        static_cast<unsigned long long>(stat->size),
        static_cast<long long>(stat->mtime_nanos),
        static_cast<unsigned long long>(header.raw_size),
        static_cast<long long>(header.raw_mtime_nanos)));
  }

  PosmapSidecar sidecar;
  sidecar.dialect = header.dialect;
  sidecar.entries.reserve(decoded->size());
  for (auto& entry : *decoded) {
    // A persisted map goes straight to PARSE, which reads every span it
    // holds, so it must fit the catalog's chunk: the chunk exists, the row
    // counts agree and every span lies inside the chunk's bytes. Checksums
    // alone prove none of that. A map that fails (or any map while the
    // layout is unknown, when nothing can check it) is skipped
    // individually — the rest of the sidecar is still good.
    if (!table.layout_known || entry.chunk_index >= table.chunks.size()) {
      continue;
    }
    const ChunkMetadata& chunk = table.chunks[entry.chunk_index];
    if (entry.map->num_rows() != chunk.num_rows ||
        !SpansWithin(*entry.map, chunk.raw_size)) {
      continue;
    }
    sidecar.entries.emplace_back(entry.chunk_index, std::move(entry.map));
  }
  return sidecar;
}

}  // namespace scanraw
