// Cache for per-chunk positional maps (§2: "when the vector is passed to
// PARSE, it is also cached in memory"). The paper argues this cache is
// less valuable than the binary chunk cache (§3.1) — it cannot avoid
// reading or parsing — so it is off by default and bounded separately;
// when enabled it lets a re-scan of a raw chunk skip TOKENIZE entirely, or
// extend a partial map instead of rescanning the line prefix.
//
// Entries are dialect-tagged: a map is only valid against the exact
// delimiter/quote rules it was built under, so a lookup under a different
// dialect drops the entry rather than silently reusing it. Eviction is FIFO
// by insertion order, bounded by both entry count and a running byte total;
// widening an entry (replacing a partial map with a wider one) refreshes its
// FIFO position, since the widened map represents fresh tokenize work.
#ifndef SCANRAW_SCANRAW_POSITIONAL_MAP_CACHE_H_
#define SCANRAW_SCANRAW_POSITIONAL_MAP_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "format/posmap_serde.h"
#include "format/positional_map.h"
#include "obs/metrics.h"

namespace scanraw {

// Where a cached map came from: built by this process's TOKENIZE stage, or
// loaded from a persisted sidecar at startup. Surfaced per-chunk so EXPLAIN
// can report `posmap-disk` provenance for warm-restart scans.
enum class PosmapOrigin : uint8_t { kBuilt = 0, kDisk = 1 };

class PositionalMapCache {
 public:
  // `capacity_chunks` == 0 disables the cache entirely. `capacity_bytes`
  // == 0 means no byte bound (entry-count bound only).
  explicit PositionalMapCache(size_t capacity_chunks,
                              size_t capacity_bytes = 0)
      : capacity_(capacity_chunks), capacity_bytes_(capacity_bytes) {}

  // Returns the cached map for `chunk_index`, or nullptr. The map may be
  // partial — the caller checks fields_per_row(). An entry whose dialect
  // does not match `dialect` is stale (e.g. --quoted-csv toggled between
  // runs): it is dropped and the lookup counts as a miss. On a hit,
  // `*origin` (if non-null) reports the entry's provenance.
  std::shared_ptr<const PositionalMap> Lookup(
      uint64_t chunk_index, const PosmapDialect& dialect,
      PosmapOrigin* origin = nullptr) EXCLUDES(mu_) {
    Dropped dropped;
    MutexLock lock(mu_);
    auto it = entries_.find(chunk_index);
    if (it != entries_.end() && it->second.dialect != dialect) {
      dialect_drops_.fetch_add(1, std::memory_order_relaxed);
      if (dialect_drop_counter_ != nullptr) dialect_drop_counter_->Add(1);
      dropped.push_back(EraseLocked(it));
      it = entries_.end();
    }
    if (it == entries_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (miss_counter_ != nullptr) miss_counter_->Add(1);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_counter_ != nullptr) hit_counter_->Add(1);
    if (it->second.origin == PosmapOrigin::kDisk &&
        disk_hit_counter_ != nullptr) {
      disk_hit_counter_->Add(1);
    }
    if (origin != nullptr) *origin = it->second.origin;
    return it->second.map;
  }

  // Stores (or widens) the map for a chunk. Within one dialect a narrower
  // map never replaces a wider one; a dialect change replaces the entry
  // outright (the old map is useless under the new rules). Widening counts
  // as a fresh insertion for eviction purposes: the entry's FIFO position is
  // refreshed and the byte growth is charged against the byte bound.
  void Insert(uint64_t chunk_index, std::shared_ptr<const PositionalMap> map,
              const PosmapDialect& dialect,
              PosmapOrigin origin = PosmapOrigin::kBuilt) EXCLUDES(mu_) {
    if (capacity_ == 0 || map == nullptr) return;
    const size_t incoming_bytes = map->MemoryBytes();
    Dropped dropped;
    MutexLock lock(mu_);
    auto it = entries_.find(chunk_index);
    if (it != entries_.end()) {
      Entry& entry = it->second;
      if (entry.dialect == dialect &&
          map->fields_per_row() <= entry.map->fields_per_row()) {
        return;
      }
      bytes_ -= entry.map->MemoryBytes();
      bytes_ += incoming_bytes;
      dropped.push_back(std::move(entry.map));
      entry.map = std::move(map);
      entry.dialect = dialect;
      entry.origin = origin;
      fifo_.splice(fifo_.end(), fifo_, entry.fifo_pos);
      EvictLocked(chunk_index, &dropped);
      return;
    }
    // Make room first so the new entry itself is never the eviction victim.
    while (!fifo_.empty() &&
           (entries_.size() >= capacity_ ||
            (capacity_bytes_ > 0 && bytes_ + incoming_bytes > capacity_bytes_))) {
      dropped.push_back(EraseLocked(entries_.find(fifo_.front())));
    }
    Entry entry;
    entry.map = std::move(map);
    entry.dialect = dialect;
    entry.origin = origin;
    entry.fifo_pos = fifo_.insert(fifo_.end(), chunk_index);
    bytes_ += incoming_bytes;
    entries_.emplace(chunk_index, std::move(entry));
  }

  // All entries matching `dialect`, in chunk order — the persistence path's
  // view of the cache. Entries under other dialects are skipped (they are
  // about to be dropped by Lookup anyway).
  std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
  Snapshot(const PosmapDialect& dialect) const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>> out;
    out.reserve(entries_.size());
    for (const auto& [index, entry] : entries_) {
      if (entry.dialect == dialect) out.emplace_back(index, entry.map);
    }
    return out;
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }

  // Running byte total of all cached maps, O(1).
  size_t MemoryBytes() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return bytes_;
  }

  // Lifetime lookup outcomes, for /metrics and tests. EXPLAIN's per-query
  // numbers are counted at the lookup sites instead (see ScanRaw), so
  // concurrent queries cannot pollute each other's reports.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t dialect_drops() const {
    return dialect_drops_.load(std::memory_order_relaxed);
  }

  // Optional registry counters. Bind during setup; pass nullptr to detach.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* disk_hits = nullptr,
                   obs::Counter* dialect_drops = nullptr) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    hit_counter_ = hits;
    miss_counter_ = misses;
    disk_hit_counter_ = disk_hits;
    dialect_drop_counter_ = dialect_drops;
  }

 private:
  struct Entry {
    std::shared_ptr<const PositionalMap> map;
    PosmapDialect dialect;
    PosmapOrigin origin = PosmapOrigin::kBuilt;
    std::list<uint64_t>::iterator fifo_pos;
  };

  // Maps leaving the cache, dropped only after mu_ is released: the last
  // reference to a map built in pooled slots returns them to the buffer
  // pool, whose lock ranks above this one. Declare before the MutexLock.
  using Dropped = std::vector<std::shared_ptr<const PositionalMap>>;

  // Erases the entry and hands its map to the caller.
  std::shared_ptr<const PositionalMap> EraseLocked(
      std::map<uint64_t, Entry>::iterator it) REQUIRES(mu_) {
    std::shared_ptr<const PositionalMap> map = std::move(it->second.map);
    bytes_ -= map->MemoryBytes();
    fifo_.erase(it->second.fifo_pos);
    entries_.erase(it);
    return map;
  }

  // Evicts until both bounds hold, never evicting `keep` (the entry that
  // was just widened — it sits at the FIFO tail, so it is only reachable
  // here when it is the sole entry left).
  void EvictLocked(uint64_t keep, Dropped* dropped) REQUIRES(mu_) {
    while (!fifo_.empty() && fifo_.front() != keep &&
           (entries_.size() > capacity_ ||
            (capacity_bytes_ > 0 && bytes_ > capacity_bytes_))) {
      dropped->push_back(EraseLocked(entries_.find(fifo_.front())));
    }
  }

  const size_t capacity_;
  const size_t capacity_bytes_;
  mutable Mutex mu_{LockRank::kPositionalMapCache, "PositionalMapCache.mu"};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> dialect_drops_{0};
  obs::Counter* hit_counter_ GUARDED_BY(mu_) = nullptr;
  obs::Counter* miss_counter_ GUARDED_BY(mu_) = nullptr;
  obs::Counter* disk_hit_counter_ GUARDED_BY(mu_) = nullptr;
  obs::Counter* dialect_drop_counter_ GUARDED_BY(mu_) = nullptr;
  size_t bytes_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, Entry> entries_ GUARDED_BY(mu_);
  std::list<uint64_t> fifo_ GUARDED_BY(mu_);
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_POSITIONAL_MAP_CACHE_H_
