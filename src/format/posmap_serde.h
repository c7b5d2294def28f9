// Positional-map sidecar (de)serialization. A sidecar persists one table's
// per-chunk PositionalMaps next to the catalog (`<catalog>.posmap.<table>`)
// so a warm restart can skip TOKENIZE entirely for chunks it mapped before.
//
// The format (v2) is versioned and checksummed: a magic line, a binary
// header recording the *exact* stat of the raw file (size + mtime in
// nanoseconds) and the tokenize dialect the maps were built under, then one
// record per chunk (each with its own CRC32C over the offset payload), and
// a whole-file CRC32C footer; each sum sits in a 64-bit slot. A v1 sidecar
// (FNV-1a sums) fails the magic check and is dropped. A sidecar whose stat
// or dialect no longer matches the live table is stale and must be dropped,
// never reused — a positional map is only meaningful against the
// byte-identical raw file and the same delimiter/quote rules it was built
// from.
//
// This module is pure bytes<->structs; file I/O and validation against the
// catalog live in src/db/recovery.cc.
#ifndef SCANRAW_FORMAT_POSMAP_SERDE_H_
#define SCANRAW_FORMAT_POSMAP_SERDE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "format/positional_map.h"

namespace scanraw {

// The subset of TokenizeOptions that determines where field boundaries fall.
// Two maps built under different dialects are not interchangeable even for
// the same bytes (a quoted comma is a delimiter in one and data in the
// other), so the dialect is persisted in the sidecar header and checked both
// at load time and on every cache lookup.
struct PosmapDialect {
  char delimiter = ',';
  bool quoted = false;
  char quote = '"';

  friend bool operator==(const PosmapDialect& a, const PosmapDialect& b) {
    return a.delimiter == b.delimiter && a.quoted == b.quoted &&
           a.quote == b.quote;
  }
  friend bool operator!=(const PosmapDialect& a, const PosmapDialect& b) {
    return !(a == b);
  }
};

struct PosmapSidecarHeader {
  std::string table;
  uint64_t raw_size = 0;       // exact byte size of the raw file at save time
  int64_t raw_mtime_nanos = 0; // exact mtime (ns) of the raw file at save time
  PosmapDialect dialect;
};

struct PosmapSidecarEntry {
  uint64_t chunk_index = 0;
  std::shared_ptr<const PositionalMap> map;
};

// Serializes header + entries into the sidecar byte format described above.
// Null maps are skipped.
std::string EncodePosmapSidecar(const PosmapSidecarHeader& header,
                                const std::vector<PosmapSidecarEntry>& entries);

// Parses a sidecar produced by EncodePosmapSidecar. Returns Corruption on a
// bad magic, unknown version, truncation, or any checksum mismatch — a torn
// or bit-rotted sidecar never yields partial entries. On success `*header`
// holds the persisted stat + dialect for the caller to validate.
Result<std::vector<PosmapSidecarEntry>> DecodePosmapSidecar(
    std::string_view data, PosmapSidecarHeader* header);

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_POSMAP_SERDE_H_
