// Restart reconciliation: after Catalog::LoadFromFile +
// StorageManager::OpenExisting, cross-validate every recorded segment
// against the storage file. Segments past the storage EOF (a crash between
// catalog save and data sync under a legacy writer, or external truncation)
// or failing the chunk checksum (torn append at the tail) are dropped; the
// affected chunk reverts to not-loaded and is simply re-extracted from the
// raw file on the next scan — in-situ processing makes that the cheap, safe
// fallback (§3.3).
#ifndef SCANRAW_DB_RECOVERY_H_
#define SCANRAW_DB_RECOVERY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "db/catalog.h"
#include "db/storage_manager.h"
#include "format/posmap_serde.h"
#include "obs/workload_history.h"

namespace scanraw {

struct ReconcileReport {
  size_t tables = 0;
  size_t segments_checked = 0;
  size_t segments_dropped = 0;  // past EOF or failed checksum
  size_t chunks_reverted = 0;   // chunks that lost >= 1 loaded column
  size_t posmaps_dropped = 0;   // posmap sidecars torn/stale/mismatched
  std::vector<std::string> details;  // one human-readable line per drop

  // Posmap drops do not make a recovery unclean: the maps are derived data
  // and the table simply re-tokenizes.
  bool clean() const { return segments_dropped == 0; }
};

// Validates the whole catalog against `storage` and rewrites the catalog
// (via Snapshot/Restore) without the dropped segments. When
// `verify_checksums` is true every in-bounds segment is also deserialized
// so its checksum is checked; otherwise only the EOF bound is enforced.
ReconcileReport ReconcileCatalogWithStorage(Catalog& catalog,
                                            const StorageManager& storage,
                                            bool verify_checksums);

// Restart reconciliation for the workload-intelligence state: history
// entries for tables the catalog no longer knows (dropped, or the catalog
// was rebuilt from scratch) would keep steering the advisor toward data
// that cannot be loaded, so they are removed. Returns the number of tables
// dropped from the history.
uint64_t ReconcileHistoryWithCatalog(obs::WorkloadHistory& history,
                                     const Catalog& catalog);

// A decoded-and-validated positional-map sidecar: the dialect the maps were
// built under plus the per-chunk maps themselves, ready to pre-populate a
// PositionalMapCache.
struct PosmapSidecar {
  PosmapDialect dialect;
  std::vector<std::pair<uint64_t, std::shared_ptr<const PositionalMap>>>
      entries;
};

// Sidecar path convention: `<catalog>.posmap.<table>` next to the catalog.
std::string PosmapSidecarPath(const std::string& catalog_path,
                              const std::string& table);

// Posmap reconciliation: reads and validates the sidecar at `path` for
// `table`. Returns NotFound when no sidecar exists, and Corruption when the
// sidecar is torn, records a different table, or no longer matches the raw
// file's exact stat (size + mtime) — a stale index must be dropped, never
// reused. Entries whose chunk index or row count disagree with the catalog
// layout, or with a field span outside start <= end <= the chunk's
// raw_size, are skipped individually, and so is every entry while the
// layout is unknown. The returned dialect still needs
// checking against the live TokenizeOptions at attach time (options attach
// after catalog load).
Result<PosmapSidecar> LoadPosmapSidecar(const std::string& path,
                                        const TableMetadata& table);

}  // namespace scanraw

#endif  // SCANRAW_DB_RECOVERY_H_
