// Configuration for the ScanRaw operator, including the WRITE scheduling
// policy that selects between the paper's operating regimes (§3, §4).
#ifndef SCANRAW_SCANRAW_OPTIONS_H_
#define SCANRAW_SCANRAW_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace scanraw {

namespace obs {
class Telemetry;
struct QueryProgress;
class QueryLog;
class LoadAdvisor;
}

// WRITE scheduling policy (§3.1: "The scheduling policy for WRITE dictates
// the SCANRAW behavior").
enum class LoadPolicy : int {
  // Never write: ScanRaw is a parallel external-table operator.
  kExternalTables = 0,
  // Write every converted chunk: ScanRaw degenerates into a parallel ETL
  // operator ("load & process" in the evaluation).
  kFullLoad = 1,
  // Write only when the disk is idle (READ blocked on a full text buffer),
  // plus the end-of-scan safeguard flush. The paper's contribution (§4).
  kSpeculativeLoading = 2,
  // Write a fixed number of chunks per query regardless of resource
  // utilization — the invisible-loading baseline [4].
  kInvisibleLoading = 3,
  // Write chunks only when they are evicted from a full binary cache — the
  // buffered-loading baseline (NoDB + flush-on-full, [10]).
  kBufferedLoading = 4,
};

std::string_view LoadPolicyName(LoadPolicy policy);

// Physical encoding of the raw file. Each format supplies its own TOKENIZE
// worker; PARSE and everything downstream are shared (§5: "adding support
// for other file formats requires only the implementation of specific
// TOKENIZE and PARSE workers without changing the basic architecture").
enum class RawFormat : int {
  // Delimiter-separated text (CSV, TSV, SAM, ...), delimiter from the
  // schema.
  kDelimitedText = 0,
  // One flat JSON object per line, one member per schema column.
  kJsonLines = 1,
};

struct ScanRawOptions {
  LoadPolicy policy = LoadPolicy::kSpeculativeLoading;

  RawFormat raw_format = RawFormat::kDelimitedText;

  // Cap on how many of a query's READ, TOKENIZE and PARSE tasks run at once
  // on the process-wide worker pool (ThreadPool::Shared). 0 means fully
  // sequential: the consumer's Next() runs every step itself (Figure 4's
  // leftmost configuration).
  size_t num_workers = 8;

  // RFC-4180 quoted-field dialect for delimited text: fields may be quoted,
  // with embedded delimiters, doubled-quote escapes, and quoted newlines.
  // Record discovery and TOKENIZE share one quote-parity FSM; PARSE
  // collapses doubled quotes in string fields.
  bool quoted_fields = false;

  // Text buffer capacity, in chunks: READ only reads, and a raw chunk holds
  // a text-buffer slot from READ's claim until its PARSE returns, because
  // PARSE reads the text. READ stops when a query holds this many raw
  // chunks; that is "READ blocked", where §4's speculative-WRITE trigger is
  // checked. The bound also caps the position buffer (every tokenized chunk
  // still holds its slot) and the raw text in memory, which a cheap READ
  // would otherwise fill by running ahead of conversion.
  size_t text_buffer_capacity = 3;
  // Output buffer capacity, in converted chunks waiting for the engine.
  size_t output_buffer_capacity = 8;

  // Binary chunk cache capacity, in chunks (0 disables caching). Eviction
  // is the paper's biased LRU: already-loaded chunks go first.
  size_t cache_capacity_chunks = 32;

  // Lines per chunk for the first (layout-discovery) scan.
  uint64_t chunk_rows = 1 << 16;

  // kInvisibleLoading: chunks written per query.
  size_t invisible_chunks_per_query = 2;

  // End-of-scan safeguard flush (§4). On by default for speculative
  // loading; exposed for the ablation bench.
  bool safeguard_enabled = true;

  // Durability: fsync the storage file after each segment append, before
  // the catalog records the segment. Keeps the write-ordering invariant
  // (the catalog never points at unsynced bytes) even if the process dies
  // between the append and the next catalog save.
  bool sync_segment_writes = true;

  // Cache positional maps across queries so re-scans of raw chunks skip or
  // shorten TOKENIZE (§2's positional map; off by default per the §3.1
  // argument that binary-chunk caching dominates it).
  bool cache_positional_maps = false;
  // Chunk bound of the positional-map cache; a fixed 64 MiB byte bound
  // applies alongside it.
  size_t positional_map_cache_chunks = 64;

  // Persist the positional-map cache to a sidecar file next to the catalog
  // (`<catalog>.posmap.<table>`) so a restarted process skips TOKENIZE for
  // chunks it mapped before. Sidecars are written through AtomicWriteFile
  // after cold scans and on catalog saves, and validated (exact raw-file
  // stat + tokenize dialect) before reuse. Implies nothing unless
  // cache_positional_maps is also on.
  bool persist_positional_maps = false;
  // Where this operator saves its sidecar after cold scans. Normally set by
  // ScanRawManager from the catalog path; explicit for tests. Empty
  // disables the after-cold-scan save hook (manager-driven saves on
  // SaveCatalog still happen).
  std::string posmap_sidecar_path;

  // Telemetry sink: registry-backed stage metrics, heartbeats and
  // resource-advice sampling all record here. The ScanRawManager fills
  // this in with its own sink when left null; set explicitly to share a
  // sink across managers or to a standalone obs::Telemetry in tests.
  obs::Telemetry* telemetry = nullptr;

  // Period of the §3.3 resource-advice sample each running query takes on
  // the process's ticker (pipeline/ticker.h); 0 = none. Requires
  // `telemetry`. A query also takes one sample when it starts and one when
  // it ends, so short queries still leave a series. Queries on a retired
  // table (the manager's heap scan) take none: there is no pipeline,
  // buffers or workers to sample.
  int resource_sample_interval_ms = 0;

  // Live progress: when set, each running query invokes this callback at
  // start, every `progress_interval_ms` on the process's ticker and at its
  // end, with bytes processed vs. total, chunks delivered/loaded, rolling
  // throughput, and an ETA. A query on a retired table reports only at its
  // start and end. It shares the ticker with the stall watchdog, so it must
  // not block: print a line, or copy the report and return.
  std::function<void(const obs::QueryProgress&)> progress_callback;
  int progress_interval_ms = 200;

  // Persistent query event log: when set, ExecuteQuery appends one event
  // per query (spec, stage timings, provenance, speculative payoff). A
  // logged query does not wait for its background writes. Each write is
  // credited to the query running when it lands, so an event counts every
  // write that landed while its query ran, an earlier query's flush
  // included, and not the writes of its own flush that land later. The
  // log outlives the operator; not owned.
  obs::QueryLog* query_log = nullptr;

  // History-driven speculative loading: when set, the WRITE stage under
  // kSpeculativeLoading stores only the advisor's hot-column subset of
  // each chunk, in rank order, instead of every converted column. Query
  // results are byte-identical either way — columns the advisor skips are
  // simply re-extracted from the raw side until a later query loads them.
  // Shared so the advisor (and its history) can outlive operator retirement.
  std::shared_ptr<const obs::LoadAdvisor> advisor;
};

}  // namespace scanraw

#endif  // SCANRAW_SCANRAW_OPTIONS_H_
