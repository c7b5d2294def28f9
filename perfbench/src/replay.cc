// Per-layer replays for the traced run. Each chunk extent the discovery scan
// recorded is read back with RandomAccessFile, its records are discovered,
// tokenized (sequentially and across the worker pool), parsed, serialized
// and deserialized, and stored through StorageManager under the disk
// arbiter's writer role; the stored table is then read back through
// HeapScanStream. Each step is timed on its own. The same bytes also give
// the ceilings: a bare read() loop over the file, FindByte('\n'), and a
// memcpy pass that parses nothing.
#include <fcntl.h>
#include <unistd.h>

#include <cstring>

#include "bench.h"
#include <numeric>

#include "columnar/chunk_serde.h"
#include "common/byte_scan.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/tokenizer.h"
#include "io/file.h"
#include "pipeline/thread_pool.h"
#include "scanraw/scanraw_manager.h"

namespace perfbench {
namespace {

// Bare read() loop over the whole file: the page-cache read ceiling.
Result<double> CeilingReadMbPerSec(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  std::vector<char> buffer(1 << 20);
  uint64_t total = 0;
  const int64_t t0 = NowNanos();
  while (true) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n < 0) {
      ::close(fd);
      return Status::IoError("read failed: " + path);
    }
    if (n == 0) break;
    total += static_cast<uint64_t>(n);
  }
  const int64_t elapsed = NowNanos() - t0;
  ::close(fd);
  return static_cast<double>(total) / 1e6 / Seconds(elapsed);
}

struct Totals {
  uint64_t bytes = 0;
  uint64_t rows = 0;
  uint64_t fields = 0;
  uint64_t binary_bytes = 0;
  uint64_t newlines_seen = 0;
  int64_t read_ns = 0;
  int64_t discover_ns = 0;
  int64_t tokenize_ns = 0;
  int64_t tokenize_parallel_ns = 0;
  int64_t parse_ns = 0;
  int64_t serialize_ns = 0;
  int64_t deserialize_ns = 0;
  int64_t findbyte_ns = 0;
  int64_t memcpy_ns = 0;
  int64_t heap_scan_ns = 0;
  scanraw::SpeculationStats speculation;
};

}  // namespace

Result<Metrics> ReplayLayers(const ReplayInput& input) {
  using namespace scanraw;
  auto file = RandomAccessFile::Open(input.path);
  if (!file.ok()) return file.status();
  ThreadPool pool(input.num_workers);
  RecordScanOptions scan_options;
  scan_options.dialect.quoted = input.quoted;
  scan_options.pool = &pool;
  TokenizeOptions tokenize_options;
  tokenize_options.delimiter = input.schema.delimiter();
  tokenize_options.schema_fields = input.schema.num_columns();
  tokenize_options.quoted = input.quoted;
  ParallelTokenizeOptions parallel_options;
  parallel_options.pool = &pool;
  ParseOptions parse_options;
  parse_options.unescape_quotes = input.quoted;
  DiskArbiter arbiter;
  auto storage = StorageManager::Create(input.db_path);
  if (!storage.ok()) return storage.status();
  TableMetadata table;
  table.name = "replay";
  table.raw_path = input.path;
  table.schema = input.schema;
  table.layout_known = true;

  Totals t;
  std::string scratch;
  std::string serialized;
  for (const auto& [offset, size] : input.extents) {
    std::string data(size, '\0');
    int64_t t0 = NowNanos();
    auto n = (*file)->ReadAt(offset, size, data.data());
    t.read_ns += NowNanos() - t0;
    if (!n.ok()) return n.status();
    if (*n != size) return Status::IoError("short read in replay");
    t.bytes += size;

    std::vector<uint32_t> newlines;
    t0 = NowNanos();
    ParallelFindRecordNewlines(data.data(), 0, data.size(), false,
                               scan_options, &t.speculation, &newlines);
    t.discover_ns += NowNanos() - t0;
    std::vector<uint32_t> starts;
    starts.reserve(newlines.size() + 1);
    starts.push_back(0);
    for (uint32_t nl : newlines) {
      if (nl + 1 < data.size()) starts.push_back(nl + 1);
    }
    TextChunk chunk = MakeTextChunk(std::move(data), std::move(starts),
                                    table.chunks.size(), offset);
    t.rows += chunk.num_rows();
    t.fields += chunk.num_rows() * input.schema.num_columns();

    t0 = NowNanos();
    auto map = TokenizeChunk(chunk, tokenize_options);
    t.tokenize_ns += NowNanos() - t0;
    if (!map.ok()) return map.status();
    SpeculationStats tokenize_stats;
    t0 = NowNanos();
    auto parallel_map = ParallelTokenizeChunk(chunk, tokenize_options,
                                              parallel_options, &tokenize_stats);
    t.tokenize_parallel_ns += NowNanos() - t0;
    if (!parallel_map.ok()) return parallel_map.status();

    t0 = NowNanos();
    auto binary = ParseChunk(chunk, *map, input.schema, parse_options);
    t.parse_ns += NowNanos() - t0;
    if (!binary.ok()) return binary.status();

    serialized.clear();
    t0 = NowNanos();
    SCANRAW_RETURN_IF_ERROR(SerializeChunk(*binary, &serialized));
    t.serialize_ns += NowNanos() - t0;
    t.binary_bytes += serialized.size();
    t0 = NowNanos();
    auto restored = DeserializeChunk(serialized);
    t.deserialize_ns += NowNanos() - t0;
    if (!restored.ok()) return restored.status();
    if (restored->num_rows() != binary->num_rows()) {
      return Status::Corruption("serde round trip changed the row count");
    }

    auto segment = [&] {
      ScopedDiskAccess disk(&arbiter, DiskUser::kWriter);
      return (*storage)->WriteChunk(*binary);
    }();
    if (!segment.ok()) return segment.status();
    ChunkMetadata meta;
    meta.chunk_index = table.chunks.size();
    meta.raw_offset = offset;
    meta.raw_size = size;
    meta.num_rows = binary->num_rows();
    meta.loaded_columns.insert(segment->columns.begin(),
                               segment->columns.end());
    meta.segments.push_back(std::move(*segment));
    table.chunks.push_back(std::move(meta));

    t0 = NowNanos();
    for (size_t pos = 0; pos < chunk.data.size(); ++pos) {
      pos = bytescan::FindByte(chunk.data.data(), pos, chunk.data.size(), '\n');
      if (pos == bytescan::kNpos) break;
      ++t.newlines_seen;
    }
    t.findbyte_ns += NowNanos() - t0;
    scratch.resize(chunk.data.size());
    t0 = NowNanos();
    std::memcpy(scratch.data(), chunk.data.data(), chunk.data.size());
    t.memcpy_ns += NowNanos() - t0;
    // Reading the copy back keeps the compiler from dropping the memcpy.
    if (scratch.back() != chunk.data.back()) {
      return Status::Internal("memcpy ceiling pass lost bytes");
    }
  }
  if (t.rows != input.expected_rows) {
    return Status::Corruption("replay found " + std::to_string(t.rows) +
                              " records, expected " +
                              std::to_string(input.expected_rows));
  }
  if (t.newlines_seen < t.rows) {
    return Status::Corruption("FindByte saw fewer newlines than records");
  }
  SCANRAW_RETURN_IF_ERROR((*storage)->Sync());
  std::vector<size_t> columns(input.schema.num_columns());
  std::iota(columns.begin(), columns.end(), size_t{0});
  HeapScanStream heap(table, storage->get(), columns);
  uint64_t heap_rows = 0;
  while (true) {
    const int64_t t0 = NowNanos();
    auto next = heap.Next();
    t.heap_scan_ns += NowNanos() - t0;
    if (!next.ok()) return next.status();
    if (!next->has_value()) break;
    heap_rows += (**next)->num_rows();
  }
  if (heap_rows != t.rows) {
    return Status::Corruption("heap scan of the replayed table lost rows");
  }
  auto read_ceiling = CeilingReadMbPerSec(input.path);
  if (!read_ceiling.ok()) return read_ceiling.status();

  const double mb = static_cast<double>(t.bytes) / 1e6;
  const double gb = mb / 1e3;
  const double fields = static_cast<double>(t.fields);
  const double binary_mb = static_cast<double>(t.binary_bytes) / 1e6;
  const auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  Metrics m;
  m.push_back({"io.read_mb_s", mb / Seconds(t.read_ns), "MB/s"});
  m.push_back({"io.ceiling_read_mb_s", *read_ceiling, "MB/s"});
  m.push_back({"format.discover_ms", Millis(t.discover_ns), "ms"});
  m.push_back({"format.tokenize_ns_per_field",
               static_cast<double>(t.tokenize_ns) / fields, "ns"});
  m.push_back({"format.tokenize_parallel_ns_per_field",
               static_cast<double>(t.tokenize_parallel_ns) / fields, "ns"});
  m.push_back({"format.parse_ns_per_field",
               static_cast<double>(t.parse_ns) / fields, "ns"});
  m.push_back({"format.misspeculation_ratio",
               ratio(t.speculation.misspeculations, t.speculation.ranges),
               "ratio"});
  m.push_back({"format.misspeculation_base",
               static_cast<double>(t.speculation.ranges), "count"});
  m.push_back({"format.repair_bytes",
               static_cast<double>(t.speculation.repair_bytes), "bytes"});
  m.push_back({"format.ceiling_findbyte_gb_s", gb / Seconds(t.findbyte_ns),
               "GB/s"});
  m.push_back({"format.ceiling_memcpy_gb_s", gb / Seconds(t.memcpy_ns),
               "GB/s"});
  m.push_back({"columnar.serialize_mb_s", binary_mb / Seconds(t.serialize_ns),
               "MB/s"});
  m.push_back({"columnar.deserialize_mb_s",
               binary_mb / Seconds(t.deserialize_ns), "MB/s"});
  m.push_back({"db.heap_scan_ms", Millis(t.heap_scan_ns), "ms"});
  m.push_back({"io.arbiter_writer_wait_ms", Millis(arbiter.writer_wait_nanos()),
               "ms"});
  m.push_back({"io.arbiter_writer_busy_ms", Millis(arbiter.writer_busy_nanos()),
               "ms"});
  return m;
}

}  // namespace perfbench
