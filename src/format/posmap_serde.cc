#include "format/posmap_serde.h"

#include <cstring>

#include "common/checksum.h"

namespace scanraw {
namespace {

// Bumped whenever the byte layout or checksum changes; decoders reject
// unknown versions (dropping the sidecar is always safe — the maps are
// rebuildable). v1 summed with FNV-1a, v2 with CRC32C.
constexpr std::string_view kMagic = "scanraw-posmap v2\n";

// Decode-side sanity bounds: a corrupt length field must not drive a huge
// allocation before the checksum gets a chance to reject the record.
constexpr uint64_t kMaxEntries = 1u << 24;          // chunks per table
constexpr uint64_t kMaxSlotsPerEntry = 1u << 30;    // u32 slots per map
constexpr uint64_t kMaxTableNameBytes = 1u << 16;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

// Cursor over the input; all Read* return false on truncation.
struct Reader {
  std::string_view data;
  size_t pos = 0;

  bool ReadBytes(void* out, size_t n) {
    if (data.size() - pos < n) return false;
    std::memcpy(out, data.data() + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
};

}  // namespace

std::string EncodePosmapSidecar(
    const PosmapSidecarHeader& header,
    const std::vector<PosmapSidecarEntry>& entries) {
  std::string out;
  out.append(kMagic);

  AppendU32(&out, static_cast<uint32_t>(header.table.size()));
  out.append(header.table);
  AppendU64(&out, header.raw_size);
  AppendU64(&out, static_cast<uint64_t>(header.raw_mtime_nanos));
  out.push_back(header.dialect.delimiter);
  out.push_back(header.dialect.quoted ? 1 : 0);
  out.push_back(header.dialect.quote);

  uint32_t count = 0;
  for (const auto& e : entries) {
    if (e.map != nullptr) ++count;
  }
  AppendU32(&out, count);

  for (const auto& e : entries) {
    if (e.map == nullptr) continue;
    const std::vector<uint32_t>& offsets = e.map->raw_offsets();
    AppendU64(&out, e.chunk_index);
    AppendU32(&out, static_cast<uint32_t>(e.map->fields_per_row()));
    out.push_back(e.map->explicit_ends() ? 1 : 0);
    AppendU64(&out, offsets.size());
    const std::string_view payload(
        reinterpret_cast<const char*>(offsets.data()),
        offsets.size() * sizeof(uint32_t));
    out.append(payload);
    AppendU64(&out, Crc32c(payload));
  }

  // Whole-file checksum: catches torn tails the per-entry sums cannot (e.g.
  // a truncated entry count) and doubles as an end-of-file marker.
  AppendU64(&out, Crc32c(out));
  return out;
}

Result<std::vector<PosmapSidecarEntry>> DecodePosmapSidecar(
    std::string_view data, PosmapSidecarHeader* header) {
  if (data.size() < kMagic.size() + sizeof(uint64_t) ||
      data.substr(0, kMagic.size()) != kMagic) {
    return Status::Corruption("posmap sidecar: bad magic or version");
  }
  const std::string_view body = data.substr(0, data.size() - sizeof(uint64_t));
  uint64_t footer = 0;
  std::memcpy(&footer, data.data() + body.size(), sizeof(footer));
  if (footer != Crc32c(body)) {
    return Status::Corruption("posmap sidecar: file checksum mismatch");
  }

  Reader r{body, kMagic.size()};
  uint32_t table_len = 0;
  if (!r.ReadU32(&table_len) || table_len > kMaxTableNameBytes ||
      body.size() - r.pos < table_len) {
    return Status::Corruption("posmap sidecar: truncated header");
  }
  header->table.assign(body.data() + r.pos, table_len);
  r.pos += table_len;

  uint64_t mtime = 0;
  char dialect[3];
  uint32_t count = 0;
  if (!r.ReadU64(&header->raw_size) || !r.ReadU64(&mtime) ||
      !r.ReadBytes(dialect, sizeof(dialect)) || !r.ReadU32(&count)) {
    return Status::Corruption("posmap sidecar: truncated header");
  }
  header->raw_mtime_nanos = static_cast<int64_t>(mtime);
  header->dialect.delimiter = dialect[0];
  header->dialect.quoted = dialect[1] != 0;
  header->dialect.quote = dialect[2];
  if (count > kMaxEntries) {
    return Status::Corruption("posmap sidecar: implausible entry count");
  }

  std::vector<PosmapSidecarEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t chunk_index = 0;
    uint32_t fields = 0;
    char explicit_ends = 0;
    uint64_t slots = 0;
    if (!r.ReadU64(&chunk_index) || !r.ReadU32(&fields) ||
        !r.ReadBytes(&explicit_ends, 1) || !r.ReadU64(&slots)) {
      return Status::Corruption("posmap sidecar: truncated entry");
    }
    if (fields == 0 || slots > kMaxSlotsPerEntry ||
        body.size() - r.pos < slots * sizeof(uint32_t)) {
      return Status::Corruption("posmap sidecar: implausible entry size");
    }
    const size_t slots_per_row =
        explicit_ends != 0 ? 2 * static_cast<size_t>(fields) : fields + 1;
    if (slots % slots_per_row != 0) {
      return Status::Corruption("posmap sidecar: entry shape mismatch");
    }
    const std::string_view payload(body.data() + r.pos,
                                   slots * sizeof(uint32_t));
    r.pos += payload.size();
    uint64_t sum = 0;
    if (!r.ReadU64(&sum) || sum != Crc32c(payload)) {
      return Status::Corruption("posmap sidecar: entry checksum mismatch");
    }
    std::vector<uint32_t> offsets(slots);
    std::memcpy(offsets.data(), payload.data(), payload.size());
    entries.push_back(PosmapSidecarEntry{
        chunk_index,
        std::make_shared<const PositionalMap>(PositionalMap::FromOffsets(
            fields, explicit_ends != 0, std::move(offsets)))});
  }
  if (r.pos != body.size()) {
    return Status::Corruption("posmap sidecar: trailing bytes");
  }
  return entries;
}

}  // namespace scanraw
