#include "columnar/chunk_serde.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/string_util.h"

namespace scanraw {

namespace {

// The page header: magic (u32), body size (u64), body checksum (u64 slot).
// kFnvChunkMagic pages checksummed their body with FNV-1a; they are refused
// rather than read, and restart recovery reverts their chunks to raw.
constexpr uint32_t kChunkMagic = 0x53435232;     // "SCR2": CRC32C
constexpr uint32_t kFnvChunkMagic = 0x53435243;  // "SCRC": FNV-1a
constexpr size_t kBodySizeAt = sizeof(uint32_t);
constexpr size_t kChecksumAt = kBodySizeAt + sizeof(uint64_t);
constexpr size_t kHeaderBytes = kChecksumAt + sizeof(uint64_t);

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PatchU64(std::string* out, size_t at, uint64_t v) {
  std::memcpy(out->data() + at, &v, sizeof(v));
}
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetBytes(size_t n, std::string_view* out) {
    if (pos_ + n > data_.size()) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool GetRaw(void* dst, size_t n) {
    if (pos_ + n > data_.size()) return false;
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::string_view data_;
  size_t pos_ = 0;
};

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(Reader* reader, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  uint8_t byte = 0;
  while (shift <= 63) {
    if (!reader->GetU8(&byte)) return false;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Zigzag-varint delta stream over the column's integer values. Deltas are
// computed with wrapping unsigned arithmetic so int64 extremes are safe.
void EncodeVarintDelta(const ColumnVector& vec, std::string* out) {
  uint64_t previous = 0;
  for (size_t i = 0; i < vec.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(vec.NumericAt(i));
    PutVarint(out, ZigZag(static_cast<int64_t>(v - previous)));
    previous = v;
  }
}

bool DecodeVarintDelta(Reader* reader, FieldType type, size_t num_values,
                       ColumnVector* out) {
  uint64_t previous = 0;
  for (size_t i = 0; i < num_values; ++i) {
    uint64_t raw = 0;
    if (!GetVarint(reader, &raw)) return false;
    previous += static_cast<uint64_t>(UnZigZag(raw));
    if (type == FieldType::kUint32) {
      if (previous > UINT32_MAX) return false;
      out->AppendUint32(static_cast<uint32_t>(previous));
    } else {
      out->AppendInt64(static_cast<int64_t>(previous));
    }
  }
  return true;
}

// Bytes of a column's kRawBytes page image: id, type and encoding, then
// the length-prefixed payload (arena and offsets for strings).
size_t RawPageBytes(const ColumnVector& vec) {
  const size_t framing = sizeof(uint64_t) + 2 + sizeof(uint64_t);
  if (IsFixedWidth(vec.type())) return framing + vec.fixed_data().size();
  return framing + vec.string_arena().size() + sizeof(uint64_t) +
         vec.string_offsets().size() * sizeof(uint32_t);
}

}  // namespace

Status SerializeChunk(const BinaryChunk& chunk, std::string* out,
                      bool compress) {
  return SerializeChunkColumns(chunk, chunk.ColumnIds(), out, compress);
}

Status SerializeChunkColumns(const BinaryChunk& chunk,
                             const std::vector<size_t>& columns,
                             std::string* out, bool compress) {
  // The checks AddColumn makes when the columns are copied, in list order,
  // into a chunk whose row count starts at chunk.num_rows().
  size_t num_rows = chunk.num_rows();
  bool rows_set = num_rows != 0;
  for (size_t col : columns) {
    if (!chunk.HasColumn(col)) {
      return Status::InvalidArgument(
          StringPrintf("chunk lacks column %zu", col));
    }
    const size_t rows = chunk.column(col).size();
    if (rows_set && rows != num_rows) {
      return Status::InvalidArgument(StringPrintf(
          "column %zu has %zu rows, chunk has %zu", col, rows, num_rows));
    }
    num_rows = rows;
    rows_set = true;
  }
  std::vector<size_t> ids(columns);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // One pass: a header placeholder, then the body straight into `out`
  // (reserved up front at its raw size: chunk index, row and column
  // counts, one page image per column), then the size and checksum.
  size_t body_bytes = 2 * sizeof(uint64_t) + sizeof(uint32_t);
  for (size_t col : ids) body_bytes += RawPageBytes(chunk.column(col));
  const size_t header_at = out->size();
  out->reserve(header_at + kHeaderBytes + body_bytes);
  PutU32(out, kChunkMagic);
  PutU64(out, 0);
  PutU64(out, 0);
  const size_t body_at = out->size();
  PutU64(out, chunk.chunk_index());
  PutU64(out, num_rows);
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (size_t col : ids) {
    const ColumnVector& vec = chunk.column(col);
    PutU64(out, col);
    PutU8(out, static_cast<uint8_t>(vec.type()));
    const size_t encoding_at = out->size();
    PutU8(out, static_cast<uint8_t>(ColumnEncoding::kRawBytes));
    if (compress && (vec.type() == FieldType::kUint32 ||
                     vec.type() == FieldType::kInt64)) {
      // Adaptive: keep the delta stream only when it actually beats the
      // raw page (clustered data wins; random 32-bit data would expand).
      const size_t len_at = out->size();
      PutU64(out, 0);
      EncodeVarintDelta(vec, out);
      const size_t delta_bytes = out->size() - len_at - sizeof(uint64_t);
      if (delta_bytes < vec.fixed_data().size()) {
        (*out)[encoding_at] =
            static_cast<char>(ColumnEncoding::kVarintDelta);
        PatchU64(out, len_at, delta_bytes);
        continue;
      }
      out->resize(len_at);
    }
    if (IsFixedWidth(vec.type())) {
      const auto& data = vec.fixed_data();
      PutU64(out, data.size());
      out->append(reinterpret_cast<const char*>(data.data()), data.size());
    } else {
      const auto& arena = vec.string_arena();
      const auto& offsets = vec.string_offsets();
      PutU64(out, arena.size());
      out->append(arena);
      PutU64(out, offsets.size());
      out->append(reinterpret_cast<const char*>(offsets.data()),
                  offsets.size() * sizeof(uint32_t));
    }
  }
  const size_t body_size = out->size() - body_at;
  PatchU64(out, header_at + kBodySizeAt, body_size);
  PatchU64(out, header_at + kChecksumAt,
           Crc32c(std::string_view(out->data() + body_at, body_size)));
  return Status::OK();
}

Result<BinaryChunk> DeserializeChunk(std::string_view data) {
  Reader reader(data);
  uint32_t magic = 0;
  uint64_t body_size = 0, checksum = 0;
  if (!reader.GetU32(&magic)) return Status::Corruption("bad chunk magic");
  if (magic == kFnvChunkMagic) {
    return Status::Corruption(
        "chunk page in the older FNV-1a page format; not read");
  }
  if (magic != kChunkMagic) return Status::Corruption("bad chunk magic");
  if (!reader.GetU64(&body_size) || !reader.GetU64(&checksum)) {
    return Status::Corruption("truncated chunk header");
  }
  std::string_view body;
  if (!reader.GetBytes(body_size, &body)) {
    return Status::Corruption("truncated chunk body");
  }
  if (Crc32c(body) != checksum) {
    return Status::Corruption("chunk checksum mismatch");
  }

  Reader br(body);
  uint64_t chunk_index = 0, num_rows = 0;
  uint32_t num_columns = 0;
  if (!br.GetU64(&chunk_index) || !br.GetU64(&num_rows) ||
      !br.GetU32(&num_columns)) {
    return Status::Corruption("truncated chunk body header");
  }
  BinaryChunk chunk(chunk_index);
  chunk.set_num_rows(num_rows);
  for (uint32_t i = 0; i < num_columns; ++i) {
    uint64_t col = 0;
    uint8_t type_raw = 0;
    uint8_t encoding_raw = 0;
    if (!br.GetU64(&col) || !br.GetU8(&type_raw) || !br.GetU8(&encoding_raw)) {
      return Status::Corruption("truncated column header");
    }
    if (type_raw > static_cast<uint8_t>(FieldType::kString)) {
      return Status::Corruption("unknown column type");
    }
    if (encoding_raw > static_cast<uint8_t>(ColumnEncoding::kVarintDelta)) {
      return Status::Corruption("unknown column encoding");
    }
    const FieldType type = static_cast<FieldType>(type_raw);
    const auto encoding = static_cast<ColumnEncoding>(encoding_raw);
    ColumnVector vec(type);
    if (encoding == ColumnEncoding::kVarintDelta) {
      if (type != FieldType::kUint32 && type != FieldType::kInt64) {
        return Status::Corruption("delta encoding on non-integer column");
      }
      uint64_t len = 0;
      std::string_view payload;
      if (!br.GetU64(&len) || !br.GetBytes(len, &payload)) {
        return Status::Corruption("truncated delta column payload");
      }
      Reader pr(payload);
      vec.Reserve(num_rows);
      if (!DecodeVarintDelta(&pr, type, num_rows, &vec) ||
          pr.remaining() != 0) {
        return Status::Corruption("invalid delta column payload");
      }
    } else if (IsFixedWidth(type)) {
      uint64_t len = 0;
      std::string_view payload;
      if (!br.GetU64(&len) || !br.GetBytes(len, &payload)) {
        return Status::Corruption("truncated fixed column payload");
      }
      if (len != num_rows * FixedWidth(type)) {
        return Status::Corruption("fixed column payload size mismatch");
      }
      std::vector<uint8_t> bytes(payload.begin(), payload.end());
      vec.SetFixedData(std::move(bytes), num_rows);
    } else {
      uint64_t arena_len = 0, offsets_len = 0;
      std::string_view arena, offsets_raw;
      if (!br.GetU64(&arena_len) || !br.GetBytes(arena_len, &arena) ||
          !br.GetU64(&offsets_len) ||
          !br.GetBytes(offsets_len * sizeof(uint32_t), &offsets_raw)) {
        return Status::Corruption("truncated string column payload");
      }
      if (offsets_len != num_rows + 1 && !(offsets_len == 0 && num_rows == 0)) {
        return Status::Corruption("string offsets count mismatch");
      }
      std::vector<uint32_t> offsets(offsets_len);
      if (!offsets_raw.empty()) {
        // Guard: an empty string_view may carry a null data pointer, which
        // memcpy must not receive even for a zero-byte copy.
        std::memcpy(offsets.data(), offsets_raw.data(), offsets_raw.size());
      }
      if (!offsets.empty() && offsets.back() != arena_len) {
        return Status::Corruption("string arena size mismatch");
      }
      vec.SetStringData(std::string(arena), std::move(offsets));
    }
    Status s = chunk.AddColumn(col, std::move(vec));
    if (!s.ok()) return s;
  }
  return chunk;
}

}  // namespace scanraw
