// Serialization of BinaryChunks to and from the database storage format:
// each column is written as a contiguous page image that can be memory-mapped
// back into the in-memory array representation (§3.1: "each column is
// assigned an independent set of pages which can be directly mapped into the
// in-memory array representation").
#ifndef SCANRAW_COLUMNAR_CHUNK_SERDE_H_
#define SCANRAW_COLUMNAR_CHUNK_SERDE_H_

#include <string>
#include <string_view>
#include <vector>

#include "columnar/binary_chunk.h"
#include "common/result.h"

namespace scanraw {

// Per-column storage encodings. kVarintDelta applies zigzag-varint delta
// coding to integer columns — close to free on random data, and several
// times smaller on clustered data (pairs with the §3.3 sorted-write
// option). Doubles and strings always use kRawBytes.
enum class ColumnEncoding : uint8_t {
  kRawBytes = 0,
  kVarintDelta = 1,
};

// Serializes the whole chunk (header + one page image per column) and
// appends it to `out`. The encoding is self-describing; the header carries
// the body's size and its CRC32C (common/checksum.h), in a 64-bit slot.
// With `compress` set, integer columns use kVarintDelta.
Status SerializeChunk(const BinaryChunk& chunk, std::string* out,
                      bool compress = false);

// Serializes only `columns` of `chunk`, straight into `out` in one pass.
// The page is byte-identical to copying those columns into a chunk of their
// own (BinaryChunk::AddColumn, in list order) and serializing that, and it
// fails the same way: InvalidArgument for a column the chunk lacks or one
// whose length differs from the chunk's row count. Duplicate ids collapse;
// columns are written in ascending id order.
Status SerializeChunkColumns(const BinaryChunk& chunk,
                             const std::vector<size_t>& columns,
                             std::string* out, bool compress = false);

// Inverse of SerializeChunk. Returns Corruption on checksum or framing
// mismatch, and for a page of the older FNV-1a format, which is never
// read. `data` must contain exactly one serialized chunk.
Result<BinaryChunk> DeserializeChunk(std::string_view data);

}  // namespace scanraw

#endif  // SCANRAW_COLUMNAR_CHUNK_SERDE_H_
