// BinaryChunk: a chunk converted to the database processing representation.
// Columns are independent arrays; a chunk need not carry every column of the
// table (§3.1: "not all the columns in a table have to be present in a
// binary chunk") — queries project subsets and partial loading stores them.
#ifndef SCANRAW_COLUMNAR_BINARY_CHUNK_H_
#define SCANRAW_COLUMNAR_BINARY_CHUNK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "columnar/column_vector.h"
#include "common/result.h"

namespace scanraw {

class BinaryChunk {
 public:
  BinaryChunk() = default;
  explicit BinaryChunk(uint64_t chunk_index) : chunk_index_(chunk_index) {}

  uint64_t chunk_index() const { return chunk_index_; }
  void set_chunk_index(uint64_t idx) { chunk_index_ = idx; }

  size_t num_rows() const { return num_rows_; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  bool HasColumn(size_t col) const { return columns_.count(col) > 0; }
  std::vector<size_t> ColumnIds() const {
    std::vector<size_t> ids;
    ids.reserve(columns_.size());
    for (const auto& [id, _] : columns_) ids.push_back(id);
    return ids;
  }
  size_t num_columns() const { return columns_.size(); }

  // Adds (or replaces) column `col`. The vector's length must equal
  // num_rows() if rows were already set or the chunk holds a column (even
  // an empty one); otherwise it defines num_rows().
  Status AddColumn(size_t col, ColumnVector vector);

  // Requires HasColumn(col).
  const ColumnVector& column(size_t col) const { return columns_.at(col); }

  // Moves the columns of `other` (same chunk_index / row count) that this
  // chunk lacks into it; used when a query needs columns from both the
  // database and the raw file, or from several stored segments. Pass an
  // rvalue to move rather than copy the columns.
  Status MergeColumnsFrom(BinaryChunk other);

  // Hands every column's backing buffers to `source` for reuse (see
  // ChunkBufferPool::WrapChunk); the chunk is empty afterwards.
  void ReleaseBuffersTo(ColumnBufferSource* source) {
    for (auto& [id, vec] : columns_) vec.ReleaseBuffersTo(source);
    columns_.clear();
    num_rows_ = 0;
  }

  size_t MemoryBytes() const;

 private:
  uint64_t chunk_index_ = 0;
  size_t num_rows_ = 0;
  std::map<size_t, ColumnVector> columns_;  // ordered for deterministic serde
};

using BinaryChunkPtr = std::shared_ptr<const BinaryChunk>;

}  // namespace scanraw

#endif  // SCANRAW_COLUMNAR_BINARY_CHUNK_H_
