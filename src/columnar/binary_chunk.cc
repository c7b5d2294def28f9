#include "columnar/binary_chunk.h"

#include "common/string_util.h"

namespace scanraw {

Status BinaryChunk::AddColumn(size_t col, ColumnVector vector) {
  if ((num_rows_ != 0 || !columns_.empty()) && vector.size() != num_rows_) {
    return Status::InvalidArgument(StringPrintf(
        "column %zu has %zu rows, chunk has %zu", col, vector.size(),
        num_rows_));
  }
  num_rows_ = vector.size();
  columns_[col] = std::move(vector);
  return Status::OK();
}

Status BinaryChunk::MergeColumnsFrom(BinaryChunk other) {
  if (other.chunk_index_ != chunk_index_) {
    return Status::InvalidArgument("merging chunks with different indexes");
  }
  if (other.num_rows_ != num_rows_ && num_rows_ != 0 && other.num_rows_ != 0) {
    return Status::InvalidArgument("merging chunks with different row counts");
  }
  if (num_rows_ == 0) num_rows_ = other.num_rows_;
  for (auto& [id, vec] : other.columns_) {
    columns_.try_emplace(id, std::move(vec));
  }
  return Status::OK();
}

size_t BinaryChunk::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& [_, vec] : columns_) total += vec.MemoryBytes();
  return total;
}

}  // namespace scanraw
