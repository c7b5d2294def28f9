#include "columnar/chunk_sort.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"

namespace scanraw {

ColumnVector GatherColumn(const ColumnVector& column,
                          const std::vector<uint32_t>& permutation) {
  ColumnVector out(column.type());
  out.Reserve(permutation.size());
  switch (column.type()) {
    case FieldType::kUint32: {
      auto values = column.AsUint32();
      for (uint32_t i : permutation) out.AppendUint32(values[i]);
      break;
    }
    case FieldType::kInt64: {
      auto values = column.AsInt64();
      for (uint32_t i : permutation) out.AppendInt64(values[i]);
      break;
    }
    case FieldType::kDouble: {
      auto values = column.AsDouble();
      for (uint32_t i : permutation) out.AppendDouble(values[i]);
      break;
    }
    case FieldType::kString: {
      for (uint32_t i : permutation) out.AppendString(column.StringAt(i));
      break;
    }
  }
  return out;
}

Result<std::vector<uint32_t>> SortPermutation(const BinaryChunk& chunk,
                                              size_t column) {
  if (!chunk.HasColumn(column)) {
    return Status::InvalidArgument(
        StringPrintf("chunk lacks sort column %zu", column));
  }
  const ColumnVector& key = chunk.column(column);
  if (key.size() != chunk.num_rows()) {
    return Status::InvalidArgument(StringPrintf(
        "sort column %zu has %zu rows, chunk has %zu", column, key.size(),
        chunk.num_rows()));
  }
  std::vector<uint32_t> perm(chunk.num_rows());
  std::iota(perm.begin(), perm.end(), 0);
  if (key.type() == FieldType::kString) {
    std::stable_sort(perm.begin(), perm.end(),
                     [&key](uint32_t a, uint32_t b) {
                       return key.StringAt(a) < key.StringAt(b);
                     });
  } else {
    std::stable_sort(perm.begin(), perm.end(),
                     [&key](uint32_t a, uint32_t b) {
                       return key.NumericAt(a) < key.NumericAt(b);
                     });
  }
  return perm;
}

Result<BinaryChunk> SortChunkByColumn(const BinaryChunk& chunk,
                                      size_t column) {
  std::vector<uint32_t> perm;
  SCANRAW_ASSIGN_OR_RETURN(perm, SortPermutation(chunk, column));
  BinaryChunk sorted(chunk.chunk_index());
  sorted.set_num_rows(chunk.num_rows());
  for (size_t col : chunk.ColumnIds()) {
    SCANRAW_RETURN_IF_ERROR(
        sorted.AddColumn(col, GatherColumn(chunk.column(col), perm)));
  }
  return sorted;
}

}  // namespace scanraw
