// PositionalMap: the TOKENIZE output — for every row, the starting offset of
// each attribute within the chunk buffer (§2: "the output of TOKENIZE is a
// vector containing the starting position for every attribute in the
// tuple"). Supports partial maps produced by selective tokenizing: only the
// first `fields_per_row` attributes of each row are recorded.
//
// Two layouts share the interface:
//  * compact (delimited text): F+1 slots per row — field starts plus one
//    end-of-last-field slot; field f ends one byte before field f+1 starts.
//  * explicit-ends (JSON and other non-adjacent formats): 2F slots per row —
//    independent (start, end) pairs, since values are separated by keys and
//    punctuation rather than a single delimiter.
#ifndef SCANRAW_FORMAT_POSITIONAL_MAP_H_
#define SCANRAW_FORMAT_POSITIONAL_MAP_H_

#include <cstdint>
#include <vector>

namespace scanraw {

class PositionalMap {
 public:
  PositionalMap() = default;
  PositionalMap(size_t num_rows, size_t fields_per_row,
                bool explicit_ends = false)
      : fields_per_row_(fields_per_row), explicit_ends_(explicit_ends) {
    offsets_.resize(num_rows * SlotsPerRow());
  }

  size_t num_rows() const {
    return fields_per_row_ == 0 ? 0 : offsets_.size() / SlotsPerRow();
  }
  size_t fields_per_row() const { return fields_per_row_; }
  bool explicit_ends() const { return explicit_ends_; }

  // True when every attribute of the schema is mapped.
  bool IsCompleteFor(size_t schema_fields) const {
    return fields_per_row_ >= schema_fields;
  }

  // Offset (within the chunk buffer) where field `f` of row `r` starts.
  uint32_t FieldStart(size_t r, size_t f) const {
    return explicit_ends_ ? offsets_[r * SlotsPerRow() + 2 * f]
                          : offsets_[r * SlotsPerRow() + f];
  }
  // Offset one past the end of field `f` of row `r` (excludes delimiter).
  uint32_t FieldEnd(size_t r, size_t f) const {
    if (explicit_ends_) return offsets_[r * SlotsPerRow() + 2 * f + 1];
    // Field f's slot f+1 holds the start of field f+1; the delimiter sits
    // just before it, so the field itself ends one byte earlier. The final
    // slot holds the true end-of-row and needs no adjustment.
    const uint32_t next = offsets_[r * SlotsPerRow() + f + 1];
    return (f + 1 == fields_per_row_) ? next : next - 1;
  }

  // Compact layout only: raw slot write (slot in [0, fields_per_row]).
  void Set(size_t r, size_t slot, uint32_t offset) {
    offsets_[r * SlotsPerRow() + slot] = offset;
  }

  // Compact layout only: direct pointer to row `r`'s slot array
  // (fields_per_row + 1 entries). The tokenizer bulk-writes a whole row of
  // field starts here in one multi-match scan.
  uint32_t* MutableRow(size_t r) { return offsets_.data() + r * SlotsPerRow(); }

  // Compact layout only: read-side counterpart of MutableRow. The parser's
  // per-column loops walk rows through this with a hoisted stride instead
  // of paying FieldStart/FieldEnd's index arithmetic per field.
  const uint32_t* RowData(size_t r) const {
    return offsets_.data() + r * SlotsPerRow();
  }

  // Explicit-ends layout only: records one field's span.
  void SetSpan(size_t r, size_t f, uint32_t start, uint32_t end) {
    offsets_[r * SlotsPerRow() + 2 * f] = start;
    offsets_[r * SlotsPerRow() + 2 * f + 1] = end;
  }

  // The slot array's allocation, not its length: a map built in a recycled,
  // larger array holds all of it.
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(uint32_t);
  }

  // Serialization access: the raw slot array, layout-agnostic.
  const std::vector<uint32_t>& raw_offsets() const { return offsets_; }

  // Rebuilds a map from persisted parts. `offsets.size()` must be a whole
  // multiple of the layout's slots-per-row; callers validate before calling.
  static PositionalMap FromOffsets(size_t fields_per_row, bool explicit_ends,
                                   std::vector<uint32_t> offsets) {
    PositionalMap map;
    map.fields_per_row_ = fields_per_row;
    map.explicit_ends_ = explicit_ends;
    map.offsets_ = std::move(offsets);
    return map;
  }

  // Hands the slot array back to whoever lent it (a buffer pool); the map is
  // empty afterwards.
  std::vector<uint32_t> TakeOffsets() {
    fields_per_row_ = 0;
    return std::move(offsets_);
  }

 private:
  size_t SlotsPerRow() const {
    return explicit_ends_ ? 2 * fields_per_row_ : fields_per_row_ + 1;
  }

  size_t fields_per_row_ = 0;
  bool explicit_ends_ = false;
  std::vector<uint32_t> offsets_;
};

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_POSITIONAL_MAP_H_
