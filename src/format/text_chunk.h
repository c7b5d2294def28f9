// TextChunk: the READ stage's unit of work — a horizontal slice of the raw
// file holding complete lines (§3.1: "The file is logically split into
// horizontal portions containing a sequence of lines, i.e., chunks").
#ifndef SCANRAW_FORMAT_TEXT_CHUNK_H_
#define SCANRAW_FORMAT_TEXT_CHUNK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_scan.h"

namespace scanraw {

struct TextChunk {
  // Position of the chunk within the raw file (0-based, stable across
  // queries — the catalog keys chunk metadata by this index).
  uint64_t chunk_index = 0;
  // Byte offset of the chunk's first line in the raw file.
  uint64_t file_offset = 0;
  // Raw bytes: complete lines, each terminated by '\n' (except possibly the
  // last line of the file).
  std::string data;
  // Start offset of each line within `data`.
  std::vector<uint32_t> line_starts;

  size_t num_rows() const { return line_starts.size(); }

  // Line `i` without its trailing newline.
  std::string_view line(size_t i) const {
    const uint32_t start = line_starts[i];
    uint32_t end = (i + 1 < line_starts.size())
                       ? line_starts[i + 1]
                       : static_cast<uint32_t>(data.size());
    while (end > start && (data[end - 1] == '\n' || data[end - 1] == '\r')) {
      --end;
    }
    return std::string_view(data).substr(start, end - start);
  }
};

// Fills `starts` with the line-start offsets of `data` (cleared first): 0,
// then one past every '\n' that is not the final byte. Bulk scan — the whole
// buffer is covered in one multi-match pass instead of one find per line.
inline void FindLineStarts(std::string_view data,
                           std::vector<uint32_t>* starts) {
  starts->clear();
  if (data.empty()) return;
  starts->push_back(0);
  bytescan::FindAll(data.data(), 0, data.size(), '\n', data.size(),
                    /*bias=*/1, starts);
  // A newline as the final byte terminates the last line without opening a
  // new one.
  if (starts->back() == data.size()) starts->pop_back();
}

// Builds a TextChunk from raw bytes plus line starts the caller already
// located (the READ chunker finds them while sizing the chunk — handing
// them over avoids scanning the same bytes twice).
inline TextChunk MakeTextChunk(std::string data,
                               std::vector<uint32_t> line_starts,
                               uint64_t chunk_index = 0,
                               uint64_t file_offset = 0) {
  TextChunk chunk;
  chunk.chunk_index = chunk_index;
  chunk.file_offset = file_offset;
  chunk.data = std::move(data);
  chunk.line_starts = std::move(line_starts);
  return chunk;
}

// Builds a TextChunk from raw bytes by locating line starts. Used by the
// simulator's calibration, tests and benches; `data` should end at a line
// boundary (a trailing newline is optional on the final line).
inline TextChunk MakeTextChunk(std::string data, uint64_t chunk_index = 0,
                               uint64_t file_offset = 0) {
  std::vector<uint32_t> starts;
  FindLineStarts(data, &starts);
  return MakeTextChunk(std::move(data), std::move(starts), chunk_index,
                       file_offset);
}

}  // namespace scanraw

#endif  // SCANRAW_FORMAT_TEXT_CHUNK_H_
