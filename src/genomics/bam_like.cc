#include "genomics/bam_like.h"

#include <cstring>

#include "common/checksum.h"
#include "common/string_util.h"
#include "io/rate_limiter.h"

namespace scanraw {

namespace {

constexpr uint32_t kBamMagic = 0x4D414253;  // "SBAM"

// --------------------------------------------------------------- varints --

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const std::string& data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++(*pos);
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

void PutString(std::string* out, const std::string& s) {
  PutVarint(out, s.size());
  out->append(s);
}

bool GetString(const std::string& data, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(data, pos, &len)) return false;
  if (*pos + len > data.size()) return false;
  s->assign(data, *pos, len);
  *pos += len;
  return true;
}

// ------------------------------------------------------------- seq / qual --

int BaseCode(char c) {
  switch (c) {
    case 'A':
      return 0;
    case 'C':
      return 1;
    case 'G':
      return 2;
    case 'T':
      return 3;
  }
  return 0;
}

constexpr char kBaseChars[] = {'A', 'C', 'G', 'T'};

void PackSeq(std::string* out, const std::string& seq) {
  PutVarint(out, seq.size());
  uint8_t acc = 0;
  int in_acc = 0;
  for (char c : seq) {
    acc = static_cast<uint8_t>(acc | (BaseCode(c) << (in_acc * 2)));
    if (++in_acc == 4) {
      out->push_back(static_cast<char>(acc));
      acc = 0;
      in_acc = 0;
    }
  }
  if (in_acc > 0) out->push_back(static_cast<char>(acc));
}

bool UnpackSeq(const std::string& data, size_t* pos, std::string* seq) {
  uint64_t len = 0;
  if (!GetVarint(data, pos, &len)) return false;
  const size_t bytes = (len + 3) / 4;
  if (*pos + bytes > data.size()) return false;
  seq->clear();
  seq->reserve(len);
  for (uint64_t i = 0; i < len; ++i) {
    const uint8_t byte = static_cast<uint8_t>(data[*pos + i / 4]);
    seq->push_back(kBaseChars[(byte >> ((i % 4) * 2)) & 0x3]);
  }
  *pos += bytes;
  return true;
}

void RlePack(std::string* out, const std::string& qual) {
  PutVarint(out, qual.size());
  size_t i = 0;
  while (i < qual.size()) {
    size_t run = 1;
    while (i + run < qual.size() && qual[i + run] == qual[i] && run < 255) {
      ++run;
    }
    out->push_back(qual[i]);
    out->push_back(static_cast<char>(run));
    i += run;
  }
}

bool RleUnpack(const std::string& data, size_t* pos, std::string* qual) {
  uint64_t len = 0;
  if (!GetVarint(data, pos, &len)) return false;
  qual->clear();
  qual->reserve(len);
  while (qual->size() < len) {
    if (*pos + 2 > data.size()) return false;
    const char c = data[*pos];
    const uint8_t run = static_cast<uint8_t>(data[*pos + 1]);
    *pos += 2;
    if (run == 0 || qual->size() + run > len) return false;
    qual->append(run, c);
  }
  return true;
}

// ---------------------------------------------------------- xor keystream --

// Applies the chained keystream in place and returns the next chain state.
// Deliberately byte-serial with several dependent mixing steps per byte:
// the per-byte cost stands in for BGZF inflate, whose effective decode rate
// on the paper's testbed was ~10 MB/s (26 GB BAM in 2714 s, Table 1) —
// orders of magnitude below the disk, which is what made BAMTools
// CPU-bound there.
// Advances the keystream state over `n` bytes without touching data — the
// state sequence is position-driven, which is what makes an index with
// recorded chain states possible at all.
uint64_t AdvanceKeystreamState(uint64_t chain_state, uint64_t n) {
  uint64_t state = chain_state ^ 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < n; ++i) {
    for (int round = 0; round < 32; ++round) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      state ^= (state >> 29);
    }
  }
  return state;
}

uint64_t ApplyKeystream(std::string* data, uint64_t chain_state) {
  uint64_t state = chain_state ^ 0x9E3779B97F4A7C15ull;
  for (char& c : *data) {
    // Dependent LCG+rotate rounds per byte; the data dependence keeps this
    // loop from vectorizing, like the bit-serial inflate inner loop. The
    // round count is calibrated so decode throughput lands near the
    // ~10-20 MB/s BAMTools achieved on the paper's testbed.
    for (int round = 0; round < 32; ++round) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      state ^= (state >> 29);
    }
    c = static_cast<char>(static_cast<uint8_t>(c) ^
                          static_cast<uint8_t>(state >> 56));
  }
  return state;
}

void EncodeRecord(std::string* out, const SamRecord& r) {
  PutString(out, r.qname);
  PutVarint(out, r.flag);
  PutString(out, r.rname);
  PutVarint(out, r.pos);
  PutVarint(out, r.mapq);
  PutString(out, r.cigar);
  PutString(out, r.rnext);
  PutVarint(out, r.pnext);
  PutVarint(out, ZigZag(r.tlen));
  PackSeq(out, r.seq);
  RlePack(out, r.qual);
}

bool DecodeRecord(const std::string& data, size_t* pos, SamRecord* r) {
  uint64_t flag = 0, posv = 0, mapq = 0, pnext = 0, tlen = 0;
  if (!GetString(data, pos, &r->qname)) return false;
  if (!GetVarint(data, pos, &flag)) return false;
  if (!GetString(data, pos, &r->rname)) return false;
  if (!GetVarint(data, pos, &posv)) return false;
  if (!GetVarint(data, pos, &mapq)) return false;
  if (!GetString(data, pos, &r->cigar)) return false;
  if (!GetString(data, pos, &r->rnext)) return false;
  if (!GetVarint(data, pos, &pnext)) return false;
  if (!GetVarint(data, pos, &tlen)) return false;
  if (!UnpackSeq(data, pos, &r->seq)) return false;
  if (!RleUnpack(data, pos, &r->qual)) return false;
  r->flag = static_cast<uint32_t>(flag);
  r->pos = static_cast<uint32_t>(posv);
  r->mapq = static_cast<uint32_t>(mapq);
  r->pnext = static_cast<uint32_t>(pnext);
  r->tlen = UnZigZag(tlen);
  return true;
}

}  // namespace

Result<BamFileInfo> GenerateBamFile(const std::string& path,
                                    const SamGenSpec& spec,
                                    uint64_t records_per_block) {
  if (records_per_block == 0) {
    return Status::InvalidArgument("records_per_block must be > 0");
  }
  auto file = WritableFile::Create(path);
  if (!file.ok()) return file.status();

  std::string header;
  header.append(reinterpret_cast<const char*>(&kBamMagic), 4);
  const uint64_t num_reads = spec.num_reads;
  header.append(reinterpret_cast<const char*>(&num_reads), 8);
  SCANRAW_RETURN_IF_ERROR((*file)->Append(header));

  std::string block;
  uint32_t block_count = 0;
  uint64_t chain_state = 0;
  auto flush_block = [&]() -> Status {
    if (block_count == 0) return Status::OK();
    chain_state = ApplyKeystream(&block, chain_state);
    std::string framed;
    const uint32_t payload = static_cast<uint32_t>(block.size());
    framed.append(reinterpret_cast<const char*>(&payload), 4);
    framed.append(reinterpret_cast<const char*>(&block_count), 4);
    const uint64_t checksum = Fnv1aHash(block);
    framed.append(reinterpret_cast<const char*>(&checksum), 8);
    framed.append(block);
    block.clear();
    block_count = 0;
    return (*file)->Append(framed);
  };

  Status s = ForEachGeneratedRecord(spec, [&](const SamRecord& r) -> Status {
    EncodeRecord(&block, r);
    if (++block_count >= records_per_block) return flush_block();
    return Status::OK();
  });
  if (!s.ok()) return s;
  SCANRAW_RETURN_IF_ERROR(flush_block());

  BamFileInfo info;
  info.num_reads = spec.num_reads;
  info.file_bytes = (*file)->bytes_written();
  SCANRAW_RETURN_IF_ERROR((*file)->Close());
  return info;
}

Result<std::unique_ptr<BamReader>> BamReader::Open(const std::string& path,
                                                   RateLimiter* limiter,
                                                   IoStats* stats) {
  auto file = RandomAccessFile::Open(path, limiter, stats);
  if (!file.ok()) return file.status();
  char header[12];
  auto n = (*file)->ReadAt(0, sizeof(header), header);
  if (!n.ok()) return n.status();
  if (*n != sizeof(header)) return Status::Corruption("BAM header truncated");
  uint32_t magic = 0;
  uint64_t num_reads = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&num_reads, header + 4, 8);
  if (magic != kBamMagic) return Status::Corruption("bad BAM magic");
  return std::unique_ptr<BamReader>(
      new BamReader(std::move(*file), num_reads));
}

BamReader::BamReader(std::unique_ptr<RandomAccessFile> file,
                     uint64_t num_reads)
    : file_(std::move(file)), num_reads_(num_reads), file_pos_(12) {}

Status BamReader::LoadNextBlock() {
  char frame[16];
  auto n = file_->ReadAt(file_pos_, sizeof(frame), frame);
  if (!n.ok()) return n.status();
  if (*n == 0) return Status::NotFound("end of file");
  if (*n != sizeof(frame)) return Status::Corruption("BAM block truncated");
  uint32_t payload = 0, records = 0;
  uint64_t checksum = 0;
  std::memcpy(&payload, frame, 4);
  std::memcpy(&records, frame + 4, 4);
  std::memcpy(&checksum, frame + 8, 8);
  file_pos_ += sizeof(frame);
  block_.resize(payload);
  auto body = file_->ReadAt(file_pos_, payload, block_.data());
  if (!body.ok()) return body.status();
  if (*body != payload) return Status::Corruption("BAM payload truncated");
  file_pos_ += payload;
  if (Fnv1aHash(block_) != checksum) {
    return Status::Corruption("BAM block checksum mismatch");
  }
  // XOR is symmetric and the keystream is position-driven, so decoding
  // replays the writer's state sequence exactly and yields the next chain
  // input.
  chain_state_ = ApplyKeystream(&block_, chain_state_);
  block_pos_ = 0;
  block_records_left_ = records;
  return Status::OK();
}

Result<bool> BamReader::NextRecord(SamRecord* record) {
  while (true) {
    while (block_records_left_ == 0) {
      Status s = LoadNextBlock();
      if (s.IsNotFound()) return false;
      if (!s.ok()) return s;
    }
    if (!DecodeRecord(block_, &block_pos_, record)) {
      return Status::Corruption("BAM record decode failed");
    }
    --block_records_left_;
    if (pending_skip_ == 0) return true;
    --pending_skip_;  // discard records preceding a seek target
  }
}

Status BamReader::SeekToRecord(const BamIndex& index, uint64_t record) {
  const size_t b = index.BlockForRecord(record);
  if (b >= index.blocks.size()) {
    return Status::OutOfRange(StringPrintf(
        "record %llu beyond the indexed %llu reads",
        static_cast<unsigned long long>(record),
        static_cast<unsigned long long>(index.num_reads)));
  }
  const BamBlockEntry& entry = index.blocks[b];
  file_pos_ = entry.file_offset;
  chain_state_ = entry.chain_state;
  block_.clear();
  block_pos_ = 0;
  block_records_left_ = 0;
  pending_skip_ = static_cast<uint32_t>(record - entry.first_record);
  return Status::OK();
}

size_t BamIndex::BlockForRecord(uint64_t record) const {
  if (record >= num_reads) return blocks.size();
  size_t lo = 0, hi = blocks.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (blocks[mid].first_record <= record) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<BamIndex> WriteBamIndex(const std::string& bam_path) {
  auto file = RandomAccessFile::Open(bam_path);
  if (!file.ok()) return file.status();
  char header[12];
  auto n = (*file)->ReadAt(0, sizeof(header), header);
  if (!n.ok()) return n.status();
  if (*n != sizeof(header)) return Status::Corruption("BAM header truncated");
  uint32_t magic = 0;
  BamIndex index;
  std::memcpy(&magic, header, 4);
  std::memcpy(&index.num_reads, header + 4, 8);
  if (magic != kBamMagic) return Status::Corruption("bad BAM magic");

  // Walk the frame headers; chain states advance data-independently.
  uint64_t pos = 12;
  uint64_t first_record = 0;
  uint64_t chain_state = 0;
  while (true) {
    char frame[16];
    auto got = (*file)->ReadAt(pos, sizeof(frame), frame);
    if (!got.ok()) return got.status();
    if (*got == 0) break;
    if (*got != sizeof(frame)) {
      return Status::Corruption("BAM block truncated");
    }
    uint32_t payload = 0, records = 0;
    std::memcpy(&payload, frame, 4);
    std::memcpy(&records, frame + 4, 4);
    index.blocks.push_back(
        BamBlockEntry{pos, first_record, records, chain_state});
    chain_state = AdvanceKeystreamState(chain_state, payload);
    first_record += records;
    pos += sizeof(frame) + payload;
  }
  if (first_record != index.num_reads) {
    return Status::Corruption("BAM index record count mismatch");
  }

  std::string blob;
  const uint32_t bai_magic = 0x49414253;  // "SBAI"
  blob.append(reinterpret_cast<const char*>(&bai_magic), 4);
  blob.append(reinterpret_cast<const char*>(&index.num_reads), 8);
  const uint64_t count = index.blocks.size();
  blob.append(reinterpret_cast<const char*>(&count), 8);
  for (const BamBlockEntry& e : index.blocks) {
    blob.append(reinterpret_cast<const char*>(&e.file_offset), 8);
    blob.append(reinterpret_cast<const char*>(&e.first_record), 8);
    blob.append(reinterpret_cast<const char*>(&e.record_count), 4);
    blob.append(reinterpret_cast<const char*>(&e.chain_state), 8);
  }
  // The index is consulted on restart; a torn .bai would poison every later
  // open, so it must land atomically.
  SCANRAW_RETURN_IF_ERROR(AtomicWriteFile(bam_path + ".bai", blob));
  return index;
}

Result<BamIndex> LoadBamIndex(const std::string& bai_path) {
  auto blob = ReadFileToString(bai_path);
  if (!blob.ok()) return blob.status();
  const std::string& data = *blob;
  if (data.size() < 20) return Status::Corruption("BAI too small");
  uint32_t magic = 0;
  std::memcpy(&magic, data.data(), 4);
  if (magic != 0x49414253) return Status::Corruption("bad BAI magic");
  BamIndex index;
  uint64_t count = 0;
  std::memcpy(&index.num_reads, data.data() + 4, 8);
  std::memcpy(&count, data.data() + 12, 8);
  constexpr size_t kEntryBytes = 8 + 8 + 4 + 8;
  if (data.size() != 20 + count * kEntryBytes) {
    return Status::Corruption("BAI size mismatch");
  }
  index.blocks.resize(count);
  size_t pos = 20;
  for (BamBlockEntry& e : index.blocks) {
    std::memcpy(&e.file_offset, data.data() + pos, 8);
    std::memcpy(&e.first_record, data.data() + pos + 8, 8);
    std::memcpy(&e.record_count, data.data() + pos + 16, 4);
    std::memcpy(&e.chain_state, data.data() + pos + 20, 8);
    pos += kEntryBytes;
  }
  return index;
}

BamChunkStream::BamChunkStream(std::unique_ptr<BamReader> reader,
                               size_t chunk_rows)
    : reader_(std::move(reader)), chunk_rows_(chunk_rows) {}

Result<std::optional<BinaryChunkPtr>> BamChunkStream::Next() {
  if (done_) return std::optional<BinaryChunkPtr>();
  std::vector<SamRecord> batch;
  batch.reserve(chunk_rows_);
  SamRecord record;
  while (batch.size() < chunk_rows_) {
    auto more = reader_->NextRecord(&record);
    if (!more.ok()) return more.status();
    if (!*more) {
      done_ = true;
      break;
    }
    batch.push_back(record);
  }
  if (batch.empty()) return std::optional<BinaryChunkPtr>();
  BinaryChunk chunk = MapRecordsToChunk(batch, next_chunk_index_++);
  return std::optional<BinaryChunkPtr>(
      std::make_shared<const BinaryChunk>(std::move(chunk)));
}

BinaryChunk MapRecordsToChunk(const std::vector<SamRecord>& records,
                              uint64_t chunk_index) {
  BinaryChunk chunk(chunk_index);
  ColumnVector qname(FieldType::kString), flag(FieldType::kUint32),
      rname(FieldType::kString), pos(FieldType::kUint32),
      mapq(FieldType::kUint32), cigar(FieldType::kString),
      rnext(FieldType::kString), pnext(FieldType::kUint32),
      tlen(FieldType::kInt64), seq(FieldType::kString),
      qual(FieldType::kString);
  for (const SamRecord& r : records) {
    qname.AppendString(r.qname);
    flag.AppendUint32(r.flag);
    rname.AppendString(r.rname);
    pos.AppendUint32(r.pos);
    mapq.AppendUint32(r.mapq);
    cigar.AppendString(r.cigar);
    rnext.AppendString(r.rnext);
    pnext.AppendUint32(r.pnext);
    tlen.AppendInt64(r.tlen);
    seq.AppendString(r.seq);
    qual.AppendString(r.qual);
  }
  // AddColumn only fails on row-count mismatch, impossible here.
  (void)chunk.AddColumn(kSamQname, std::move(qname));
  (void)chunk.AddColumn(kSamFlag, std::move(flag));
  (void)chunk.AddColumn(kSamRname, std::move(rname));
  (void)chunk.AddColumn(kSamPos, std::move(pos));
  (void)chunk.AddColumn(kSamMapq, std::move(mapq));
  (void)chunk.AddColumn(kSamCigar, std::move(cigar));
  (void)chunk.AddColumn(kSamRnext, std::move(rnext));
  (void)chunk.AddColumn(kSamPnext, std::move(pnext));
  (void)chunk.AddColumn(kSamTlen, std::move(tlen));
  (void)chunk.AddColumn(kSamSeq, std::move(seq));
  (void)chunk.AddColumn(kSamQual, std::move(qual));
  return chunk;
}

}  // namespace scanraw
