#include "db/sketches.h"

#include "common/checksum.h"

namespace scanraw {

namespace {

// SplitMix64 finalizer: full-avalanche 64-bit mix for integer values.
uint64_t MixHash(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

void KmvSketch::AddHash(uint64_t hash) {
  if (mins_.size() < k_) {
    mins_.insert(hash);
    return;
  }
  auto last = std::prev(mins_.end());
  if (hash < *last && !mins_.count(hash)) {
    mins_.erase(last);
    mins_.insert(hash);
  }
}

void KmvSketch::AddInt(int64_t value) {
  AddHash(MixHash(static_cast<uint64_t>(value)));
}

void KmvSketch::AddString(std::string_view value) {
  AddHash(Fnv1aHash(value));
}

double KmvSketch::EstimateDistinct() const {
  if (mins_.size() < k_) return static_cast<double>(mins_.size());
  const uint64_t kth = *std::prev(mins_.end());
  if (kth == 0) return static_cast<double>(mins_.size());
  // (k - 1) / normalized k-th minimum.
  return static_cast<double>(k_ - 1) /
         (static_cast<double>(kth) / 1.8446744073709552e19);
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.mins_) AddHash(h);
}

ReservoirSample::ReservoirSample(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed | 1) {
  samples_.reserve(capacity);
}

void ReservoirSample::Add(int64_t value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // xorshift64 for the replacement index.
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const uint64_t index = state_ % seen_;
  if (index < capacity_) samples_[index] = value;
}

void TableSketches::AddChunk(const BinaryChunk& chunk) {
  MutexLock lock(mu_);
  ++chunks_added_;
  for (size_t col : chunk.ColumnIds()) {
    const ColumnVector& vec = chunk.column(col);
    auto it = columns_.find(col);
    if (it == columns_.end()) {
      it = columns_
               .emplace(col, ColumnSketch{KmvSketch(kmv_k_),
                                          ReservoirSample(sample_capacity_,
                                                          col + 1)})
               .first;
    }
    ColumnSketch& sketch = it->second;
    switch (vec.type()) {
      case FieldType::kString:
        for (size_t r = 0; r < vec.size(); ++r) {
          sketch.distinct.AddString(vec.StringAt(r));
        }
        break;
      default:
        for (size_t r = 0; r < vec.size(); ++r) {
          const int64_t v = vec.NumericAt(r);
          sketch.distinct.AddInt(v);
          sketch.sample.Add(v);
        }
        break;
    }
  }
}

double TableSketches::EstimateDistinct(size_t column) const {
  MutexLock lock(mu_);
  auto it = columns_.find(column);
  return it == columns_.end() ? 0.0 : it->second.distinct.EstimateDistinct();
}

std::vector<int64_t> TableSketches::Sample(size_t column) const {
  MutexLock lock(mu_);
  auto it = columns_.find(column);
  return it == columns_.end() ? std::vector<int64_t>()
                              : it->second.sample.samples();
}

uint64_t TableSketches::chunks_added() const {
  MutexLock lock(mu_);
  return chunks_added_;
}

}  // namespace scanraw
