#include "format/parallel_chunker.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/byte_scan.h"
#include "common/clock.h"
#include "pipeline/thread_pool.h"

namespace scanraw {

namespace {

// Range count for a region: the requested count (or pool workers + the
// participating caller), clamped so every range is at least min_range_bytes
// and there is at least one item per range.
size_t NumRanges(ThreadPool* pool, size_t requested, size_t bytes,
                 size_t min_range_bytes, size_t items) {
  size_t n = requested != 0 ? requested
             : pool != nullptr ? pool->num_workers() + 1
                               : 1;
  if (min_range_bytes > 0) {
    n = std::min(n, std::max<size_t>(1, bytes / min_range_bytes));
  }
  return std::max<size_t>(1, std::min(n, std::max<size_t>(1, items)));
}

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const size_t helpers =
      pool == nullptr ? 0 : std::min(pool->num_workers(), n - 1);
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  struct State {
    explicit State(size_t total) : n(total) {}
    const size_t n;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
  };
  auto state = std::make_shared<State>(n);
  // Helpers copy the body and share the state: a helper that dequeues after
  // the caller already returned still holds everything it touches. The
  // captured references *inside* body stay valid because the caller does not
  // return until every body(i) call has completed.
  auto run = [state, body] {
    size_t done = 0;
    while (true) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) break;
      body(i);
      ++done;
    }
    if (done == 0) return;
    // Release: the caller's acquire load below sees every body(i) write.
    state->completed.fetch_add(done, std::memory_order_acq_rel);
    state->completed.notify_all();
  };
  for (size_t h = 0; h < helpers; ++h) pool->Submit(run);
  // The caller participates: with the pool saturated by other work this
  // degrades to the caller running every index, never to a deadlock. The
  // join below waits only for indices a running helper already claimed.
  run();
  for (size_t seen = state->completed.load(std::memory_order_acquire);
       seen != n; seen = state->completed.load(std::memory_order_acquire)) {
    state->completed.wait(seen, std::memory_order_acquire);
  }
}

bool FindRecordNewlines(const char* data, size_t from, size_t end,
                        const RecordDialect& dialect, bool start_inside,
                        std::vector<uint32_t>* newlines) {
  if (!dialect.quoted) {
    if (from < end) {
      bytescan::FindAll(data, from, end, '\n', end - from, /*bias=*/0,
                        newlines);
    }
    return false;
  }
  // Two-state FSM hopping between SIMD scans: inside quotes only the next
  // quote matters; outside, the next quote or newline.
  bool inside = start_inside;
  size_t p = from;
  while (p < end) {
    if (inside) {
      const size_t q = bytescan::FindByte(data, p, end, dialect.quote);
      if (q == bytescan::kNpos) return true;
      inside = false;
      p = q + 1;
    } else {
      const size_t q = bytescan::FindEither(data, p, end, dialect.quote, '\n');
      if (q == bytescan::kNpos) return false;
      if (data[q] == dialect.quote) {
        inside = true;
      } else {
        newlines->push_back(static_cast<uint32_t>(q));
      }
      p = q + 1;
    }
  }
  return inside;
}

bool ParallelFindRecordNewlines(const char* data, size_t from, size_t end,
                                bool start_inside,
                                const RecordScanOptions& options,
                                SpeculationStats* stats,
                                std::vector<uint32_t>* newlines) {
  const size_t bytes = end > from ? end - from : 0;
  // An unquoted dialect has no boundary ambiguity to speculate away, and the
  // bulk newline scan is already memory-bound — keep it sequential.
  const size_t n = !options.dialect.quoted
                       ? 1
                       : NumRanges(options.pool, options.num_ranges, bytes,
                                   options.min_range_bytes, bytes);
  if (n <= 1) {
    if (stats != nullptr && options.dialect.quoted) stats->ranges += 1;
    return FindRecordNewlines(data, from, end, options.dialect, start_inside,
                              newlines);
  }
  std::vector<size_t> bounds(n + 1);
  for (size_t i = 0; i <= n; ++i) bounds[i] = from + bytes * i / n;
  std::vector<std::vector<uint32_t>> found(n);
  std::vector<uint8_t> parity(n, 0);
  ParallelFor(options.pool, n, [&](size_t i) {
    // Speculate: every range starts at outside-quote parity. The returned
    // end parity equals the range's parity *delta* (quote count mod 2),
    // which does not depend on the speculated start — the fold below
    // recovers the truth at every stitch point.
    parity[i] = FindRecordNewlines(data, bounds[i], bounds[i + 1],
                                   options.dialect, /*start_inside=*/false,
                                   &found[i])
                    ? 1
                    : 0;
  });
  if (stats != nullptr) stats->ranges += n;
  // Validate where ranges stitch together: fold the true start state across
  // ranges and repair (re-scan) the ones whose speculation was wrong. A
  // misspeculated range recorded exactly the quoted newlines and skipped the
  // real ones, so its output is discarded wholesale.
  bool state = start_inside;
  for (size_t i = 0; i < n; ++i) {
    const bool end_state = (parity[i] != 0) != state;
    if (state) {
      if (stats != nullptr) {
        stats->misspeculations += 1;
        stats->repair_bytes += bounds[i + 1] - bounds[i];
      }
      found[i].clear();
      FindRecordNewlines(data, bounds[i], bounds[i + 1], options.dialect,
                         /*start_inside=*/true, &found[i]);
    }
    newlines->insert(newlines->end(), found[i].begin(), found[i].end());
    state = end_state;
  }
  return state;
}

Result<PositionalMap> ParallelTokenizeChunk(
    const TextChunk& chunk, const TokenizeOptions& options,
    const ParallelTokenizeOptions& parallel_options, SpeculationStats* stats) {
  if (options.schema_fields == 0) {
    return Status::InvalidArgument("schema_fields must be > 0");
  }
  const size_t rows = chunk.num_rows();
  PositionalMap map(rows, options.EffectiveFields(),
                    /*explicit_ends=*/options.quoted);
  const size_t n =
      NumRanges(parallel_options.pool, parallel_options.num_ranges,
                chunk.data.size(), parallel_options.min_range_bytes, rows);
  if (stats != nullptr) stats->ranges += n;
  // Byte-balanced row ranges: cut at byte targets, snapped to the record
  // starts TOKENIZE already knows, so a few huge rows cannot pile all the
  // work onto one range. A single range runs inline (ParallelFor needs no
  // helper for it) and still reports its span.
  std::vector<size_t> bounds;
  bounds.reserve(n + 1);
  bounds.push_back(0);
  for (size_t i = 1; i < n; ++i) {
    const uint32_t target = static_cast<uint32_t>(chunk.data.size() * i / n);
    const auto it = std::upper_bound(chunk.line_starts.begin(),
                                     chunk.line_starts.end(), target);
    const size_t row = static_cast<size_t>(it - chunk.line_starts.begin());
    bounds.push_back(std::min(rows, std::max(bounds.back(), row)));
  }
  bounds.push_back(rows);

  std::vector<Status> statuses(n);
  const Clock* clock = RealClock::Instance();
  ParallelFor(parallel_options.pool, n, [&](size_t i) {
    const int64_t t0 = parallel_options.range_span ? clock->NowNanos() : 0;
    statuses[i] = TokenizeRows(chunk, options, bounds[i], bounds[i + 1], &map);
    if (parallel_options.range_span) {
      parallel_options.range_span(i, t0, clock->NowNanos() - t0);
    }
  });
  // Ranges are row-ordered and each range stops at its first bad row, so the
  // first failed range carries the same error the sequential scan reports.
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return map;
}

}  // namespace scanraw
