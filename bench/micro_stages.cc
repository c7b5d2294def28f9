// Microbenchmarks for the conversion stages. Two layers:
//
//  1. A self-timed "golden" harness (always run, or alone with
//     --golden-only) that times the vectorized TOKENIZE/PARSE hot path
//     against the frozen scalar reference (bench/reference_scalar.h), and
//     the dispatched page checksum against its portable table, and
//     writes BENCH_micro_stages.json for the bench_compare CI gate. The
//     main table holds only the new-path times (larger = worse, gated
//     against bench/golden/); the scalar times and the speedup ratios ride
//     along as extras.
//
//  2. The google-benchmark suite with per-stage counters (TOKENIZE and
//     PARSE throughput by column count, chunk serialization, BAM decode) —
//     the raw numbers behind the Figure 5 cost model.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "bench/bench_util.h"
#include "bench/reference_scalar.h"
#include "columnar/chunk_serde.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/string_util.h"
#include "format/parallel_chunker.h"
#include "format/parser.h"
#include "format/tokenizer.h"
#include "genomics/bam_like.h"
#include "pipeline/thread_pool.h"

namespace scanraw {
namespace {

TextChunk MakeCsvChunk(size_t columns, size_t rows) {
  Random rng(42);
  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) data.push_back(',');
      AppendUint64(&data, rng.NextUint32() & 0x7FFFFFFFu);
    }
    data.push_back('\n');
  }
  return MakeTextChunk(std::move(data));
}

Schema AllDoubleSchema(size_t count) {
  std::vector<ColumnDef> cols(count);
  for (size_t i = 0; i < count; ++i) {
    cols[i].name = "D" + std::to_string(i);
    cols[i].type = FieldType::kDouble;
  }
  return Schema(std::move(cols));
}

TextChunk MakeDoubleCsvChunk(size_t columns, size_t rows) {
  Random rng(7);
  std::string data;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns; ++c) {
      if (c > 0) data.push_back(',');
      data += bench::Fmt("%.6f", rng.NextDouble() * 1e4 - 5e3);
    }
    data.push_back('\n');
  }
  return MakeTextChunk(std::move(data));
}

// ------------------------------------------------------- golden harness ---

// Seconds per call, min over `reps` repetitions of a calibrated batch. The
// minimum is the standard noise-robust estimator for CI gates.
double TimeIt(const std::function<void()>& fn) {
  constexpr int64_t kTargetBatchNanos = 50'000'000;  // 50 ms
  constexpr int kReps = 5;
  RealClock* clock = RealClock::Instance();
  fn();  // warm-up
  int64_t t0 = clock->NowNanos();
  fn();
  const int64_t once = std::max<int64_t>(clock->NowNanos() - t0, 1);
  const int64_t iters = std::max<int64_t>(kTargetBatchNanos / once, 1);
  double best = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    t0 = clock->NowNanos();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double per_call = static_cast<double>(clock->NowNanos() - t0) /
                            static_cast<double>(iters) * 1e-9;
    best = std::min(best, per_call);
  }
  return best;
}

struct GoldenCase {
  std::string key;
  std::function<void()> vectorized;
  std::function<void()> scalar;
};

int RunGolden() {
  constexpr size_t kRows = 4096;
  // Workloads live beyond the lambdas below.
  static const TextChunk u32_16 = MakeCsvChunk(16, kRows);
  static const TextChunk u32_64 = MakeCsvChunk(64, kRows);
  static const TextChunk dbl_16 = MakeDoubleCsvChunk(16, kRows);

  auto tokenize_case = [](const TextChunk& chunk, size_t columns,
                          const char* key) {
    TokenizeOptions opts;
    opts.schema_fields = columns;
    return GoldenCase{
        key,
        [&chunk, opts] {
          auto map = TokenizeChunk(chunk, opts);
          bench::CheckOk(map.status(), "tokenize");
          benchmark::DoNotOptimize(map);
        },
        [&chunk, opts] {
          auto map = reference::RefTokenizeChunk(chunk, opts);
          bench::CheckOk(map.status(), "ref tokenize");
          benchmark::DoNotOptimize(map);
        }};
  };
  auto parse_case = [](const TextChunk& chunk, const Schema& schema,
                       const char* key) {
    TokenizeOptions topts;
    topts.schema_fields = schema.num_columns();
    auto map = TokenizeChunk(chunk, topts);
    bench::CheckOk(map.status(), "tokenize for parse");
    auto m = std::make_shared<PositionalMap>(std::move(*map));
    return GoldenCase{
        key,
        [&chunk, m, schema] {
          auto parsed = ParseChunk(chunk, *m, schema, ParseOptions{});
          bench::CheckOk(parsed.status(), "parse");
          benchmark::DoNotOptimize(parsed);
        },
        [&chunk, m, schema] {
          auto parsed = reference::RefParseChunk(chunk, *m, schema,
                                                 ParseOptions{});
          bench::CheckOk(parsed.status(), "ref parse");
          benchmark::DoNotOptimize(parsed);
        }};
  };

  // Third tier: the speculative parallel tokenizer vs. the sequential SIMD
  // path it must beat on multi-core hosts (bench/parallel_tokenize has the
  // full thread-scaling sweep; this single case keeps the tier under the
  // same regression gate as the rest of the hot path).
  static ThreadPool pool(3);
  auto parallel_case = [](const TextChunk& chunk, size_t columns,
                          const char* key) {
    TokenizeOptions opts;
    opts.schema_fields = columns;
    return GoldenCase{
        key,
        [&chunk, opts] {
          ParallelTokenizeOptions ptopts;
          ptopts.pool = &pool;
          ptopts.num_ranges = 4;
          ptopts.min_range_bytes = 1;
          SpeculationStats stats;
          auto map = ParallelTokenizeChunk(chunk, opts, ptopts, &stats);
          bench::CheckOk(map.status(), "parallel tokenize");
          benchmark::DoNotOptimize(map);
        },
        [&chunk, opts] {
          auto map = TokenizeChunk(chunk, opts);
          bench::CheckOk(map.status(), "tokenize");
          benchmark::DoNotOptimize(map);
        }};
  };

  // The checksum of every stored page and sidecar: the SSE4.2 path against
  // the portable table, over a 1 MiB page (the row times 1 MiB, not a
  // 4096-row chunk).
  static const std::string page = [] {
    Random rng(9);
    std::string bytes(1u << 20, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextUint32());
    return bytes;
  }();
  auto checksum_case = [](uint32_t (*crc)(std::string_view)) {
    return [crc] { benchmark::DoNotOptimize(crc(page)); };
  };

  std::vector<GoldenCase> cases;
  cases.push_back(tokenize_case(u32_16, 16, "tokenize/16"));
  cases.push_back(tokenize_case(u32_64, 64, "tokenize/64"));
  cases.push_back(parallel_case(u32_64, 64, "tokenize_par/64"));
  cases.push_back(parse_case(u32_16, Schema::AllUint32(16), "parse_u32/16"));
  cases.push_back(parse_case(u32_64, Schema::AllUint32(64), "parse_u32/64"));
  cases.push_back(parse_case(dbl_16, AllDoubleSchema(16), "parse_dbl/16"));
  cases.push_back(GoldenCase{"page_checksum/1mb", checksum_case(&Crc32c),
                             checksum_case(&Crc32cPortable)});

  bench::TablePrinter table({"stage", "ms_per_chunk"});
  bench::TablePrinter scalar_table({"stage", "ms_per_chunk"});
  std::string speedups = "{";
  for (size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const double vec_s = TimeIt(c.vectorized);
    const double ref_s = TimeIt(c.scalar);
    table.AddRow({c.key, bench::Fmt("%.4f", vec_s * 1e3)});
    scalar_table.AddRow({c.key, bench::Fmt("%.4f", ref_s * 1e3)});
    if (i > 0) speedups += ",";
    speedups += "\"" + c.key + "\":" + bench::Fmt("%.2f", ref_s / vec_s);
    std::printf("%-14s vectorized %8.4f ms   scalar %8.4f ms   speedup %.2fx\n",
                c.key.c_str(), vec_s * 1e3, ref_s * 1e3, ref_s / vec_s);
  }
  speedups += "}";

  std::printf("\n");
  table.Print();
  bench::BenchJsonWriter writer("micro_stages");
  writer.AddExtra("rows_per_chunk", std::to_string(kRows));
  writer.AddExtra("scalar", bench::BenchJsonWriter::TableJson(scalar_table));
  writer.AddExtra("speedups", speedups);
  return writer.Write(table) ? 0 : 1;
}

// ------------------------------------------------- google-benchmark suite --

void BM_Tokenize(benchmark::State& state) {
  const size_t columns = static_cast<size_t>(state.range(0));
  const size_t rows = 4096;
  TextChunk chunk = MakeCsvChunk(columns, rows);
  TokenizeOptions opts;
  opts.schema_fields = columns;
  for (auto _ : state) {
    auto map = TokenizeChunk(chunk, opts);
    benchmark::DoNotOptimize(map);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.data.size()));
}
BENCHMARK(BM_Tokenize)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_TokenizeScalarRef(benchmark::State& state) {
  const size_t columns = static_cast<size_t>(state.range(0));
  const size_t rows = 4096;
  TextChunk chunk = MakeCsvChunk(columns, rows);
  TokenizeOptions opts;
  opts.schema_fields = columns;
  for (auto _ : state) {
    auto map = reference::RefTokenizeChunk(chunk, opts);
    benchmark::DoNotOptimize(map);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk.data.size()));
}
BENCHMARK(BM_TokenizeScalarRef)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_Parse(benchmark::State& state) {
  const size_t columns = static_cast<size_t>(state.range(0));
  const size_t rows = 4096;
  TextChunk chunk = MakeCsvChunk(columns, rows);
  const Schema schema = Schema::AllUint32(columns);
  TokenizeOptions topts;
  topts.schema_fields = columns;
  auto map = TokenizeChunk(chunk, topts);
  for (auto _ : state) {
    auto parsed = ParseChunk(chunk, *map, schema, ParseOptions{});
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * columns));
}
BENCHMARK(BM_Parse)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_ParseScalarRef(benchmark::State& state) {
  const size_t columns = static_cast<size_t>(state.range(0));
  const size_t rows = 4096;
  TextChunk chunk = MakeCsvChunk(columns, rows);
  const Schema schema = Schema::AllUint32(columns);
  TokenizeOptions topts;
  topts.schema_fields = columns;
  auto map = TokenizeChunk(chunk, topts);
  for (auto _ : state) {
    auto parsed = reference::RefParseChunk(chunk, *map, schema,
                                           ParseOptions{});
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * columns));
}
BENCHMARK(BM_ParseScalarRef)->Arg(2)->Arg(16)->Arg(64)->Arg(256);

void BM_SelectiveParse(benchmark::State& state) {
  const size_t columns = 64;
  const size_t projected = static_cast<size_t>(state.range(0));
  TextChunk chunk = MakeCsvChunk(columns, 4096);
  const Schema schema = Schema::AllUint32(columns);
  TokenizeOptions topts;
  topts.schema_fields = columns;
  auto map = TokenizeChunk(chunk, topts);
  ParseOptions popts;
  for (size_t c = 0; c < projected; ++c) popts.projected_columns.push_back(c);
  for (auto _ : state) {
    auto parsed = ParseChunk(chunk, *map, schema, popts);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SelectiveParse)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_ChunkSerde(benchmark::State& state) {
  TextChunk text = MakeCsvChunk(16, 4096);
  const Schema schema = Schema::AllUint32(16);
  TokenizeOptions topts;
  topts.schema_fields = 16;
  auto map = TokenizeChunk(text, topts);
  auto chunk = ParseChunk(text, *map, schema, ParseOptions{});
  for (auto _ : state) {
    std::string blob;
    Status serde = SerializeChunk(*chunk, &blob);
    if (!serde.ok()) {
      state.SkipWithError(serde.ToString().c_str());
      break;
    }
    auto back = DeserializeChunk(blob);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_ChunkSerde);

void BM_BamDecode(benchmark::State& state) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                     "/scanraw_micro.bam";
  SamGenSpec spec;
  spec.num_reads = 4096;
  auto gen = GenerateBamFile(path, spec);
  if (!gen.ok()) {
    state.SkipWithError(gen.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto reader = BamReader::Open(path);
    SamRecord record;
    uint64_t count = 0;
    while (true) {
      auto more = (*reader)->NextRecord(&record);
      if (!more.ok() || !*more) break;
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BamDecode);

}  // namespace
}  // namespace scanraw

int main(int argc, char** argv) {
  bool golden_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--golden-only") golden_only = true;
  }
  const int golden_rc = scanraw::RunGolden();
  if (golden_only || golden_rc != 0) return golden_rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
