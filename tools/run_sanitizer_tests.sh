#!/usr/bin/env bash
# Builds one sanitizer preset and runs tests under it.
#
#   tools/run_sanitizer_tests.sh <asan|ubsan|tsan> [test_binary]...
#
# With no test binaries the full ctest suite runs (asan/ubsan) or the
# concurrency-sensitive subset (tsan — the full suite is slow under TSan and
# the single-threaded tests cannot race). Each sanitizer has its own build
# tree (build-<san>/) so trees never contaminate each other.
#
# Honors CTEST_PARALLEL_LEVEL for the test-run fan-out (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <asan|ubsan|tsan> [test_binary]..." >&2
  exit 2
fi

SAN="$1"
shift
case "${SAN}" in
  asan|ubsan|tsan) ;;
  *)
    echo "error: unknown sanitizer '${SAN}' (want asan, ubsan, or tsan)" >&2
    exit 2
    ;;
esac

TESTS=("$@")
PARALLEL="${CTEST_PARALLEL_LEVEL:-$(nproc)}"

# Fail fast and loud when configure itself breaks — a silent fall-through
# here used to surface as a confusing "missing binary" error much later.
if ! cmake --preset "${SAN}"; then
  echo "error: cmake configure failed for preset '${SAN}'" >&2
  exit 1
fi

# Fail-fast runtime options: abort on the first report instead of drowning
# in follow-on noise.
export ASAN_OPTIONS="abort_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

if [ "${#TESTS[@]}" -eq 0 ] && [ "${SAN}" = "tsan" ]; then
  TESTS=(pipeline_test scanraw_test scanraw_features_test scanraw_stress_test
         obs_test explain_test telemetry_test chunk_cache_test
         positional_map_cache_test
         query_log_test flight_recorder_test workload_test
         timeseries_test log_test watchdog_test stats_server_test
         lock_discipline_test parallel_chunker_test hotpath_equivalence_test
         structural_index_test)
fi

if [ "${#TESTS[@]}" -eq 0 ]; then
  cmake --build --preset "${SAN}" -j "$(nproc)"
  ctest --preset "${SAN}" -j "${PARALLEL}"
else
  cmake --build --preset "${SAN}" -j "$(nproc)" --target "${TESTS[@]}"
  for t in "${TESTS[@]}"; do
    echo "== ${SAN}: ${t}"
    "build-${SAN}/tests/${t}"
  done
fi
echo "${SAN} run clean."
