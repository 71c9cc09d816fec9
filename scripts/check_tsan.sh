#!/usr/bin/env bash
# Builds the engine/pool tests under ThreadSanitizer and runs them with the
# parallel paths forced on (CKP_THREADS defaults to 4 here so even the
# observer-less engine overloads take the pooled code path). Any data race in
# the parallel round engine, the trial fan-out, the pool itself, or the
# round-elimination kernel's parallel fan-out (per-chunk buffers plus
# thread_local scratch — both thread-invariance tests drive it at 2 and 8
# threads) fails the script. After the roster, the JobServer tests run ten
# more times in a row, to shake out interleavings of the serve workers,
# transport threads and drain. Last, bench_scale runs at n = 2^12 on 4
# threads: the serve registry's engine roster on the work-stealing and
# static schedules, and the sharded streamed generator.
#
#   scripts/check_tsan.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
TESTS=(test_util_thread_pool test_local_engine test_engine_parallel
  test_engine_packed test_graph_regular test_obs_engine test_core_roundelim
  test_property_fuzz test_store_resume test_bfs_kernel test_obs_resource
  test_serve test_delta_coloring_packed)

if command -v cmake >/dev/null && cmake --list-presets >/dev/null 2>&1; then
  cmake --preset tsan -B "$BUILD_DIR" >/dev/null
else
  cmake -B "$BUILD_DIR" -S . -DCKP_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
fi
cmake --build "$BUILD_DIR" -j --target "${TESTS[@]}" bench_scale

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export CKP_THREADS="${CKP_THREADS:-4}"
for t in "${TESTS[@]}"; do
  echo "== $t (TSan, CKP_THREADS=$CKP_THREADS)"
  "$BUILD_DIR/tests/$t" --gtest_brief=1
done
echo "== test_serve ServeServer.* x10 (TSan, CKP_THREADS=$CKP_THREADS)"
"$BUILD_DIR/tests/test_serve" --gtest_brief=1 --gtest_filter='ServeServer.*' \
  --gtest_repeat=10
echo "== bench_scale n=2^12 (TSan, threads=4)"
"$BUILD_DIR/bench/bench_scale" --min-exp=12 --max-exp=12 --threads=4 \
  --assert-budget
echo "TSan clean: ${TESTS[*]} bench_scale"
