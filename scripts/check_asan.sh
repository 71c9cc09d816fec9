#!/usr/bin/env bash
# Builds the round-elimination kernel tests and the fuzz suite under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs them. The packed
# kernel is all byte shifts and flat-vector indexing — exactly the code
# shape where an off-by-one becomes silent corruption rather than a crash —
# so this is the memory-safety counterpart of scripts/check_tsan.sh. Last,
# bench_scale runs at n = 2^12 on 4 threads: the serve registry's engine
# roster in one loop and the sharded streamed generator.
#
#   scripts/check_asan.sh [BUILD_DIR]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
TESTS=(test_roundelim_packed test_core_roundelim test_property_fuzz
  test_parse_hardening test_store_binary test_store_resume test_bfs_kernel
  test_obs_resource test_engine_packed test_obs_engine test_engine_parallel
  test_local_engine test_util_thread_pool test_graph_regular test_serve
  test_delta_coloring_packed test_graph_core test_graph_analysis)

if command -v cmake >/dev/null && cmake --list-presets >/dev/null 2>&1; then
  cmake --preset asan -B "$BUILD_DIR" >/dev/null
else
  cmake -B "$BUILD_DIR" -S . -DCKP_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
fi
cmake --build "$BUILD_DIR" -j --target "${TESTS[@]}" bench_scale

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export CKP_THREADS="${CKP_THREADS:-4}"
for t in "${TESTS[@]}"; do
  echo "== $t (ASan+UBSan, CKP_THREADS=$CKP_THREADS)"
  "$BUILD_DIR/tests/$t" --gtest_brief=1
done
echo "== bench_scale n=2^12 (ASan+UBSan, threads=4)"
"$BUILD_DIR/bench/bench_scale" --min-exp=12 --max-exp=12 --threads=4 \
  --assert-budget
echo "ASan+UBSan clean: ${TESTS[*]} bench_scale"
