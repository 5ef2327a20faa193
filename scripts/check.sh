#!/usr/bin/env bash
# Local reproduction of the CI jobs (.github/workflows/ci.yml):
#   1. Release build + full ctest suite, serial, with MISSL_NUM_THREADS=4,
#      with MISSL_SIMD=off, and with MISSL_ALLOC=system (all four must agree
#      bitwise)
#   2. ASan+UBSan build + full ctest suite
#   3. TSan build, running the threaded tests (runtime_test, models_test,
#      serve_test — the serving micro-batcher must stay race-free, and a
#      live service must never touch the thread count offline scoring on
#      another thread reads —
#      tcp_server_test — every epoll-thread/worker handoff in the TCP
#      front-end over real sockets, now including the admin HTTP plane —
#      exposition_test, which scrapes the metrics registry and the flight
#      recorder's seqlock rings while they are being written —
#      kernel_property_test, which sweeps the SIMD tiers at 1/2/4 threads,
#      alloc_test, which stresses the pooled allocator's cross-thread
#      free path, infer_test — the planned executor's tier × thread parity
#      sweeps — quant_test, the int8 catalog tier's kernel and
#      executor parity suites — and topk_test, which ranks through the
#      fused catalog stage with per-thread heaps merged)
#   4. Documentation consistency (scripts/check_docs.sh)
#
# Usage:
#   scripts/check.sh            # all four jobs
#   scripts/check.sh release    # just one job: release | asan | tsan | docs
#
# Each job uses its own build directory (build-check-*) so the regular
# ./build tree is left untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=("${1:-all}")
[[ "${jobs[0]}" == "all" ]] && jobs=(docs release asan tsan)

run_release() {
  echo "=== [release] Release build + full test suite ==="
  cmake -B build-check-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-check-release -j"$(nproc)"
  ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_NUM_THREADS=4 (results must match) ==="
  MISSL_NUM_THREADS=4 ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_SIMD=off (results must match) ==="
  MISSL_SIMD=off ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] again with MISSL_ALLOC=system (results must match) ==="
  MISSL_ALLOC=system ctest --test-dir build-check-release --output-on-failure -j"$(nproc)"
  echo "=== [release] allocator-churn regression gate ==="
  ./build-check-release/bench/bench_m1_alloc --smoke
  echo "=== [release] planned-executor bitwise + latency gate ==="
  ./build-check-release/bench/bench_m1_infer --smoke
  echo "=== [release] serving-load smoke (TCP front-end under load) ==="
  ./build-check-release/bench/bench_m1_serve --smoke
  echo "=== [release] serving smoke across the padding boundary (max-len 8) ==="
  ./build-check-release/examples/missl_serve --smoke --max-len 8 \
    --queries examples/serve_queries.tsv > build-check-release/serve_len8.jsonl
  test "$(grep -c '^{' build-check-release/serve_len8.jsonl)" -eq 20
  echo "=== [release] int8 serving smoke (accuracy-gated selftest) ==="
  ./build-check-release/examples/missl_serve --smoke --precision int8 \
    --queries examples/serve_queries.tsv > /dev/null
  echo "=== [release] admin-plane smoke (/metrics /healthz /statusz /tracez) ==="
  scripts/admin_smoke.sh build-check-release
}

run_asan() {
  echo "=== [asan] ASan+UBSan build + full test suite ==="
  cmake -B build-check-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMISSL_SANITIZE=address,undefined
  cmake --build build-check-asan -j"$(nproc)"
  # detect_leaks=1 guards the autograd graph-lifetime fix: backward closures
  # hold their output via a non-owning TensorRef, so LSan must stay clean.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    MISSL_NUM_THREADS=4 \
    ctest --test-dir build-check-asan --output-on-failure -j"$(nproc)"
}

run_tsan() {
  echo "=== [tsan] TSan build + threaded tests ==="
  cmake -B build-check-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMISSL_SANITIZE=thread
  cmake --build build-check-tsan -j"$(nproc)" \
        --target runtime_test models_test serve_test tcp_server_test \
                 exposition_test kernel_property_test alloc_test \
                 infer_test quant_test topk_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/runtime_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/models_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/serve_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/tcp_server_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/exposition_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/kernel_property_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/alloc_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/infer_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/quant_test
  TSAN_OPTIONS=halt_on_error=1 MISSL_NUM_THREADS=4 ./build-check-tsan/tests/topk_test
}

run_docs() {
  echo "=== [docs] documentation consistency ==="
  scripts/check_docs.sh
}

for job in "${jobs[@]}"; do
  case "$job" in
    release) run_release ;;
    asan)    run_asan ;;
    tsan)    run_tsan ;;
    docs)    run_docs ;;
    *) echo "unknown job '$job' (expected release|asan|tsan|docs|all)" >&2; exit 2 ;;
  esac
done
echo "All requested checks passed."
