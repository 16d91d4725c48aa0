#!/bin/sh
# Final validation sweep: full test suite + every bench binary.
#
#   ./run_all.sh            default sweep (tests + benches)
#   ./run_all.sh sanitize   tier-1 suite under ASan/UBSan with the
#                           failpoint machinery compiled in and active
#                           (fault-injection tests arm their own
#                           failpoints; this shakes out UB on the
#                           error/rollback paths)
#   ./run_all.sh tsan       the multi-threaded suites under ThreadSanitizer:
#                           thread pool barrier protocol, serve request
#                           queue / double-buffered views, the socket
#                           front-end (concurrent clients over loopback),
#                           and the multi-core/pipeline training path
#                           (test_scaling: background view preparation +
#                           strided aggregation parity; test_gpma_views:
#                           prefetch hints against the view reference),
#                           the row-block-parallel GEMM (test_gemm), the
#                           launch primitives (test_runtime: multi-lane
#                           parallel_reduce_sum, the split scan, strided
#                           coverage, nested launches), and every kernel
#                           engine cell on a strided 8-lane schedule
#                           (test_kernel_simd at STGRAPH_NUM_THREADS=8)
#   ./run_all.sh lint       clang-tidy over src/ + a clang syntax-only pass
#                           of EVERY .cpp under src/ and tools/ with
#                           -Wthread-safety -Werror (the annotations in
#                           util/thread_annotations.hpp are no-ops under
#                           GCC; this is where they are actually enforced),
#                           plus a toolchain-independent guard that every
#                           file declaring a Mutex member includes the
#                           annotated wrapper header. Clang passes skip
#                           cleanly when clang is not installed; the guard
#                           always runs.
#   ./run_all.sh fuzz-smoke deterministic structure-aware fuzz of the STGN
#                           frame decoder and the STGW/STGT readers under
#                           ASan+UBSan with raised iteration counts
#                           (STGRAPH_FUZZ_ITERS=2000)
#
# Any mode can be combined with STGRAPH_DEADLOCK=1 in the environment to
# arm the lock-order / blocking-hazard analyzer (runtime/analyze.hpp) in
# every spawned test and bench process; armed processes fail at exit on
# any lock-order cycle or unannotated blocking-while-locked hazard.
#   ./run_all.sh validate   tier-1 suite with STGRAPH_VALIDATE=1 exported
#                           (every GPMA view refresh / streaming append /
#                           training sequence runs the structural invariant
#                           analyzer inline) + stgraph_check over freshly
#                           generated artifacts
#   ./run_all.sh serve-smoke
#                           serving smoke test: checkpoint a tiny model,
#                           serve it in-process (concurrent predict
#                           clients + streaming delta ingestion), emit
#                           BENCH_serve.json with p50/p99 latency and
#                           ingest throughput
#   ./run_all.sh serve-net-smoke
#                           network serving smoke test: bring up the TCP
#                           front-end, drive the closed/open-loop load
#                           generator over loopback, assert the
#                           accounting identity, reader-scaling and
#                           no-late-accepts contracts, emit
#                           BENCH_serve_net.json
#   ./run_all.sh scaling-smoke
#                           multi-core scaling smoke test: multi-lane and
#                           prefetch-hint parity + pipeline-overlap tests
#                           (test_scaling, plus its STGRAPH_NUM_THREADS=1
#                           and STGRAPH_NUM_THREADS=8 ctest variants), serve
#                           parity at 1 and 8 lanes (serve_serial,
#                           serve_oversub) and the concurrent and socket
#                           serve suites at 8 lanes (serve_mt_oversub,
#                           serve_net_oversub), the GPMA view builder against
#                           its sequential reference at 8 lanes
#                           (gpma_views_oversub), the layer gradient checks
#                           and aggregation launch counts at 1 and 8 lanes
#                           (layers_serial, layers_oversub), the launch
#                           primitives and thread pool at 1 and 8 lanes
#                           (runtime_serial, runtime_oversub), then a reduced
#                           bench_scaling sweep on one dataset that asserts
#                           bit-identical losses across thread counts and a
#                           best-point speedup floor vs 1 thread (JSON under
#                           build/)
#   ./run_all.sh fusion-smoke
#                           fusing tape compiler smoke test: the fusion
#                           bit-parity suite (test_fusion, fused vs the
#                           oracle library's unfused replay, plus its serial
#                           and oversubscribed variants), the ewmath
#                           accuracy suite, the whole training suite rerun
#                           with the replay installed for the binary
#                           (training_fusion_off), then the fused-vs-unfused
#                           ablation (epilogue micro + end-to-end
#                           TGCN/GConvGRU epochs, bitwise loss equality
#                           asserted, JSON under build/)
#   ./run_all.sh portable   the full ctest suite on a separate
#                           -DSTGRAPH_NATIVE_ARCH=OFF build (build-portable/):
#                           no vector ISA, so every SIMD primitive (kernel
#                           engine, fused interpreter, GEMM, column sums,
#                           ewmath) runs its ScalarOps instantiation and is
#                           held to the same oracles as the native build
#   ./run_all.sh bench      graph-update benches only: bench_fig9 (GNN/
#                           update time split with the per-phase counters,
#                           emitted as BENCH_fig9.json) +
#                           bench_micro_gpma + the kernel-engine ablation
#                           (interpreted reference vs SIMD engine, coef
#                           cache on/off, fused vs unfused, emitted as
#                           BENCH_kernels.json) +
#                           bench_serve_robust (2x overload with deadlines,
#                           fault schedules, WAL recovery cost, emitted as
#                           BENCH_serve_robust.json) + bench_serve_net
#                           (closed/open-loop TCP load, reader-scaling
#                           sweep, emitted as BENCH_serve_net.json) +
#                           the full bench_scaling thread sweep
#                           (BENCH_scaling.json)
#   ./run_all.sh chaos      chaos harness sweep: test_serve_chaos (random
#                           failpoint schedules + concurrent load + fork/
#                           SIGKILL recovery parity) across 20 fixed seeds
#                           via STGRAPH_CHAOS_SEED, then stgraph_check over
#                           a freshly recovered WAL
# Run from the checkout this script lives in, wherever that is.
cd "$(dirname "$0")" || exit 1

if [ "$1" = "scaling-smoke" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target test_scaling \
    test_gpma_views test_serve test_serve_mt test_serve_net test_layers \
    test_runtime test_threadpool_mt bench_scaling || exit 1
  ctest --test-dir build --output-on-failure --no-tests=error \
    -R '^(Scaling(Parity|Pipeline)\..*|scaling_serial|scaling_oversub|serve_serial|serve_oversub|serve_mt_oversub|serve_net_oversub|gpma_views_oversub|layers_serial|layers_oversub|runtime_serial|runtime_oversub)$' \
    || exit 1
  # One small dataset, two lanes. The floor is a regression guard, not a
  # parallelism proof: on single-core hosts the grid is oversubscribed and
  # the best point hovers around 1x, so assert only that a second lane
  # does not collapse (e.g. suddenly costing 25%+). Parity (bit-identical
  # losses across thread counts) is the hard gate and has no slack.
  # The reduced sweep writes under build/: the committed
  # BENCH_scaling.json holds the full sweep (./run_all.sh bench).
  ./build/bench/bench_scaling --datasets=1 --max-threads=2 \
    --assert-speedup=0.75 --json-out=build/BENCH_scaling_smoke.json || exit 1
  cat build/BENCH_scaling_smoke.json
  exit 0
fi

if [ "$1" = "fusion-smoke" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target test_fusion test_ewmath \
    test_training test_training_fusion_off bench_micro_kernels || exit 1
  ctest --test-dir build --output-on-failure --no-tests=error \
    -R '^(FusionParity|FusionEmpty|FusionGradcheck|FusionLaunch|FusionScratch|TrainingParity|EwPasses|EwAutodiff|EwMath)\.' \
    || exit 1
  ctest --test-dir build --output-on-failure --no-tests=error \
    -R '^(fusion_serial|fusion_oversub|training_fusion_off)$' \
    || exit 1
  # The ablation bench doubles as a contract check: it exits non-zero if
  # the fused epilogue is not bitwise equal to kernel-then-add-bias or if
  # either model's fused and unfused losses differ in any bit.
  # Written under build/ so the smoke never overwrites the committed
  # BENCH_fusion.json.
  ./build/bench/bench_micro_kernels \
    --fusion-json-out=build/BENCH_fusion_smoke.json || exit 1
  cat build/BENCH_fusion_smoke.json
  exit 0
fi

if [ "$1" = "bench" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target bench_fig9 bench_micro_gpma \
    bench_micro_kernels bench_serve_robust bench_serve_net bench_scaling \
    || exit 1
  ./build/bench/bench_fig9 --json-out=BENCH_fig9.json || exit 1
  ./build/bench/bench_scaling \
    --json-out=BENCH_scaling.json || exit 1
  ./build/bench/bench_micro_gpma || exit 1
  ./build/bench/bench_micro_kernels \
    --json-out=BENCH_kernels.json \
    --fusion-json-out=BENCH_fusion.json || exit 1
  ./build/bench/bench_serve_robust \
    --out=BENCH_serve_robust.json || exit 1
  ./build/bench/bench_serve_net \
    --out=BENCH_serve_net.json || exit 1
  exit 0
fi

if [ "$1" = "chaos" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target test_serve_chaos \
    bench_serve_robust stgraph_check || exit 1
  seed=1
  while [ "$seed" -le 20 ]; do
    echo "===== chaos seed $seed ====="
    STGRAPH_CHAOS_SEED=$seed ./build/tests/test_serve_chaos \
      --gtest_brief=1 || exit 1
    seed=$((seed + 1))
  done
  # Generate a real WAL through the public serving surface (the robustness
  # bench journals its whole fault-injected run) and audit it with the CLI
  # validator: CRC framing, start record, monotonic time/version.
  ./build/bench/bench_serve_robust --out=/tmp/BENCH_serve_robust.json \
    --threads=4 --ops=10 --deltas=10 || exit 1
  ./build/tools/stgraph_check /tmp/stgraph_bench_robust.stgw || exit 1
  exit 0
fi

if [ "$1" = "serve-smoke" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target bench_serve || exit 1
  ./build/bench/bench_serve --out=BENCH_serve.json \
    --requests=1000 --deltas=50 --threads=4 || exit 1
  cat BENCH_serve.json
  exit 0
fi

if [ "$1" = "serve-net-smoke" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" --target bench_serve_net || exit 1
  # The bench exits non-zero if any contract fails: bit-identical outputs
  # across reader counts, >=2x throughput scaling 1->4 readers, the
  # accounting identity accepted + shed + errors == issued, and zero
  # accepted responses past deadline + one batch interval at 2x overload.
  ./build/bench/bench_serve_net --out=BENCH_serve_net.json \
    --connections=8 --ops=6 --requests=200 || exit 1
  cat BENCH_serve_net.json
  exit 0
fi

if [ "$1" = "portable" ]; then
  # The scalar backend's only gate: with no vector ISA, simd::NativeOps is
  # ScalarOps, and the same suite (kernel engine vs reference, fused vs
  # replay, GEMM vs its fmaf oracle, ewmath bounds) must pass on it.
  cmake -B build-portable -S . -DSTGRAPH_NATIVE_ARCH=OFF \
    -DSTGRAPH_BUILD_BENCH=OFF -DSTGRAPH_BUILD_EXAMPLES=OFF || exit 1
  cmake --build build-portable -j "$(nproc)" || exit 1
  ctest --test-dir build-portable --output-on-failure -j "$(nproc)" \
    || exit 1
  exit 0
fi

if [ "$1" = "sanitize" ]; then
  cmake -B build-asan -S . \
    -DSTGRAPH_SANITIZE=address,undefined \
    -DSTGRAPH_BUILD_BENCH=OFF \
    -DSTGRAPH_BUILD_EXAMPLES=OFF || exit 1
  cmake --build build-asan -j "$(nproc)" || exit 1
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure \
    > build-asan/test_output_asan.txt 2>&1
  status=$?
  tail -n 20 build-asan/test_output_asan.txt
  exit $status
fi

if [ "$1" = "tsan" ]; then
  cmake -B build-tsan -S . \
    -DSTGRAPH_SANITIZE=thread \
    -DSTGRAPH_BUILD_BENCH=OFF \
    -DSTGRAPH_BUILD_EXAMPLES=OFF || exit 1
  cmake --build build-tsan -j "$(nproc)" \
    --target test_threadpool_mt test_serve_mt test_serve_net test_scaling \
    test_gpma_views test_gpma_graph test_fusion test_gemm test_runtime \
    test_kernel_simd || exit 1
  for t in test_threadpool_mt test_serve_mt test_serve_net test_scaling \
           test_gpma_views test_gpma_graph test_fusion test_gemm \
           test_runtime; do
    echo "===== $t (tsan) ====="
    TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/tsan.supp" \
      ./build-tsan/tests/$t || exit 1
  done
  # Eight lanes whatever the host's core count, so the parity fuzz splits
  # rows and feature tiles across lanes on any machine.
  echo "===== test_kernel_simd (tsan, 8 lanes) ====="
  STGRAPH_NUM_THREADS=8 \
    TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/tsan.supp" \
    ./build-tsan/tests/test_kernel_simd || exit 1
  exit 0
fi

if [ "$1" = "lint" ]; then
  status=0
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || exit 1
    find src tools -name '*.cpp' | while read -r f; do
      clang-tidy -p build --quiet "$f" || exit 1
    done || status=1
  else
    echo "lint: clang-tidy not installed, skipping tidy pass"
  fi
  # Self-maintenance guard, toolchain-independent: every file under src/
  # that declares a stgraph::Mutex member must include the annotated
  # wrapper header (directly or via its own header) — a raw std::mutex or
  # a Mutex smuggled in some other way would be invisible to BOTH the
  # -Wthread-safety pass below and the runtime lock-order analyzer. The
  # compile list below is the full tree, so "on the list" reduces to
  # "compiles with the wrapper in scope".
  for f in $(grep -rlE '(^|[^:[:alnum:]_])Mutex[[:space:]]+[A-Za-z_]' \
               --include='*.hpp' --include='*.cpp' src); do
    [ "$f" = "src/runtime/mutex.hpp" ] && continue  # the wrapper itself
    base=$(echo "$f" | sed 's/\.[^.]*$//')
    if ! grep -q 'runtime/mutex\.hpp' "$f" \
       && { [ ! -f "$base.hpp" ] || ! grep -q 'runtime/mutex\.hpp' "$base.hpp"; }; then
      echo "lint: $f declares a Mutex member but never includes runtime/mutex.hpp"
      status=1
    fi
  done
  # Guard the guard: the pattern above must keep matching the known
  # declarations, or a rename could silently empty the check.
  mutex_files=$(grep -rlE '(^|[^:[:alnum:]_])Mutex[[:space:]]+[A-Za-z_]' \
                  --include='*.hpp' --include='*.cpp' src | wc -l)
  if [ "$mutex_files" -lt 5 ]; then
    echo "lint: Mutex-member scan found only $mutex_files files — the pattern is broken"
    status=1
  fi
  if command -v clang++ > /dev/null 2>&1; then
    # Thread-safety analysis over the ENTIRE tree. The annotations expand
    # to nothing under GCC, so this clang pass is the only place they are
    # enforced; -Wno-everything keeps unrelated clang diagnostics out of
    # the gate while -Werror makes every thread-safety finding fatal.
    for f in $(find src tools -name '*.cpp' | sort); do
      echo "thread-safety: $f"
      clang++ -std=c++20 -Isrc -fsyntax-only \
        -Wno-everything -Wthread-safety -Werror "$f" || status=1
    done
  else
    echo "lint: clang++ not installed, skipping -Wthread-safety pass"
  fi
  exit $status
fi

if [ "$1" = "fuzz-smoke" ]; then
  # Structure-aware fuzz of the byte-level readers (STGN frames, STGW WAL,
  # STGT containers) under ASan+UBSan with the iteration counts raised.
  # Deterministic: fixed seeds, so a failing iteration replays exactly.
  cmake -B build-asan -S . \
    -DSTGRAPH_SANITIZE=address,undefined \
    -DSTGRAPH_BUILD_BENCH=OFF \
    -DSTGRAPH_BUILD_EXAMPLES=OFF || exit 1
  cmake --build build-asan -j "$(nproc)" --target test_fuzz_formats || exit 1
  STGRAPH_FUZZ_ITERS=2000 \
    UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ./build-asan/tests/test_fuzz_formats || exit 1
  exit 0
fi

if [ "$1" = "validate" ]; then
  cmake -B build -S . || exit 1
  cmake --build build -j "$(nproc)" || exit 1
  STGRAPH_VALIDATE=1 ctest --test-dir build --output-on-failure || exit 1
  ./build/examples/dataset_tool generate HC build/hc_check.stg || exit 1
  ./build/tools/stgraph_check build/hc_check.stg || exit 1
  exit 0
fi

ctest --test-dir build 2>&1 | tee test_output.txt > /dev/null
for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "===== $(basename "$b") ====="
    "$b"
    echo
  fi
done 2>&1 | tee bench_output.txt > /dev/null
echo ALL_DONE > .run_all_done
