#!/usr/bin/env bash
# stgbench entry point: builds the benchmark from this source tree, then
# runs it.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the JSON result
#   bash benchmark/run.sh all [--seed N] [--seconds S]
#       every workload, untraced then traced; non-zero if any check fails
#   bash benchmark/run.sh smoke
#       tiny sizes, every workload and its traced run, field validation,
#       each correctness check forced to fail once, and compare against
#       runs of the same and of another seed; non-zero on any failure
#   bash benchmark/run.sh calibrate
#       5 back-to-back runs per workload at run_seconds and their spreads;
#       workloads over 10% run again at 30 s
#   bash benchmark/run.sh compare PARENT_DIR CHANGE_DIR
#
# Build products go to $CARGO_TARGET_DIR (default .bench_build), results to
# benchmark/out/. Everything stays inside the source tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
bin="$build_dir/stgbench"
out="benchmark/out"
workloads=(train-static train-dtdg serve-mixed)

build() {
  mkdir -p "$build_dir"
  local log="$build_dir/build.log"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  [ "$jobs" -gt 4 ] && jobs=4
  # Configure once; the generated build system re-runs CMake when a
  # CMakeLists.txt changes.
  if ! { [ -f "$build_dir/Makefile" ] ||
         cmake -S benchmark -B "$build_dir" -G "Unix Makefiles" \
           -DCMAKE_BUILD_TYPE=RelWithDebInfo; } \
         >"$log" 2>&1 ||
     ! cmake --build "$build_dir" --target stgbench -j "$jobs" >>"$log" 2>&1; then
    cat "$log" >&2
    echo "run.sh: build failed" >&2
    exit 1
  fi
}

# Runs every workload untraced then traced into $1; prints each run's
# output. Returns non-zero if any run fails.
run_all() {
  local dest="$1"; shift
  local rc=0
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      "$bin" run --workload "$w" --trace "$t" --out "$dest" "$@" || rc=1
    done
  done
  return "$rc"
}

smoke() {
  local dir="$out/smoke"
  rm -rf "$dir"
  local fail=0
  note() { echo "smoke: $*"; }
  bad() { echo "smoke: FAIL: $*" >&2; fail=1; }

  # 1. every workload, untraced and traced, with field validation of the
  #    result files, the final stdout lines and the trace-event files.
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      local log="$dir/logs/$w.$t.log"
      mkdir -p "$dir/logs"
      if ! "$bin" run --smoke --seconds 0.5 --workload "$w" --trace "$t" \
           --out "$dir/a" >"$log" 2>&1; then
        bad "$w trace=$t failed"; tail -20 "$log" >&2
      fi
      tail -n 1 "$log" >"$dir/logs/$w.$t.line.json"
      local files=("$dir/logs/$w.$t.line.json")
      if [ "$t" = 1 ]; then
        files+=("$dir/a/$w.traced.json" "$dir/a/$w.trace.json")
      else
        files+=("$dir/a/$w.json")
      fi
      "$bin" validate "${files[@]}" || bad "$w trace=$t: invalid output"
    done
  done

  # 2. each correctness check must be able to fail: --break tampers with
  #    the check's input, and the run must then exit 1 with correct=false.
  local checks=(
    "train-static 0 loss_finite" "train-static 0 loss_decreases"
    "train-static 0 no_skipped_steps" "train-dtdg 0 replicas_bitwise"
    "train-dtdg 1 traced_loss_bitwise"
    "train-dtdg 1 attribution_sums"
    "serve-mixed 0 accounting" "serve-mixed 0 response_rows"
    "serve-mixed 0 response_finite" "serve-mixed 0 final_time")
  for c in "${checks[@]}"; do
    read -r w t name <<<"$c"
    local log="$dir/logs/break.$name.log" rc=0
    "$bin" run --smoke --seconds 0.2 --workload "$w" --trace "$t" \
      --break "$name" --out "$dir/break" >"$log" 2>&1 || rc=$?
    if [ "$rc" != 1 ] || ! tail -n 1 "$log" | grep -q '"correct": false' ||
       ! grep -q "FAIL $name:" "$log"; then
      bad "breaking $name did not fail the run (exit $rc)"
    else
      note "breaking $name fails the run, as it must"
    fi
  done

  # 3. compare on two smoke outputs (exit 0 or 1 is a verdict; 2 is an
  #    error). Runs pair by seed: b has a's seed and pairs with it, c has
  #    another seed and must pair with nothing.
  for w in "${workloads[@]}"; do
    "$bin" run --smoke --seconds 0.5 --workload "$w" --out "$dir/b" \
      >"$dir/logs/$w.b.log" 2>&1 || bad "$w second run failed"
    "$bin" run --smoke --seconds 0.5 --seed 7 --workload "$w" --out "$dir/c" \
      >"$dir/logs/$w.c.log" 2>&1 || bad "$w seed-7 run failed"
  done
  local rc=0 side pairs want
  for side in b c; do
    rc=0
    "$bin" compare "$dir/a" "$dir/$side" >"$dir/logs/compare.$side.log" || rc=$?
    cat "$dir/logs/compare.$side.log"
    [ "$rc" -le 1 ] || bad "compare a $side exited $rc"
    want=$([ "$side" = b ] && echo 1 || echo 0)
    pairs="$(grep -c "runs, $want parent runs with a seed on both sides" \
      "$dir/logs/compare.$side.log" || true)"
    [ "$pairs" = "${#workloads[@]}" ] ||
      bad "compare a $side: expected $want seed-paired run per workload"
    if [ "$side" = c ] && grep -Eq '[0-9]/[1-9]' "$dir/logs/compare.c.log"; then
      bad "compare a c: runs of different seeds were paired"
    fi
  done

  if [ "$fail" = 0 ]; then note "all passed"; else note "FAILED"; fi
  return "$fail"
}

calibrate() {
  local runs=5 seconds
  seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
  local dir="$out/calibrate" over="${workloads[*]}" fail=0 secs
  rm -rf "$dir"
  # A metric spread over 10% gets a longer run, up to 30 s; what is still
  # over 10% there should be demoted to a per-layer metric.
  for secs in "$seconds" 30; do
    [ "$secs" -ge "$seconds" ] || break
    for w in $over; do
      for i in $(seq 1 "$runs"); do
        echo "calibrate: $w run $i/$runs (${secs}s)"
        "$bin" run --workload "$w" --seed "$i" --seconds "$secs" \
          --out "$dir/$secs/run-$i" >/dev/null ||
          { echo "calibrate: $w run $i failed" >&2; fail=1; }
      done
    done
    local summary
    summary="$("$bin" summarize "$dir/$secs")"
    echo "$summary"
    over="$(tail -n 1 <<<"$summary")"
    over="${over#over_10pct:}"
    { [ -n "${over// /}" ] && [ "$secs" -lt 30 ]; } || break
  done
  if [ -n "${over// /}" ]; then
    echo "calibrate: still over 10% at ${secs}s: $over (demote)"
  fi
  return "$fail"
}

case "${1:-}" in
  --*|run)
    [ "${1:-}" = run ] && shift
    build
    exec "$bin" run "$@"
    ;;
  all) shift; build; run_all "$out" "$@" ;;
  smoke) build; smoke ;;
  calibrate) build; calibrate ;;
  compare) shift; build; exec "$bin" compare "$@" ;;
  *)
    sed -n '2,19p' "$0" >&2
    exit 2
    ;;
esac
