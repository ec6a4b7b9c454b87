#!/usr/bin/env bash
# The repository benchmark (benchmark/README.md). Builds benchmark/ in
# Release into .bench_build/ at the repository root, then:
#
#   run_benchmark.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload. The last line of stdout is the JSON result;
#       a traced run also writes its spans to .bench_build/traces/.
#   run_benchmark.sh [--suite] [--out DIR]... [--seed N] [--reps R] [--seconds S]
#       All five workloads, R untraced repetitions (default 5) plus one
#       traced run each, one JSON record per run in DIR. With several --out
#       directories, one suite per directory, their runs interleaved so that
#       every suite sees the same stretches of host speed.
#   run_benchmark.sh --compare A_DIR B_DIR
#       Compares two suites against the bounds in BENCHMARK.json; exits
#       nonzero on a regression or a differing digest or counter.
#   run_benchmark.sh --test
#       The comparator self-test and the harness smoke test (ctest).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
workloads=(train-cold-wide train-steady-narrow zero-shot serve-closed
           serve-open)

die() {
  echo "run_benchmark.sh: $*" >&2
  exit 2
}

build_benchmark() {
  [ -f "$root/src/CMakeLists.txt" ] || die "no library sources under $root/src"
  if [ ! -f "$build/CMakeCache.txt" ]; then
    local generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
      -DCMAKE_BUILD_TYPE=Release >&2 || die "configure failed"
  fi
  cmake --build "$build" -j 4 >&2 || die "build failed"
}

mode=suite
workload=""
seed=1
seconds=10
trace=0
reps=5
outs=()
compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; mode=single; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --out) outs+=("$2"); shift 2 ;;
    --suite) mode=suite; shift ;;
    --compare) mode=compare; compare=("$2" "$3"); shift 3 ;;
    --test) mode=test; shift ;;
    *) die "unknown argument '$1'" ;;
  esac
done

build_benchmark

case "$mode" in
  single)
    trace_args=()
    if [ "$trace" = 1 ]; then
      mkdir -p "$build/traces"
      trace_args=(--trace_out "$build/traces/$workload-seed$seed.jsonl")
    fi
    exec "$build/bench_pafeat" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" \
      ${trace_args[@]+"${trace_args[@]}"}
    ;;
  suite)
    [ ${#outs[@]} -gt 0 ] || outs=("$build/results/$(date +%Y%m%d-%H%M%S)")
    mkdir -p "${outs[@]}" "$build/traces"
    for w in "${workloads[@]}"; do
      for ((r = 1; r <= reps; r++)); do
        for out in "${outs[@]}"; do
          "$build/bench_pafeat" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0 --json_out "$out/$w-r$r.json" |
            sed '$d'
        done
      done
      for out in "${outs[@]}"; do
        "$build/bench_pafeat" --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace 1 --json_out "$out/$w-traced.json" \
          --trace_out "$build/traces/$w-seed$seed.jsonl" | sed '$d'
      done
    done
    echo "records: ${outs[*]}"
    ;;
  compare)
    exec "$build/bench_compare" "${compare[0]}" "${compare[1]}" \
      "$root/BENCHMARK.json"
    ;;
  test)
    cd "$build" && exec ctest --output-on-failure
    ;;
esac
