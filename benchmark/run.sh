#!/usr/bin/env bash
# The repo benchmark. Builds benchmark/pgxd_bench (standalone Release
# project, into build-bench/) and runs it; every workload runs in its own
# process, one after another, on one host thread.
#
#   benchmark/run.sh --workload p8-uniform [--seed S] [--seconds T] [--trace 0|1]
#       one workload; the last line of stdout is the JSON result
#   benchmark/run.sh [--seed S] [--seconds T] [--traced]
#       all four workloads: end-to-end metrics, or with --traced the
#       per-layer breakdown
#   benchmark/run.sh --sets 2 [--seed S]
#       two full end-to-end sets; prints both medians of every metric, their
#       ratio and the BENCHMARK.json bound, and fails on any disagreement
#
# Metric lines read "<workload> <metric> <value> <unit> n=<samples>". The
# default seed is 2017; 7919 is held out for checking performance claims.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-bench"
workloads=(p8-uniform p52-twitter p1024-ams p256-zipf-histogram)

usage() {
  sed -n '2,17p' "$0" >&2
  exit 2
}

workload="" seed=2017 seconds="" trace=0 sets=1
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || [ "$1" = --traced ] || usage
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --sets) sets="$2"; shift 2 ;;
    *) usage ;;
  esac
done
if [ "$sets" -gt 1 ] && { [ "$trace" != 0 ] || [ -n "$workload" ]; }; then
  echo "run.sh: --sets compares full end-to-end sets only" >&2
  exit 2
fi

# Build output goes to stderr: stdout carries only metric lines and results.
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -le 4 ] || jobs=4
{
  [ -f "$build/CMakeCache.txt" ] ||
    cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target pgxd_bench -j "$jobs"
} >&2

# Source revision for the header; "unknown" outside a git checkout. The
# ceiling keeps git from looking above the checkout.
export GIT_CEILING_DIRECTORIES="${root%/*}"
git_sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$git_sha" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
  git_sha="$git_sha-dirty"
fi

# run_one WORKLOAD RESULT_FILE: runs one workload process, passing its
# output through, and stores its JSON result line. A process that dies
# after starting jobs gets a result that counts every job it attempted as
# failed.
run_one() {
  local w="$1" result="$2" log="$build/last-run.log" status=0
  "$build/pgxd_bench" --workload "$w" --seed "$seed" --trace "$trace" \
    --git "$git_sha" ${seconds:+--seconds "$seconds"} | tee "$log" || status=$?
  if tail -n 1 "$log" | grep -q '^{"correct"'; then
    tail -n 1 "$log" > "$result"
  else
    local attempted
    attempted="$(grep -c '^# job ' "$log" || true)"
    [ "$attempted" -gt 0 ] || return "$status"
    echo "{\"correct\": false, \"attempted\": $attempted, \"failed\": $attempted, \"metrics\": {}}" |
      tee "$result"
  fi
  return "$status"
}

status=0
if [ -n "$workload" ]; then
  run_one "$workload" "$build/result.json" || status=$?
  exit "$status"
fi

rm -rf "$build/sets"
for s in $(seq 1 "$sets"); do
  mkdir -p "$build/sets/$s"
  for w in "${workloads[@]}"; do
    echo "## set $s: $w"
    run_one "$w" "$build/sets/$s/$w.json" || status=1
  done
done
if [ "$sets" -gt 1 ]; then
  python3 "$root/benchmark/compare_sets.py" "$root/BENCHMARK.json" \
    "$build"/sets/* || status=1
fi
exit "$status"
