#!/usr/bin/env bash
# Build-and-verify entry point. Usage:
#
#   scripts/check.sh                 # ASan + UBSan test suite (the default)
#   scripts/check.sh tsan            # ThreadSanitizer test suite (alias:
#                                    # thread); the TSan fleet is kept clean
#   scripts/check.sh undefined       # UBSan alone
#   scripts/check.sh release         # -O3 -DNDEBUG build + full test suite
#   scripts/check.sh record          # rewrites results/BENCH_sort.json
#                                    # from one end-to-end set and one
#                                    # traced (per-layer) set of the repo
#                                    # benchmark (benchmark/run.sh)
#   scripts/check.sh telemetry       # Release suite with PGXD_TELEMETRY=1,
#                                    # validator self-test, pgxd_sim smoke
#                                    # test with flow events + critical path
#                                    # + sampler (--strict validated; flow
#                                    # arrows and counter events asserted in
#                                    # the chrome trace; artifacts kept in
#                                    # $TELEMETRY_OUT for CI upload), and a
#                                    # <3% overhead gate on the fig5 e2e
#                                    # workload with the full causal stack on
#                                    # (median of 5 interleaved off/on pairs)
#   scripts/check.sh chaos           # crash-stop gate: release build, the
#                                    # crash/recovery/fault test suites, and
#                                    # a pgxd_sim --crash sweep (kill a rank
#                                    # at several instants x {restart, not},
#                                    # master death, recovery report
#                                    # validated against the schema)
#   scripts/check.sh scale           # partition-at-scale gate: release
#                                    # build, the balance-guarantee suite
#                                    # (partition_test, refiner harness to
#                                    # p=4096), a p=1024 histogram-refined
#                                    # pgxd_sim run and a two-level AMS
#                                    # run, both --strict validated against
#                                    # the report schema, then the
#                                    # crossover sweep to p=4096 diffed
#                                    # against results/partition_crossover.csv
#   scripts/check.sh lint            # the static-analysis wall: custom
#                                    # linter (self-test + repo), a
#                                    # PGXD_WERROR=ON build (-Wall -Wextra
#                                    # -Wshadow -Wconversion as errors), and
#                                    # clang-tidy over compile_commands.json
#                                    # when a clang-tidy binary exists
#   scripts/check.sh analyze         # the deadlock-analysis gate: protocol
#                                    # analyzer (self-test + repo), the
#                                    # wait-graph / perturbation-explorer
#                                    # suites (the wait-graph suite's
#                                    # seeded cycles must be detected and
#                                    # named), and a perturbation fuzz
#                                    # smoke (two-level AMS across seeds,
#                                    # zero false-positive aborts)
#
# Each mode gets its own build tree, so switching between them never forces
# a full reconfigure of the main build. Every mode propagates non-zero exit
# codes (set -euo pipefail; helpers never swallow a failing stage).
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-address,undefined}"
JOBS="$(nproc)"

# One configure+build path for every mode: configure_build <dir> [cmake
# options...]. A cached tree reconfigures incrementally; options differing
# from the cache (e.g. a new PGXD_SANITIZE) trigger the usual CMake rebuild.
configure_build() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
}

run_suite() {
  ctest --test-dir "$1" --output-on-failure -j "$JOBS"
}

case "$MODE" in
  release)
    configure_build build-release -DCMAKE_BUILD_TYPE=Release
    run_suite build-release
    exit 0
    ;;

  lint)
    echo "== lint 1/4: custom linter self-test (tests/lint_selftest) =="
    python3 tools/lint_pgxd.py --selftest tests/lint_selftest

    echo "== lint 2/4: custom linter over the repo =="
    python3 tools/lint_pgxd.py

    echo "== lint 3/4: warnings-as-errors build (PGXD_WERROR=ON) =="
    configure_build build-werror -DPGXD_WERROR=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

    echo "== lint 4/4: clang-tidy (checked-in .clang-tidy) =="
    TIDY=""
    for cand in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                clang-tidy-16 clang-tidy-15 clang-tidy-14; do
      if command -v "$cand" > /dev/null 2>&1; then
        TIDY="$cand"
        break
      fi
    done
    if [ -z "$TIDY" ]; then
      echo "NOTE: no clang-tidy binary on PATH — step skipped (the config"
      echo "      and compile_commands.json are ready; install clang-tidy"
      echo "      to run it: build-werror/compile_commands.json)."
      exit 0
    fi
    # Sources only; headers are covered through HeaderFilterRegex.
    git ls-files 'src/**/*.cpp' 'tests/*.cpp' 'bench/*.cpp' \
        'examples/*.cpp' 'tools/*.cpp' |
      grep -v '^tests/lint_selftest/' |
      xargs -r "$TIDY" -p build-werror --quiet --warnings-as-errors='*'
    exit 0
    ;;

  analyze)
    echo "== analyze 1/4: protocol analyzer self-test =="
    python3 tools/analyze_protocol.py --selftest tests/protocol_selftest

    echo "== analyze 2/4: protocol analyzer over the repo =="
    python3 tools/analyze_protocol.py

    configure_build build-release -DCMAKE_BUILD_TYPE=Release

    echo "== analyze 3/4: wait-graph + deadlock regression suites =="
    build-release/tests/wait_graph_test
    build-release/tests/deadlock_regression_test

    # 4. Perturbation fuzz smoke: the two-level AMS config that the
    #    explorer suite pins must survive a seed sweep with zero
    #    false-positive deadlock aborts (every seed is one deterministic
    #    alternative delivery order; pgxd_sim exits non-zero if the sort
    #    wedges or the output fails validation). Seed 7 is the seed
    #    tests/deadlock_regression_test.cpp replays. The negative controls
    #    are step 3's wait-graph cases, which build real cycles and must
    #    see them detected and named.
    TMP="$(mktemp -d /tmp/pgxd_analyze.XXXXXX)"
    trap 'rm -rf "$TMP"' EXIT
    for seed in 1 7 42; do
      echo "== analyze 4/4: perturbation smoke --perturb=$seed =="
      build-release/tools/pgxd_sim --n=60000 --p=9 --partition=two-level \
        --buffer-bytes=2048 --perturb="$seed" --perturb-jitter-ns=50 \
        > "$TMP/perturb_$seed.log"
      grep -E 'validation:|sorted' "$TMP/perturb_$seed.log" || true
    done
    echo "analyze gate passed"
    exit 0
    ;;

  chaos)
    configure_build build-release -DCMAKE_BUILD_TYPE=Release

    # 1. The crash-stop test suites: fabric crash schedule + FaultConfig
    #    validation (net_fuzz), detector / fail-fast / deadline receives
    #    (recovery), and the kill-a-rank-in-every-phase matrix plus the
    #    chaos sweep that rides in fault_injection. The binaries run
    #    directly (ctest registers individual case names, not binaries).
    for t in net_fuzz_test recovery_test fault_injection_test; do
      echo "== chaos suite: $t =="
      "build-release/tests/$t"
    done

    # 2. End-to-end kill-a-rank sweep through the CLI: several crash
    #    instants x {crash-stop forever, reboot}, plus a master (rank 0)
    #    death. Every run must re-sort on the survivors and pass the
    #    order/permutation/exactly-once validation (pgxd_sim exits non-zero
    #    otherwise); the last run's flight recorder must match the schema.
    TMP="$(mktemp -d /tmp/pgxd_chaos.XXXXXX)"
    trap 'rm -rf "$TMP"' EXIT
    for crash in "2@50" "2@120" "2@200" "2@50:2000" "2@120:2000" "0@100"; do
      echo "== chaos sweep: --crash $crash =="
      build-release/tools/pgxd_sim --n=200000 --p=5 --recovery \
        --crash="$crash" --report="$TMP/report.json" > "$TMP/run.log"
      grep -E 'recovery:|validation:' "$TMP/run.log"
    done
    python3 tools/validate_report.py "$TMP/report.json" tools/report_schema.json
    echo "chaos gate passed"
    exit 0
    ;;

  scale)
    configure_build build-release -DCMAKE_BUILD_TYPE=Release

    # 1. The statistical balance-guarantee suite: partition kernels, the
    #    multi-rank refiner harness up to p=4096 partitions, and the
    #    end-to-end epsilon-balance matrix (p=64/256/1024 simulated ranks).
    echo "== scale 1/3: partition_test (refiner harness to p=4096) =="
    build-release/tests/partition_test

    # 2. Smoke the CLI at p=1024 under both refined schemes; each run's
    #    flight recorder must pass strict schema + semantic validation
    #    (including the partition block's per-scheme invariants).
    TMP="$(mktemp -d /tmp/pgxd_scale.XXXXXX)"
    trap 'rm -rf "$TMP"' EXIT
    echo "== scale 2/3: pgxd_sim p=1024 histogram + p=256 two-level =="
    build-release/tools/pgxd_sim --n=500000 --p=1024 \
      --partition=histogram --epsilon=0.05 \
      --report="$TMP/histogram.json" > "$TMP/histogram.log"
    grep -E 'partition|validation:' "$TMP/histogram.log" || true
    python3 tools/validate_report.py --strict "$TMP/histogram.json" \
      tools/report_schema.json
    build-release/tools/pgxd_sim --n=500000 --p=256 \
      --partition=two-level \
      --report="$TMP/ams.json" > "$TMP/ams.log"
    python3 tools/validate_report.py --strict "$TMP/ams.json" \
      tools/report_schema.json

    # 3. The committed crossover table, regenerated. The simulated clock is
    #    deterministic, so any difference means a change moved a partition
    #    scheme's simulated behaviour and must regenerate the table in the
    #    same diff (rerun this command with stdout to the CSV).
    echo "== scale 3/3: crossover sweep p=64..4096 vs results/partition_crossover.csv =="
    build-release/bench/ablation_partition --n 262144 \
      --procs 64,128,256,512,1024,2048,4096 --threads 4 --csv true \
      > "$TMP/partition_crossover.csv"
    diff -u results/partition_crossover.csv "$TMP/partition_crossover.csv"
    echo "scale gate passed"
    exit 0
    ;;

  telemetry)
    configure_build build-release -DCMAKE_BUILD_TYPE=Release

    # 1. The whole tier-1 suite with every sort instrumented
    #    (SortConfig::telemetry defaults from this env var).
    PGXD_TELEMETRY=1 run_suite build-release

    # 2. The report validator's own fixture matrix (lax + strict modes).
    python3 tools/validate_report.py --selftest

    # 3. Flight-recorder smoke test: 4-rank exponential sort with the full
    #    causal stack (flow edges, critical path, time-series sampler), then
    #    strict schema + semantic validation. Artifacts land in
    #    $TELEMETRY_OUT when set (CI uploads them), else in a temp dir.
    if [ -n "${TELEMETRY_OUT:-}" ]; then
      OUT="$TELEMETRY_OUT"
      mkdir -p "$OUT"
    else
      OUT="$(mktemp -d /tmp/pgxd_telemetry.XXXXXX)"
      trap 'rm -rf "$OUT"' EXIT
    fi
    build-release/tools/pgxd_sim --dist=exponential --n=200000 --p=4 \
      --critical-path --sample-us=200 \
      --report="$OUT/report.json" --trace="$OUT/trace.json"
    python3 tools/validate_report.py --strict "$OUT/report.json" \
      tools/report_schema.json
    python3 - "$OUT/trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f: doc = json.load(f)
events = doc["traceEvents"]
complete = [e for e in events if e.get("ph") == "X"]
names = {e["name"] for e in complete}
want = {"local-sort", "sampling", "splitter-select",
        "partition-plan", "send/receive", "final-merge"}
missing = want - names
assert not missing, f"chrome trace missing steps: {missing}"
assert all("ts" in e and "dur" in e for e in complete)
# Flow arrows: every "s" start has exactly one "f" finish with the same
# (cat, id), and the finish binds to the enclosing slice ("bp": "e").
starts = {(e["cat"], e["id"]) for e in events if e.get("ph") == "s"}
finishes = {(e["cat"], e["id"]) for e in events if e.get("ph") == "f"}
assert starts, "chrome trace has no flow events"
assert starts == finishes, "unmatched flow start/finish pairs"
assert all(e.get("bp") == "e" for e in events if e.get("ph") == "f")
data_flows = sum(1 for c, _ in starts if c == "flow.data")
assert data_flows > 0, "no data-frame flow edges"
# Counter graphs from the time-series sampler.
counters = [e for e in events if e.get("ph") == "C"]
assert counters, "chrome trace has no counter events"
counter_names = {e["name"] for e in counters}
assert any(n.endswith("mailbox_depth") for n in counter_names), counter_names
print(f"OK: chrome trace has {len(complete)} spans, {len(starts)} flow "
      f"arrows ({data_flows} data), {len(counters)} counter samples")
PY

    # 4. Overhead gate: the fig5 e2e workload with telemetry off vs fully
    #    on (metrics registry + flow edges + sampler) must stay within 3%
    #    wall-clock. Runs alternate off, on for 5 pairs and the gate reads
    #    the median of the per-pair ratios: host drift between two separate
    #    blocks of runs exceeds the budget on its own.
    python3 - build-release <<'PY'
import os, statistics, subprocess, sys, time

build = sys.argv[1]
cmd = [f"{build}/bench/fig5_total_time", "--n=2097152", "--procs=8,16"]

def timed(telemetry, extra_args=()):
    env = dict(os.environ, PGXD_TELEMETRY=telemetry)
    t0 = time.monotonic()
    subprocess.run([*cmd, *extra_args], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0

ratios = []
for i in range(5):
    off = timed("0")
    on = timed("1", ["--flows=true"])
    ratios.append(on / off)
    print(f"pair {i + 1}: off {off:.3f}s, on {on:.3f}s ({on / off:.4f}x)")
ratio = statistics.median(ratios)
print(f"telemetry overhead: median per-pair ratio {ratio:.4f}x")
if ratio > 1.03:
    print(f"FAIL: telemetry overhead {ratio - 1:.1%} exceeds the 3% budget")
    sys.exit(1)
print("telemetry overhead gate passed (<3%)")
PY
    exit 0
    ;;

  record)
    # The performance record: one end-to-end set and one traced per-layer
    # set of the repo benchmark (all four workloads each, seed 2017), folded
    # into results/BENCH_sort.json with the source revision and both
    # commands. run.sh builds its own Release binary and fails if any job's
    # output check fails, so a record only holds passing runs.
    SEED=2017
    E2E=(bash benchmark/run.sh --seed "$SEED")
    TRACED=(bash benchmark/run.sh --seed "$SEED" --traced)
    TMP="$(mktemp -d /tmp/pgxd_record.XXXXXX)"
    trap 'rm -rf "$TMP"' EXIT
    "${E2E[@]}"
    cp -r build-bench/sets/1 "$TMP/end_to_end"
    "${TRACED[@]}"
    cp -r build-bench/sets/1 "$TMP/per_layer"
    GIT_SHA="$(git rev-parse --short HEAD)"
    git diff --quiet HEAD || GIT_SHA="$GIT_SHA-dirty"
    python3 - "$TMP" results/BENCH_sort.json "$GIT_SHA" "$SEED" \
      "${E2E[*]}" "${TRACED[*]}" <<'PY'
import json, os, sys
tmp, out, git_sha, seed, e2e_cmd, traced_cmd = sys.argv[1:]

def results(pass_dir):
    res = {}
    for name in sorted(os.listdir(pass_dir)):
        with open(os.path.join(pass_dir, name)) as f:
            res[name[:-len(".json")]] = json.load(f)
    return res

record = {
    "git_sha": git_sha,
    "seed": int(seed),
    "commands": {"end_to_end": e2e_cmd, "per_layer": traced_cmd},
    "end_to_end": results(os.path.join(tmp, "end_to_end")),
    "per_layer": results(os.path.join(tmp, "per_layer")),
}
with open(out, "w") as f:
    json.dump(record, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
PY
    exit 0
    ;;

  tsan)
    MODE="thread"
    ;;
esac

# Sanitizer modes: configure, build, and run the full test suite under the
# given sanitizer(s).
SAN="$MODE"
BUILD_DIR="build-san-${SAN//,/-}"

configure_build "$BUILD_DIR" -DPGXD_SANITIZE="$SAN" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

# abort_on_error/halt_on_error make sanitizer findings fail the test process
# the same way PGXD_CHECK does; detect_leaks stays on wherever ASan supports
# it. TSan keeps its history buffer large enough for the merge-tree tests'
# long synchronization chains.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:history_size=7}"

run_suite "$BUILD_DIR"
