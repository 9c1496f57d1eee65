#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite.
#
# Usage: scripts/ci.sh [build-dir] [--sanitize[=thread]] [extra cmake args...]
#   scripts/ci.sh                         # plain build + ctest in ./build
#   scripts/ci.sh build-asan --sanitize   # ASan/UBSan build + ctest
#   scripts/ci.sh build-tsan --sanitize=thread
#                                         # TSan build + the concurrency
#                                         # battery (executor / campaign /
#                                         # service tests, --jobs=4 smoke)
set -euo pipefail

cd "$(dirname "$0")/.."
# The build dir is optional; a leading flag (e.g. `ci.sh --sanitize`) must
# not be mistaken for one.
BUILD_DIR=build
if [[ $# -gt 0 && "$1" != --* ]]; then
  BUILD_DIR="$1"
  shift
fi

CMAKE_ARGS=()
SANITIZE=0
for arg in "$@"; do
  if [[ "$arg" == "--sanitize" ]]; then
    CMAKE_ARGS+=(-DFNR_SANITIZE=ON)
    SANITIZE=1
  elif [[ "$arg" == "--sanitize=thread" ]]; then
    CMAKE_ARGS+=(-DFNR_SANITIZE=thread)
    SANITIZE=thread
  else
    CMAKE_ARGS+=("$arg")
  fi
done

ROOT=$(pwd)

# An explicit job count: a bare -j starts every compile at once, which on a
# fresh sanitizer build is dozens of compilers and most of the host's memory.
JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "$BUILD_DIR" -j "$JOBS"
cd "$BUILD_DIR"

# ThreadSanitizer leg: instrumentation is 5-15x, so it runs exactly the
# concurrency surface — the executor / campaign / service test batteries
# plus a --jobs=4 campaign smoke (worker pool, shard splits, shared graph
# cache, reorder buffer all live under TSan) — and skips the perf and
# byte-identity sections the plain leg covers.
if [[ "$SANITIZE" == thread ]]; then
  ctest --output-on-failure -j \
        -R 'test_(executor|campaign|sweep|fnrd_service|service_protocol|trial_runner)'
  rm -f tsan_j1.json tsan_j4.json
  ./sweep --spec=smoke --checkpoint= --out=tsan_j1.json --quiet
  ./sweep --spec=smoke --checkpoint= --out=tsan_j4.json --jobs=4 --quiet
  diff tsan_j1.json tsan_j4.json
  echo "tsan: executor/campaign/service battery clean"
  exit 0
fi

ctest --output-on-failure -j

# Perf-suite smoke: quick cells + schema validation. Timings are
# informational only — the gate is that the suite runs and its JSON
# conforms to the fnr-perf schema (see docs/PERFORMANCE.md).
./perf_suite --quick --threads=2 --out=perf_smoke.json
./perf_suite --validate=perf_smoke.json

# Bench gate: re-measure every full-suite cell at the canonical batch
# size and fail on any cell whose rounds/sec dropped more than 30% below
# the committed BENCH_perf.json. Speedups never fail (refreshing the
# baseline after a legitimate win is a deliberate, reviewed act — see
# docs/PERFORMANCE.md). Sanitizer builds skip the gate: instrumentation
# alone is a guaranteed "regression".
if [[ "$SANITIZE" == 0 ]]; then
  ./perf_suite --batch=8 --baseline="$ROOT/BENCH_perf.json" --tolerance=0.30
else
  echo "bench gate: skipped under --sanitize"
fi

# Benchmark contract: perfbench/ compiles against public headers (the
# NeighborTable rows, View, Campaign) and checks the program's outputs, so
# a traced run must build and end with "correct": true. large-graphs covers
# the paper programs at n=2^17; swarm-gather is the only check that runs
# explore-rally at k=256 (span, own loop and Campaign must agree). It
# builds its own copy under .bench_build/, so the sanitizer leg skips it.
if [[ "$SANITIZE" == 0 ]]; then
  for WORKLOAD in large-graphs swarm-gather; do
    BENCH_LAST=$(cd "$ROOT" && python3 perfbench/run.py \
                 --workload "$WORKLOAD" --seconds 3 --trace 1 | tail -n 1)
    if [[ "$BENCH_LAST" != *'"correct": true'* ]]; then
      echo "perfbench $WORKLOAD: not correct: $BENCH_LAST" >&2
      exit 1
    fi
    echo "perfbench $WORKLOAD: correct"
  done
fi

# Sweep smoke: run a tiny campaign uninterrupted, then again "killed"
# after 2 cells (--max-cells is the deterministic stand-in for a mid-
# campaign kill; the workflow also does a real kill -9) and resumed on a
# different thread count. The merged JSON must be byte-identical — that is
# the sweep engine's determinism contract (see docs/PERFORMANCE.md).
rm -f sweep_ci_a.jsonl sweep_ci_b.jsonl sweep_ci_a.json sweep_ci_b.json
./sweep --spec=smoke --checkpoint=sweep_ci_a.jsonl --out=sweep_ci_a.json \
        --threads=2 --quiet
./sweep --spec=smoke --checkpoint=sweep_ci_b.jsonl --out=sweep_ci_b.json \
        --threads=2 --max-cells=2 --quiet
./sweep --spec=smoke --checkpoint=sweep_ci_b.jsonl --out=sweep_ci_b.json \
        --threads=1 --resume --quiet
diff sweep_ci_a.json sweep_ci_b.json

# Executor byte-identity: the same campaign at --jobs=4 (work-stealing
# cell pool) must emit byte-identical merged JSON AND byte-identical
# checkpoint lines — modulo the informational "seconds" field, the only
# wall-clock that reaches a checkpoint — to the sequential run above.
# Completion order is staged through the reorder buffer, so the pool size
# is invisible in every artifact.
rm -f sweep_ci_j4.jsonl sweep_ci_j4.json
./sweep --spec=smoke --checkpoint=sweep_ci_j4.jsonl --out=sweep_ci_j4.json \
        --jobs=4 --quiet
diff sweep_ci_a.json sweep_ci_j4.json
diff <(sed 's/,"seconds":[^,}]*//' sweep_ci_a.jsonl) \
     <(sed 's/,"seconds":[^,}]*//' sweep_ci_j4.jsonl)

# Real kill -9 mid-parallel-run: a heterogeneous grid (16x size spread,
# scan-heavy near-regular against cheap torus) big enough that the kill
# lands mid-campaign; resumed at --jobs=4 it must rebuild the exact
# --jobs=1 bytes. Growing delays walk the kill point across the run; a
# kill that lands after completion still exercises resume-on-complete.
cat > sweep_ci_kill.spec <<'SPEC'
name       = ci-kill
trials     = 64
programs   = whiteboard, random-walk
scenarios  = sync-pair
topologies = near-regular:deg=32, torus
sizes      = 1024, 16384
seeds      = 1
SPEC
rm -f kill_ref.json kill_j4.json
./sweep --spec=sweep_ci_kill.spec --checkpoint= --out=kill_ref.json --quiet
for i in 1 2 3; do
  rm -f kill_run.json kill_run.jsonl
  ./sweep --spec=sweep_ci_kill.spec --checkpoint=kill_run.jsonl \
          --out=kill_run.json --jobs=4 --quiet &
  SWEEP_PID=$!
  sleep "0.$((15 * i))"
  kill -9 "$SWEEP_PID" 2>/dev/null || true
  wait "$SWEEP_PID" 2>/dev/null || true
  ./sweep --spec=sweep_ci_kill.spec --checkpoint=kill_run.jsonl \
          --out=kill_run.json --jobs=4 --resume --quiet
  diff kill_ref.json kill_run.json
done
echo "executor smoke: --jobs=4 byte-identical (merged, checkpoint, kill -9 + resume)"

# Registry smoke: every registered program runs one tiny trial on every
# compatible scenario (the registry-smoke spec's wildcard axes resolve
# against the registries, capability masks prune incompatible pairs, and
# complete-graph programs run on the complete family) — a registration
# that crashes is caught here without a hand-curated pair list. Any
# "ok":false cell is a program that cannot execute its own registration.
./sweep --list-programs > /dev/null
./sweep --list-scenarios > /dev/null
./exp13_scenarios --list-programs > /dev/null
rm -f sweep_registry_smoke.json
./sweep --spec=registry-smoke --checkpoint= --out=sweep_registry_smoke.json \
        --threads=2 --quiet
if grep -q '"ok":false' sweep_registry_smoke.json; then
  echo "registry smoke: a registered (program, scenario) cell failed:" >&2
  grep '"ok":false' sweep_registry_smoke.json >&2
  exit 1
fi

# Fault smoke: every fault family (crash, wb-drop, wb-wipe, wb-stale,
# churn) injected into one program on one scenario, plus the fault-free
# control cell. Gates: no cell may error (a fault must degrade results,
# never crash the harness), and the campaign obeys the same byte-identity
# contract as the reliable sweep — killed after 3 cells and resumed on a
# different thread count, the merged JSON must not change by one byte
# (fault draws come from per-trial split streams, so thread count and
# resume boundaries are invisible).
rm -f fault_ci_a.jsonl fault_ci_b.jsonl fault_ci_a.json fault_ci_b.json
./sweep --spec=fault-smoke --checkpoint=fault_ci_a.jsonl \
        --out=fault_ci_a.json --threads=2 --quiet
./sweep --spec=fault-smoke --checkpoint=fault_ci_b.jsonl \
        --out=fault_ci_b.json --threads=2 --max-cells=3 --quiet
./sweep --spec=fault-smoke --checkpoint=fault_ci_b.jsonl \
        --out=fault_ci_b.json --threads=1 --resume --quiet
diff fault_ci_a.json fault_ci_b.json
if grep -q '"ok":false' fault_ci_a.json; then
  echo "fault smoke: an injected cell crashed the harness:" >&2
  grep '"ok":false' fault_ci_a.json >&2
  exit 1
fi

# Service smoke: the same campaigns served through the fnrd daemon must
# produce byte-identical merged JSON to the batch surface — across a
# mid-stream client disconnect, a daemon kill -9, and a RESUME in a fresh
# daemon process. Campaign ci-b is paused mid-campaign (--max-cells=2,
# the deterministic stand-in for a kill; its checkpoint holds 2 of the
# grid's cells) when the daemon takes a real kill -9, so RESUME exercises
# the full persisted-submit + checkpoint recovery path.
FNRD_DIR=$(mktemp -d)
FNRD_SOCK="$FNRD_DIR/sock"
FNRD_PID=0
cleanup_fnrd() {
  [[ "$FNRD_PID" != 0 ]] && kill "$FNRD_PID" 2>/dev/null || true
  rm -rf "$FNRD_DIR"
}
trap cleanup_fnrd EXIT
start_fnrd() {
  ./fnrd --socket="$FNRD_SOCK" --workdir="$FNRD_DIR" --workers=2 \
         --threads=2 --quiet "$@" &
  FNRD_PID=$!
  for _ in $(seq 1 100); do
    ./fnrc --socket="$FNRD_SOCK" --verb=status >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "fnrd smoke: daemon never started listening" >&2
  return 1
}

start_fnrd
# Two concurrent campaigns; ci-b pauses after 2 cells.
./fnrc --socket="$FNRD_SOCK" --verb=submit --campaign=ci-a --spec=smoke
./fnrc --socket="$FNRD_SOCK" --verb=submit --campaign=ci-b --spec=smoke \
       --max-cells=2
# A streaming client that disconnects mid-stream must cost nothing.
./fnrc --socket="$FNRD_SOCK" --verb=stream --campaign=ci-a --max-frames=1 \
       >/dev/null
# Follow ci-a to its end frame (replay + live), then let both settle.
./fnrc --socket="$FNRD_SOCK" --verb=stream --campaign=ci-a >/dev/null
./fnrc --socket="$FNRD_SOCK" --verb=wait --campaign=ci-a >/dev/null
./fnrc --socket="$FNRD_SOCK" --verb=wait --campaign=ci-b >/dev/null

# The real kill -9: the daemon dies holding ci-b's mid-campaign state.
kill -9 "$FNRD_PID"
wait "$FNRD_PID" 2>/dev/null || true
FNRD_PID=0

# A fresh daemon knows nothing in memory; RESUME rebuilds ci-b from its
# persisted submit frame + checkpoint and runs it to completion.
start_fnrd
./fnrc --socket="$FNRD_SOCK" --verb=resume --campaign=ci-b
./fnrc --socket="$FNRD_SOCK" --verb=wait --campaign=ci-b >/dev/null

# Both reports must match the batch bench/sweep bytes exactly (ci-a's
# comes from its report file, written before the kill; ci-b's from the
# resumed run).
./fnrc --socket="$FNRD_SOCK" --verb=report --campaign=ci-a --raw \
       > fnrd_ci_a.json
./fnrc --socket="$FNRD_SOCK" --verb=report --campaign=ci-b --raw \
       > fnrd_ci_b.json
diff sweep_ci_a.json fnrd_ci_a.json
diff sweep_ci_a.json fnrd_ci_b.json
kill "$FNRD_PID"
wait "$FNRD_PID" 2>/dev/null || true
FNRD_PID=0
echo "fnrd smoke: daemon reports byte-identical to the batch surface"

# Service parallel identity: a daemon running campaigns at --jobs=4 must
# stream the exact frame sequence of a sequential daemon — cell frames
# append to the replay log in the executor's canonical flush order, so a
# streaming client cannot tell the pool sizes apart. Fresh workdirs per
# daemon keep the campaigns independent.
rm -rf "$FNRD_DIR"
mkdir "$FNRD_DIR"
start_fnrd
./fnrc --socket="$FNRD_SOCK" --verb=submit --campaign=ci-j --spec=smoke
./fnrc --socket="$FNRD_SOCK" --verb=stream --campaign=ci-j \
       > fnrd_frames_j1.txt
./fnrc --socket="$FNRD_SOCK" --verb=report --campaign=ci-j --raw \
       > fnrd_ci_j1.json
kill "$FNRD_PID"
wait "$FNRD_PID" 2>/dev/null || true
FNRD_PID=0

rm -rf "$FNRD_DIR"
mkdir "$FNRD_DIR"
start_fnrd --jobs=4
./fnrc --socket="$FNRD_SOCK" --verb=submit --campaign=ci-j --spec=smoke
./fnrc --socket="$FNRD_SOCK" --verb=stream --campaign=ci-j \
       > fnrd_frames_j4.txt
./fnrc --socket="$FNRD_SOCK" --verb=report --campaign=ci-j --raw \
       > fnrd_ci_j4.json
kill "$FNRD_PID"
wait "$FNRD_PID" 2>/dev/null || true
FNRD_PID=0

diff fnrd_frames_j1.txt fnrd_frames_j4.txt
diff fnrd_ci_j1.json fnrd_ci_j4.json
diff sweep_ci_a.json fnrd_ci_j4.json
echo "fnrd smoke: --jobs=4 daemon frames byte-identical to sequential"
