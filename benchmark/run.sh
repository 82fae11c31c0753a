#!/usr/bin/env bash
# netmon benchmark: builds netmon from this checkout and runs workloads.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload; the last stdout line is the JSON result.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       Every workload untraced; with --trace each also runs traced and
#       the tracing overhead of every end-to-end metric is printed.
#   benchmark/run.sh --smoke
#       Every workload at a tiny size, traced and untraced, then a
#       self-check of the results against BENCHMARK.json.
#
# Results, spans and the build live under benchmark/out/.
set -euo pipefail

cd "$(dirname "$0")/.."
out=benchmark/out
build=$out/build
workloads=(serve_miss serve_fleet measure_loop scale_exact scale_approx)

workload=""
seed=1
seconds=10
trace=""
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=${2:?--workload needs a name}; shift 2 ;;
    --seed) seed=${2:?--seed needs a number}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a number}; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace=$2; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f src/CMakeLists.txt ] || [ ! -f CMakeLists.txt ]; then
  echo "run.sh: netmon sources not found in $PWD" >&2
  exit 1
fi

mkdir -p "$out"
# Configure once; later builds re-run CMake themselves when a list changes.
if ! { { [ -f "$build/CMakeCache.txt" ] || cmake -S benchmark -B "$build"; } &&
       cmake --build "$build" --target netmon_bench -j "$(nproc)"; } \
       > "$out/build.log" 2>&1; then
  tail -n 40 "$out/build.log" >&2
  echo "run.sh: build failed (log: $out/build.log)" >&2
  exit 1
fi
bin=$build/netmon_bench

git_id=none
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ] &&
   sha=$(git rev-parse HEAD 2>/dev/null); then
  git_id=$sha
  if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    git_id=$sha-dirty
  fi
fi

modes=(0)
if [ "$smoke" = 1 ]; then
  out=$out/smoke
  modes=(0 1)
elif [ "$trace" = 1 ]; then
  modes=(0 1)
fi
common=(--seed "$seed" --seconds "$seconds" --out "$out" --git "$git_id")
[ "$smoke" = 1 ] && common+=(--smoke)

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --trace "${trace:-0}" "${common[@]}"
fi

status=0
rm -f "$out"/result_*.json
for w in "${workloads[@]}"; do
  for t in "${modes[@]}"; do
    "$bin" --workload "$w" --trace "$t" "${common[@]}" || status=1
  done
  if [ "${#modes[@]}" = 2 ]; then
    python3 benchmark/report.py overhead \
      "$out/result_${w}_trace0.json" "$out/result_${w}_trace1.json" || status=1
  fi
done
if [ "$smoke" = 1 ]; then
  python3 benchmark/report.py check BENCHMARK.json "$out"/result_*.json ||
    status=1
fi
exit $status
