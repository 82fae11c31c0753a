#!/usr/bin/env bash
# Perf gate: reruns the solver_perf kernel sections (fixed seeds, min-
# over-blocks timing) three times and compares the best of the three runs
# per tracked metric against the committed baseline BENCH_solver.json.
# Fails on a >20% regression — slower for the ns-scale kernel timings,
# fewer GEANT cold solves per second — on any scalar/SIMD bit-identity
# mismatch at any dispatch level in any run, and on simd_speedup below
# its hard 1.3x floor (when a vector level is available; 4.0x is the
# warn-only target).
# A second section reruns scaling_perf (the 100k+-link instance) against
# BENCH_scaling.json: the certified approximation gap is a hard <= 1%
# cap, the 8-thread intra-solve speedup has a >= 2x floor on machines
# with >= 8 hardware threads, and the scale timings get a wider (50%)
# regression band — second-scale wall times on a shared machine are
# noisier than the ns-scale kernel minima.
# A third section reruns ingest_perf against BENCH_ingest.json: the
# lossless pipeline must consume exactly the packets its sources offered
# on every run; the >= 1M pkts/sec throughput floor applies on machines
# with >= 4 hardware threads; and the throughput row gets the same 50%
# band as the scale timings.
# A fourth section reruns serve_perf against BENCH_serve.json: the
# cache-hit replay must be bit-identical and must not move the solver
# invocation counter (both hard correctness bits measured per run), the
# exact-hit speedup has a >= 5x floor, the warm-start iteration savings
# from the nearest cached neighbour have a >= 10% floor, and the
# loopback/TCP requests-per-second rows get the wide 50% band.
#
# Usage: scripts/perf_gate.sh [build-dir]
#        (expects solver_perf + scaling_perf + ingest_perf + serve_perf
#        built)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BASELINE="BENCH_solver.json"
SCALING_BASELINE="BENCH_scaling.json"
INGEST_BASELINE="BENCH_ingest.json"
SERVE_BASELINE="BENCH_serve.json"
BIN="${BUILD}/bench/solver_perf"
SCALING_BIN="${BUILD}/bench/scaling_perf"
INGEST_BIN="${BUILD}/bench/ingest_perf"
SERVE_BIN="${BUILD}/bench/serve_perf"

[ -f "${BASELINE}" ] || { echo "perf_gate: missing ${BASELINE}"; exit 1; }
[ -x "${BIN}" ] || { echo "perf_gate: ${BIN} not built"; exit 1; }

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SCALING_TMP="${TMP_DIR}/scaling.json"
INGEST_TMP="${TMP_DIR}/ingest.json"
SERVE_TMP="${TMP_DIR}/serve.json"
# The ns-scale kernel rows move by more than the 20% band from one run
# to the next on a shared machine, so the section runs three times and
# each baseline comparison takes the best run per key. The floors and
# caps below read the first run.
KERNEL_RUNS=(1 2 3)
for run in "${KERNEL_RUNS[@]}"; do
  NETMON_PERF_KERNELS_ONLY=1 NETMON_BENCH_JSON="${TMP_DIR}/kernels.${run}.json" \
    "${BIN}" >/dev/null
done
TMP="${TMP_DIR}/kernels.1.json"

# The bench JSON is one flat object per line with "key":number metrics,
# so plain grep extraction works without a JSON parser.
extract() { # file key -> first numeric value for the key
  grep -o "\"$2\":[0-9.eE+-]*" "$1" | head -1 | cut -d: -f2
}

# best <key> <lower|higher> -> the key's best value over the kernel runs
# (the minimum for lower-is-better keys, the maximum otherwise).
best() {
  local run
  for run in "${KERNEL_RUNS[@]}"; do
    extract "${TMP_DIR}/kernels.${run}.json" "$1"
  done | awk -v d="$2" 'NF { if (n++ == 0 || (d == "lower" ? $1 < b : $1 > b)) b = $1 }
                        END { if (n) print b }'
}

TOL=1.20 # 20% regression budget
fail=0

# check <key> <lower|higher> — lower: new must be <= old * TOL;
# higher: new must be >= old / TOL. `new` is the best kernel run.
check() {
  local key="$1" dir="$2" old new
  old="$(extract "${BASELINE}" "${key}")"
  new="$(best "${key}" "${dir}")"
  if [ -z "${old}" ] || [ -z "${new}" ]; then
    echo "perf_gate: FAIL ${key}: missing (baseline='${old}' new='${new}')"
    fail=1
    return
  fi
  if awk -v o="${old}" -v n="${new}" -v t="${TOL}" -v d="${dir}" \
      'BEGIN { ok = (d == "lower") ? (n <= o * t) : (n >= o / t);
               exit ok ? 0 : 1 }'; then
    printf 'perf_gate: ok   %-22s baseline=%-12s new=%s\n' \
      "${key}" "${old}" "${new}"
  else
    printf 'perf_gate: FAIL %-22s baseline=%-12s new=%s (>20%% regression)\n' \
      "${key}" "${old}" "${new}"
    fail=1
  fi
}

# Kernel latencies: lower is better.
check spmv_ns lower
check spmv_t_ns lower
check value_ns lower
check gradient_ns lower
check eval_fused_ns lower
check grad_hess_ns lower
check ls_probe_ns lower

# Solver throughput, GEANT cold solves per second: higher is better.
check geant_solves_per_sec higher

# The fusion win is gated on its absolute acceptance floor (>= 2x)
# rather than the baseline ratio: the separate-path denominator is the
# slow branchy pre-fusion path, whose timing is too noisy for a 20%
# relative band, while the fused numerator is already gated above.
speedup="$(extract "${TMP}" eval_path_speedup)"
if awk -v s="${speedup:-0}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }'; then
  echo "perf_gate: ok   eval_path_speedup      ${speedup} (floor 2.0)"
else
  echo "perf_gate: FAIL eval_path_speedup      ${speedup} (< 2.0 floor)"
  fail=1
fi

# Observability tax: the warm fused GEANT solve with trace + counters +
# histogram attached must stay within an absolute 3% of the
# uninstrumented throughput. Absolute, like the speedup floor: the
# overhead is a ratio of two same-run timings, so it needs no baseline.
overhead="$(extract "${TMP}" obs_overhead_pct)"
if awk -v o="${overhead:-100}" 'BEGIN { exit (o <= 3.0) ? 0 : 1 }'; then
  echo "perf_gate: ok   obs_overhead_pct       ${overhead} (cap 3.0)"
else
  echo "perf_gate: FAIL obs_overhead_pct       ${overhead} (> 3.0 cap)"
  fail=1
fi

# Scalar/SIMD dispatch must stay bit-identical — a correctness bit, not
# a perf number: any mismatch at any level in any sweep row of any run
# fails outright (the bench aggregates every row into the headline
# metric).
identical=1
for run in "${KERNEL_RUNS[@]}"; do
  [ "$(extract "${TMP_DIR}/kernels.${run}.json" bit_identical)" = "1" ] ||
    identical=0
done
if [ "${identical}" != "1" ]; then
  echo "perf_gate: FAIL bit_identical: scalar vs SIMD kernels diverged"
  fail=1
else
  echo "perf_gate: ok   bit_identical"
fi

# Explicit-SIMD throughput on the headline 4096-term fused path
# (regime-partitioned SRE, the solver-shaped layout). Hard floor 1.3x —
# a vectorized kernel slower than that means the dispatch is mis-wired —
# and a 4.0x target that only warns, since the achievable ratio is
# hardware-dependent. Both gated on a vector level actually being
# available in this build + on this CPU (simd_level >= 1).
simd_level="$(extract "${TMP}" simd_level)"
simd_speedup="$(extract "${TMP}" simd_speedup)"
if awk -v l="${simd_level:-0}" 'BEGIN { exit (l >= 1) ? 0 : 1 }'; then
  if awk -v s="${simd_speedup:-0}" 'BEGIN { exit (s >= 1.3) ? 0 : 1 }'; then
    if awk -v s="${simd_speedup:-0}" 'BEGIN { exit (s >= 4.0) ? 0 : 1 }'; then
      echo "perf_gate: ok   simd_speedup           ${simd_speedup} (floor 1.3, target 4.0)"
    else
      echo "perf_gate: warn simd_speedup           ${simd_speedup} (>= 1.3 floor, < 4.0 target)"
    fi
  else
    echo "perf_gate: FAIL simd_speedup           ${simd_speedup} (< 1.3 floor, level=${simd_level})"
    fail=1
  fi
else
  echo "perf_gate: skip simd_speedup           (simd_level=${simd_level:-?}: no vector level)"
fi

# ---- scaling section: the 100k+-link instance -------------------------

[ -f "${SCALING_BASELINE}" ] || {
  echo "perf_gate: missing ${SCALING_BASELINE}"; exit 1; }
[ -x "${SCALING_BIN}" ] || {
  echo "perf_gate: ${SCALING_BIN} not built"; exit 1; }
NETMON_BENCH_JSON="${SCALING_TMP}" "${SCALING_BIN}" >/dev/null || {
  echo "perf_gate: FAIL scaling_perf exited nonzero (gap or bit-identity)"
  fail=1
}

# Certified approximation gap: a hard absolute cap at the tier's 1%
# target — accuracy is measured per run, never trusted from the baseline.
gap_rel="$(extract "${SCALING_TMP}" gap_rel)"
if awk -v g="${gap_rel:-1}" 'BEGIN { exit (g <= 0.01) ? 0 : 1 }'; then
  echo "perf_gate: ok   gap_rel                ${gap_rel} (cap 0.01)"
else
  echo "perf_gate: FAIL gap_rel                ${gap_rel} (> 0.01 cap)"
  fail=1
fi

# The parallel exact solve must stay bit-identical to serial at scale.
solve_identical="$(extract "${SCALING_TMP}" solve_bit_identical)"
if [ "${solve_identical}" != "1" ]; then
  echo "perf_gate: FAIL solve_bit_identical: 1t vs 8t solves diverged"
  fail=1
else
  echo "perf_gate: ok   solve_bit_identical"
fi

# Intra-solve speedup floor: >= 2x at 8 threads — only meaningful when
# the machine actually has 8 hardware threads to run them on.
hw="$(extract "${SCALING_TMP}" hw_threads)"
speedup8="$(extract "${SCALING_TMP}" intra_speedup_8t)"
if awk -v h="${hw:-0}" 'BEGIN { exit (h >= 8) ? 0 : 1 }'; then
  if awk -v s="${speedup8:-0}" 'BEGIN { exit (s >= 2.0) ? 0 : 1 }'; then
    echo "perf_gate: ok   intra_speedup_8t       ${speedup8} (floor 2.0)"
  else
    echo "perf_gate: FAIL intra_speedup_8t       ${speedup8} (< 2.0 floor)"
    fail=1
  fi
else
  echo "perf_gate: skip intra_speedup_8t       ${speedup8} (hw_threads=${hw} < 8)"
fi

# Scale wall times: wider 50% regression band (seconds-scale, noisier).
TOL=1.50
check_scaling() { # key — scale timing, lower is better, vs scaling baseline
  local key="$1" old new
  old="$(extract "${SCALING_BASELINE}" "${key}")"
  new="$(extract "${SCALING_TMP}" "${key}")"
  if [ -z "${old}" ] || [ -z "${new}" ]; then
    echo "perf_gate: FAIL ${key}: missing (baseline='${old}' new='${new}')"
    fail=1
    return
  fi
  if awk -v o="${old}" -v n="${new}" -v t="${TOL}" \
      'BEGIN { exit (n <= o * t) ? 0 : 1 }'; then
    printf 'perf_gate: ok   %-22s baseline=%-12s new=%s\n' \
      "${key}" "${old}" "${new}"
  else
    printf 'perf_gate: FAIL %-22s baseline=%-12s new=%s (>50%% regression)\n' \
      "${key}" "${old}" "${new}"
    fail=1
  fi
}
check_scaling gen_ms
check_scaling build_ms
check_scaling approx_ms
check_scaling solve1_ms

# ---- ingest section: packet pipeline throughput -----------------------

[ -f "${INGEST_BASELINE}" ] || {
  echo "perf_gate: missing ${INGEST_BASELINE}"; exit 1; }
[ -x "${INGEST_BIN}" ] || {
  echo "perf_gate: ${INGEST_BIN} not built"; exit 1; }
NETMON_BENCH_JSON="${INGEST_TMP}" "${INGEST_BIN}" >/dev/null || {
  echo "perf_gate: FAIL ingest_perf exited nonzero (packets lost)"
  fail=1
}

# The lossless pipeline must deliver every offered packet — a
# correctness bit measured per run, never trusted from the baseline.
offered="$(extract "${INGEST_TMP}" offered_packets)"
consumed="$(extract "${INGEST_TMP}" consumed_packets)"
if [ -n "${offered}" ] && [ "${offered}" = "${consumed}" ]; then
  echo "perf_gate: ok   offered == consumed    ${offered} (lossless)"
else
  echo "perf_gate: FAIL offered == consumed    offered='${offered}' consumed='${consumed}'"
  fail=1
fi

# Throughput floor: >= 1M pkts/sec through the full pipeline — only
# demanded when the machine has >= 4 hardware threads to run the
# pipeline's tasks and the calling thread on.
ingest_hw="$(extract "${INGEST_TMP}" hw_threads)"
pkts_per_sec="$(extract "${INGEST_TMP}" ingest_pkts_per_sec)"
if awk -v h="${ingest_hw:-0}" 'BEGIN { exit (h >= 4) ? 0 : 1 }'; then
  if awk -v p="${pkts_per_sec:-0}" 'BEGIN { exit (p >= 1e6) ? 0 : 1 }'; then
    echo "perf_gate: ok   ingest_pkts_per_sec    ${pkts_per_sec} (floor 1e6)"
  else
    echo "perf_gate: FAIL ingest_pkts_per_sec    ${pkts_per_sec} (< 1e6 floor)"
    fail=1
  fi
else
  echo "perf_gate: skip ingest_pkts_per_sec floor (hw_threads=${ingest_hw} < 4)"
fi

# Regression band vs the committed baseline: higher is better, with the
# wide 50% band — seconds-scale pipeline runs share the scaling section's
# noise profile, not the kernel minima's.
check_ingest() { # key — throughput metric, higher is better
  local key="$1" old new
  old="$(extract "${INGEST_BASELINE}" "${key}")"
  new="$(extract "${INGEST_TMP}" "${key}")"
  if [ -z "${old}" ] || [ -z "${new}" ]; then
    echo "perf_gate: FAIL ${key}: missing (baseline='${old}' new='${new}')"
    fail=1
    return
  fi
  if awk -v o="${old}" -v n="${new}" -v t="${TOL}" \
      'BEGIN { exit (n >= o / t) ? 0 : 1 }'; then
    printf 'perf_gate: ok   %-22s baseline=%-12s new=%s\n' \
      "${key}" "${old}" "${new}"
  else
    printf 'perf_gate: FAIL %-22s baseline=%-12s new=%s (>50%% regression)\n' \
      "${key}" "${old}" "${new}"
    fail=1
  fi
}
check_ingest ingest_pkts_per_sec

# ---- serve section: transport throughput + the tenant solve cache ----

[ -f "${SERVE_BASELINE}" ] || {
  echo "perf_gate: missing ${SERVE_BASELINE}"; exit 1; }
[ -x "${SERVE_BIN}" ] || {
  echo "perf_gate: ${SERVE_BIN} not built"; exit 1; }
NETMON_BENCH_JSON="${SERVE_TMP}" "${SERVE_BIN}" >/dev/null

# Exact hits must replay the solved answer bit-identically... —
# correctness bits measured per run, never trusted from the baseline.
hit_identical="$(extract "${SERVE_TMP}" hit_bit_identical)"
if [ "${hit_identical}" != "1" ]; then
  echo "perf_gate: FAIL hit_bit_identical: cached replay diverged"
  fail=1
else
  echo "perf_gate: ok   hit_bit_identical"
fi
# ...and without invoking the solver (the invocation counter is the
# acceptance probe: it must not move while hits are served).
no_solve="$(extract "${SERVE_TMP}" hits_no_solve)"
if [ "${no_solve}" != "1" ]; then
  echo "perf_gate: FAIL hits_no_solve: cache hits invoked the solver"
  fail=1
else
  echo "perf_gate: ok   hits_no_solve"
fi

# Replaying from the cache must beat solving by a wide margin: a hit is
# a sharded-map lookup + response copy vs. a full GEANT solve. The 5x
# floor is absolute (measured per run); typical is two orders.
hit_speedup="$(extract "${SERVE_TMP}" cache_hit_speedup)"
if awk -v s="${hit_speedup:-0}" 'BEGIN { exit (s >= 5.0) ? 0 : 1 }'; then
  echo "perf_gate: ok   cache_hit_speedup      ${hit_speedup} (floor 5.0)"
else
  echo "perf_gate: FAIL cache_hit_speedup      ${hit_speedup} (< 5.0 floor)"
  fail=1
fi

# Warm-starting from the nearest cached neighbour must save iterations
# (the donor must actually have been used). >= 10% floor; typical ~40%.
donor_used="$(extract "${SERVE_TMP}" warm_donor_used)"
savings="$(extract "${SERVE_TMP}" warm_iter_savings_pct)"
if [ "${donor_used}" != "1" ]; then
  echo "perf_gate: FAIL warm_donor_used: nearest() donated nothing"
  fail=1
elif awk -v s="${savings:-0}" 'BEGIN { exit (s >= 10.0) ? 0 : 1 }'; then
  echo "perf_gate: ok   warm_iter_savings_pct  ${savings} (floor 10.0)"
else
  echo "perf_gate: FAIL warm_iter_savings_pct  ${savings} (< 10.0 floor)"
  fail=1
fi

# Throughput rows vs. the committed baseline: higher is better, wide
# 50% band (wall-clock request floods share the ingest noise profile).
check_serve() { # key — throughput metric, higher is better
  local key="$1" old new
  old="$(extract "${SERVE_BASELINE}" "${key}")"
  new="$(extract "${SERVE_TMP}" "${key}")"
  if [ -z "${old}" ] || [ -z "${new}" ]; then
    echo "perf_gate: FAIL ${key}: missing (baseline='${old}' new='${new}')"
    fail=1
    return
  fi
  if awk -v o="${old}" -v n="${new}" -v t="${TOL}" \
      'BEGIN { exit (n >= o / t) ? 0 : 1 }'; then
    printf 'perf_gate: ok   %-22s baseline=%-12s new=%s\n' \
      "${key}" "${old}" "${new}"
  else
    printf 'perf_gate: FAIL %-22s baseline=%-12s new=%s (>50%% regression)\n' \
      "${key}" "${old}" "${new}"
    fail=1
  fi
}
check_serve loopback_reqs_per_sec
check_serve tcp_reqs_per_sec

[ "${fail}" -eq 0 ] && echo "perf_gate: PASS" || echo "perf_gate: FAIL"
exit "${fail}"
