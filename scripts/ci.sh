#!/usr/bin/env bash
# CI entry point: tier-1 verify (full build + ctest) plus three sanitizer
# legs — a ThreadSanitizer build of the parallel execution subsystem
# (the correctness gate for src/runtime/ and everything layered on it,
# now including the TCP transport and the multi-tenant RCU registry /
# solve cache), an AddressSanitizer build of the flat-CSR linalg kernels,
# the zero-allocation solver hot path, its feasible-set projection and
# its certificate fill (selection over a reused item buffer), and the
# wire codec + TCP frame
# reassembly fuzz suites (the gate for src/linalg/ span/pointer
# arithmetic, workspace reuse, and byte-level decode) plus the
# incremental re-routing differential suite, and a UBSan
# build of the fused batch
# kernels, solver and certificate — including the explicit AVX2/AVX-512 intrinsic TUs
# via opt_simd_dispatch_test (the gate for the branch-free select
# arithmetic in src/core/utility_kernels.hpp and the intrinsic kernels)
# and the flat SPF kernel / re-routing suite.
# A dedicated -march=x86-64-v3 leg then rebuilds the tree with the wider
# baseline ISA and runs the SIMD suites at EVERY dispatch level
# (NETMON_SIMD=scalar|avx2|avx512|auto), so cross-level bit-identity is
# checked even when the compiler may auto-vectorize the scalar paths.
# The obs gate validates the artifacts of traced example runs, and the
# perf gate compares the solver/scaling/ingest/serve perf benches
# against their committed BENCH_*.json baselines. Finally the benchmark
# driver is built and smoke-run (benchmark/run.sh --smoke: every
# workload at a tiny size, traced and untraced, then its output checks —
# TCP vs in-process bit identity, cache hit accounting, KKT /
# certificate gaps), so a serving-API change that breaks
# benchmark/src/ fails here rather than at benchmark time.
#
# Usage: scripts/ci.sh [build-dir-prefix]
set -euo pipefail

cd "$(dirname "$0")/.."
PREFIX="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Anchored ctest regex matching exactly the named tests: ^(a|b|...)$.
# Each leg writes its test list once and derives the -R filter from it.
test_regex() {
  local IFS='|'
  echo "^($*)\$"
}

echo "== tier-1: build + full test suite =="
cmake -B "${PREFIX}" -S .
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "== tier-2: TSan gate on the runtime + serving + tenant subsystems =="
TSAN_TESTS="runtime_thread_pool_test runtime_parallel_test \
core_batch_solver_test sampling_simulation_test serve_service_test \
serve_stress_test obs_ring_test obs_metrics_test serve_obs_test \
control_tracker_test control_policy_test control_actuator_test \
control_loop_test opt_parallel_solve_test core_approx_test \
core_scale_smoke_test ingest_pipeline_test \
serve_tcp_test tenant_registry_test tenant_cache_test \
tenant_service_test"
cmake -B "${PREFIX}-tsan" -S . -DNETMON_SANITIZE=thread
# shellcheck disable=SC2086
cmake --build "${PREFIX}-tsan" -j "${JOBS}" --target ${TSAN_TESTS}
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  -R "$(test_regex ${TSAN_TESTS})"

echo "== tier-2: ASan gate on linalg kernels + solver + wire decoding =="
ASAN_TESTS="linalg_sparse_test opt_objective_test opt_gradient_projection_test \
opt_constraints_test opt_certificate_test opt_zero_alloc_test core_solver_test \
estimate_flow_inversion_test serve_wire_test serve_tcp_fuzz_test \
routing_reroute_test"
cmake -B "${PREFIX}-asan" -S . -DNETMON_SANITIZE=address
# shellcheck disable=SC2086
cmake --build "${PREFIX}-asan" -j "${JOBS}" --target ${ASAN_TESTS}
ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
  -R "$(test_regex ${ASAN_TESTS})"

echo "== tier-2: UBSan gate on the fused batch kernels + solver =="
UBSAN_TESTS="core_utility_test opt_fused_eval_test opt_objective_test \
opt_gradient_projection_test opt_constraints_test opt_certificate_test \
core_solver_test \
opt_simd_dispatch_test routing_reroute_test"
cmake -B "${PREFIX}-ubsan" -S . -DNETMON_SANITIZE=undefined
# shellcheck disable=SC2086
cmake --build "${PREFIX}-ubsan" -j "${JOBS}" --target ${UBSAN_TESTS}
ctest --test-dir "${PREFIX}-ubsan" --output-on-failure -j "${JOBS}" \
  -R "$(test_regex ${UBSAN_TESTS})"

echo "== tier-2: x86-64-v3 leg — SIMD suites at every dispatch level =="
# The wider baseline ISA lets the compiler auto-vectorize every TU; the
# explicit kernels must still be bit-identical to the (-fno-tree-
# vectorize pinned) scalar reference at every runtime level. Unsupported
# levels clamp to the hardware maximum, so the env sweep is safe on
# AVX2-only machines.
SIMD_TESTS="opt_simd_dispatch_test opt_fused_eval_test core_utility_test \
opt_objective_test"
cmake -B "${PREFIX}-v3" -S . -DCMAKE_CXX_FLAGS="-march=x86-64-v3"
# shellcheck disable=SC2086
cmake --build "${PREFIX}-v3" -j "${JOBS}" --target ${SIMD_TESTS}
for level in scalar avx2 avx512 auto; do
  echo "-- NETMON_SIMD=${level} --"
  NETMON_SIMD="${level}" ctest --test-dir "${PREFIX}-v3" \
    --output-on-failure -j "${JOBS}" \
    -R "$(test_regex ${SIMD_TESTS})"
done

echo "== obs gate: traced run artifacts (trace/metrics/flight/control) =="
cmake --build "${PREFIX}" -j "${JOBS}" --target operations_center \
  continuous_operation ingest_replay
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "${OBS_DIR}"' EXIT
NETMON_OBS_DIR="${OBS_DIR}" "${PREFIX}/examples/operations_center" >/dev/null
NETMON_OBS_DIR="${OBS_DIR}" "${PREFIX}/examples/continuous_operation" \
  >/dev/null
NETMON_OBS_DIR="${OBS_DIR}" "${PREFIX}/examples/ingest_replay" >/dev/null
scripts/check_obs.sh "${OBS_DIR}"

echo "== perf gate: solver + scaling + ingest + serve perf vs baselines =="
cmake --build "${PREFIX}" -j "${JOBS}" --target solver_perf scaling_perf \
  ingest_perf serve_perf
scripts/perf_gate.sh "${PREFIX}"

echo "== benchmark smoke: driver build + tiny run of every workload =="
benchmark/run.sh --smoke

echo "CI OK"
