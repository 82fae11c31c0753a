#!/usr/bin/env bash
# Validates the observability artifacts a traced run leaves behind in
# $1 (the NETMON_OBS_DIR handed to examples/operations_center):
#   trace.jsonl   — per-iteration solver trace, schema-complete lines,
#                   a known step kind on every line, one final summary
#                   record per solve with KKT fields,
#   metrics.prom  — Prometheus 0.0.4 text: serve + solver families plus
#                   the multi-tenant netmon_cache_* / netmon_tenant_*
#                   families with plausible accounting, cumulative
#                   buckets ending at +Inf == _count,
#   flight.jsonl  — flight-recorder events covering the request
#                   lifecycle (admit through solve_done, plus cache,
#                   quota, and tenant-swap events), timestamps
#                   non-decreasing.
# When the continuous-operation demo also ran into the same directory,
# its control-loop artifacts are validated too:
#   control_flight.jsonl  — control events (track/resolve/reconfig),
#                           at least one reconfiguration, per-bin
#                           timestamps non-decreasing,
#   control_metrics.prom  — netmon_control_* counter and histogram
#                           families with the same bucket invariants.
#
# Usage: scripts/check_obs.sh <obs-dir>
set -euo pipefail

DIR="${1:?usage: scripts/check_obs.sh <obs-dir>}"
fail=0

ok()   { printf 'check_obs: ok   %s\n' "$1"; }
bad()  { printf 'check_obs: FAIL %s\n' "$1"; fail=1; }

for f in trace.jsonl metrics.prom flight.jsonl; do
  [ -s "${DIR}/${f}" ] && ok "${f} exists and is non-empty" \
                       || bad "${f} missing or empty"
done
[ "${fail}" -eq 0 ] || { echo "check_obs: FAIL"; exit 1; }

# -- trace.jsonl: every line carries the full iteration schema. --
TRACE_KEYS='"solve": "iter": "final": "fused": "status": "kind": "value":
"grad_inf": "proj_grad_norm": "step": "active_set": "restriction_terms":
"kkt_lambda": "kkt_residual":'
# shellcheck disable=SC2086
if awk -v keys="$(echo ${TRACE_KEYS})" '
    BEGIN { n = split(keys, want, " ") }
    { for (i = 1; i <= n; ++i) if (index($0, want[i]) == 0) {
        printf "line %d missing %s\n", NR, want[i]; exit 1 } }
  ' "${DIR}/trace.jsonl"; then
  ok "trace.jsonl lines carry the full schema"
else
  bad "trace.jsonl schema incomplete"
fi

# Every record names its step kind; the summary records, and only they,
# are "summary".
if awk '
    { if (!match($0, /"kind":"[a-z]*"/)) { printf "line %d: no kind\n", NR; exit 1 }
      kind = substr($0, RSTART + 8, RLENGTH - 9)
      if (kind !~ /^(face|arc|release|optimal|certified|summary)$/) {
        printf "line %d: unknown kind %s\n", NR, kind; exit 1 }
      final = index($0, "\"final\":true") > 0
      if (final != (kind == "summary")) {
        printf "line %d: kind %s on final=%d\n", NR, kind, final; exit 1 } }
  ' "${DIR}/trace.jsonl"; then
  ok "trace.jsonl records carry known step kinds"
else
  bad "trace.jsonl step kinds invalid"
fi

finals="$(grep -c '"final":true' "${DIR}/trace.jsonl" || true)"
if [ "${finals}" -ge 1 ]; then
  ok "trace.jsonl has ${finals} final summary record(s)"
else
  bad "trace.jsonl has no final summary record"
fi
# The final records report the converged KKT state, not NaN placeholders.
# (Single grep — a `grep | grep -q` pipe dies by SIGPIPE under pipefail
# once -q short-circuits. kkt_residual follows "final" on the line.)
if grep -q '"final":true.*"kkt_residual":-\{0,1\}[0-9]' \
    "${DIR}/trace.jsonl"; then
  ok "final records carry numeric KKT residuals"
else
  bad "final records lack numeric KKT residuals"
fi

# -- metrics.prom: families, types, and cumulative bucket invariants. --
for family in netmon_serve_submitted_total netmon_serve_served_total \
              netmon_serve_batches_total netmon_solver_solves_total \
              netmon_solver_iterations_total; do
  grep -q "^${family} " "${DIR}/metrics.prom" \
    && ok "metrics.prom exports ${family}" \
    || bad "metrics.prom missing ${family}"
done
for hist in netmon_serve_queue_ms netmon_serve_batch_size \
            netmon_solver_iterations; do
  grep -q "^# TYPE ${hist} histogram$" "${DIR}/metrics.prom" \
    && ok "metrics.prom declares histogram ${hist}" \
    || bad "metrics.prom missing histogram ${hist}"
done
# Buckets must be cumulative (non-decreasing in le order, the export
# order) and the +Inf bucket must equal _count for every histogram.
if awk '
    /_bucket\{le="/ {
      name = $1; sub(/_bucket\{.*/, "", name)
      if (name != cur) { cur = name; prev = -1 }
      if ($2 + 0 < prev) { printf "%s buckets not cumulative\n", cur; bad = 1 }
      prev = $2 + 0
      if (index($1, "le=\"+Inf\"")) inf[cur] = $2 + 0
    }
    /_count / { name = $1; sub(/_count$/, "", name); cnt[name] = $2 + 0 }
    END {
      for (h in inf) if (!(h in cnt) || inf[h] != cnt[h]) {
        printf "%s +Inf bucket %d != count %d\n", h, inf[h], cnt[h]; bad = 1 }
      exit bad ? 1 : 0
    }
  ' "${DIR}/metrics.prom"; then
  ok "metrics.prom buckets cumulative, +Inf == _count"
else
  bad "metrics.prom bucket invariants violated"
fi

# -- multi-tenant serving: solve cache + tenant registry families. --
# The operations-center run serves two tenants through the keyed solve
# cache, so the metrics snapshot must export both families with
# plausible accounting: the demo replays at least one exact hit, keeps
# at least one entry resident, and never inserts more entries than it
# missed (only completed kOk misses are cached).
for family in netmon_cache_hits_total netmon_cache_misses_total \
              netmon_cache_warm_starts_total netmon_cache_insertions_total \
              netmon_cache_entries netmon_tenant_swaps_total \
              netmon_tenant_count netmon_tenant_quota_rejects_total; do
  grep -q "^${family} " "${DIR}/metrics.prom" \
    && ok "metrics.prom exports ${family}" \
    || bad "metrics.prom missing ${family}"
done
if awk '
    /^netmon_cache_hits_total /       { hits = $2 + 0 }
    /^netmon_cache_misses_total /     { misses = $2 + 0 }
    /^netmon_cache_insertions_total / { ins = $2 + 0 }
    /^netmon_cache_entries /          { entries = $2 + 0 }
    END { exit (hits >= 1 && entries >= 1 && ins <= misses) ? 0 : 1 }
  ' "${DIR}/metrics.prom"; then
  ok "metrics.prom cache accounting plausible (hits >= 1, inserts <= misses)"
else
  bad "metrics.prom cache accounting implausible"
fi
if awk '
    /^netmon_tenant_swaps_total /        { swaps = $2 + 0 }
    /^netmon_tenant_count /              { count = $2 + 0 }
    /^netmon_tenant_quota_rejects_total /{ rejects = $2 + 0 }
    END { exit (count >= 2 && swaps >= count && rejects >= 1) ? 0 : 1 }
  ' "${DIR}/metrics.prom"; then
  ok "metrics.prom tenant accounting plausible (>= 2 tenants, swaps, rejects)"
else
  bad "metrics.prom tenant accounting implausible"
fi
# The flight recorder sees the same story: cache hits and quota rejects
# are lifecycle events too.
for event in cache_hit cache_miss quota_reject tenant_swap; do
  grep -q "\"event\":\"${event}\"" "${DIR}/flight.jsonl" \
    && ok "flight.jsonl records ${event}" \
    || bad "flight.jsonl missing ${event}"
done

# -- flight.jsonl: lifecycle coverage and causal timestamps. --
for event in admit dequeue batch_formed solve_done; do
  grep -q "\"event\":\"${event}\"" "${DIR}/flight.jsonl" \
    && ok "flight.jsonl records ${event}" \
    || bad "flight.jsonl missing ${event}"
done
# Ring order is append-ticket order; concurrent submitters can claim
# tickets out of timestamp order, so global monotonicity is not the
# invariant. What IS causal: each request's own lifecycle (admit ->
# dequeue -> ... -> solve_done) runs through the queue mutex, so per
# request the timestamps must be non-decreasing in ring order.
if awk '
    {
      t = $0; sub(/.*"t_ns":/, "", t); sub(/,.*/, "", t)
      id = $0; sub(/.*"request_id":/, "", id); sub(/[,}].*/, "", id)
      if (id in prev && t + 0 < prev[id]) {
        printf "request %s t_ns decreases at line %d\n", id, NR; exit 1 }
      prev[id] = t + 0
    }
  ' "${DIR}/flight.jsonl"; then
  ok "flight.jsonl per-request timestamps non-decreasing"
else
  bad "flight.jsonl per-request timestamps not causal"
fi

# -- control-loop artifacts (present when continuous_operation ran). --
if [ -s "${DIR}/control_flight.jsonl" ] || [ -s "${DIR}/control_metrics.prom" ]; then
  for f in control_flight.jsonl control_metrics.prom; do
    [ -s "${DIR}/${f}" ] && ok "${f} exists and is non-empty" \
                         || bad "${f} missing or empty"
  done

  # Every stage of the loop shows up in the event stream, and the day
  # actually reconfigured the network at least once.
  for event in control_track control_resolve control_reconfig; do
    grep -q "\"event\":\"${event}\"" "${DIR}/control_flight.jsonl" \
      && ok "control_flight.jsonl records ${event}" \
      || bad "control_flight.jsonl missing ${event}"
  done
  reconfigs="$(grep -c '"event":"control_reconfig"' \
      "${DIR}/control_flight.jsonl" || true)"
  if [ "${reconfigs}" -ge 1 ]; then
    ok "control_flight.jsonl has ${reconfigs} reconfiguration event(s)"
  else
    bad "control_flight.jsonl has no reconfiguration events"
  fi
  # Control events use the measurement bin as request_id; within one bin
  # the stage timestamps (track -> resolve -> reconfig/hold) are causal.
  if awk '
      /"event":"control_/ {
        t = $0; sub(/.*"t_ns":/, "", t); sub(/,.*/, "", t)
        id = $0; sub(/.*"request_id":/, "", id); sub(/[,}].*/, "", id)
        if (id in prev && t + 0 < prev[id]) {
          printf "bin %s t_ns decreases at line %d\n", id, NR; exit 1 }
        prev[id] = t + 0
      }
    ' "${DIR}/control_flight.jsonl"; then
    ok "control_flight.jsonl per-bin timestamps non-decreasing"
  else
    bad "control_flight.jsonl per-bin timestamps not causal"
  fi

  for family in netmon_control_bins_total netmon_control_resolves_total \
                netmon_control_reconfigurations_total \
                netmon_control_holds_total; do
    grep -q "^${family} " "${DIR}/control_metrics.prom" \
      && ok "control_metrics.prom exports ${family}" \
      || bad "control_metrics.prom missing ${family}"
  done
  for hist in netmon_control_innovation netmon_control_step_ms; do
    grep -q "^# TYPE ${hist} histogram$" "${DIR}/control_metrics.prom" \
      && ok "control_metrics.prom declares histogram ${hist}" \
      || bad "control_metrics.prom missing histogram ${hist}"
  done
  if awk '
      /_bucket\{le="/ {
        name = $1; sub(/_bucket\{.*/, "", name)
        if (name != cur) { cur = name; prev = -1 }
        if ($2 + 0 < prev) { printf "%s buckets not cumulative\n", cur; bad = 1 }
        prev = $2 + 0
        if (index($1, "le=\"+Inf\"")) inf[cur] = $2 + 0
      }
      /_count / { name = $1; sub(/_count$/, "", name); cnt[name] = $2 + 0 }
      END {
        for (h in inf) if (!(h in cnt) || inf[h] != cnt[h]) {
          printf "%s +Inf bucket %d != count %d\n", h, inf[h], cnt[h]; bad = 1 }
        exit bad ? 1 : 0
      }
    ' "${DIR}/control_metrics.prom"; then
    ok "control_metrics.prom buckets cumulative, +Inf == _count"
  else
    bad "control_metrics.prom bucket invariants violated"
  fi
fi

# -- ingest artifacts (present when ingest_replay ran). --
if [ -s "${DIR}/ingest_metrics.prom" ] || [ -s "${DIR}/ingest_metrics.jsonl" ]; then
  for f in ingest_metrics.prom ingest_metrics.jsonl; do
    [ -s "${DIR}/${f}" ] && ok "${f} exists and is non-empty" \
                         || bad "${f} missing or empty"
  done

  for family in netmon_ingest_packets_total netmon_ingest_sampled_total \
                netmon_ingest_batches_total netmon_ingest_exported_records_total; do
    grep -q "^${family} " "${DIR}/ingest_metrics.prom" \
      && ok "ingest_metrics.prom exports ${family}" \
      || bad "ingest_metrics.prom missing ${family}"
  done
  for hist in netmon_ingest_produce_batch_ns netmon_ingest_consume_batch_ns; do
    grep -q "^# TYPE ${hist} histogram$" "${DIR}/ingest_metrics.prom" \
      && ok "ingest_metrics.prom declares histogram ${hist}" \
      || bad "ingest_metrics.prom missing histogram ${hist}"
  done
  # A replay that ingested packets must have sampled some of them, and
  # the sampled count can never exceed the offered count.
  if awk '
      /^netmon_ingest_packets_total / { offered = $2 + 0 }
      /^netmon_ingest_sampled_total / { sampled = $2 + 0 }
      END { exit (offered > 0 && sampled > 0 && sampled <= offered) ? 0 : 1 }
    ' "${DIR}/ingest_metrics.prom"; then
    ok "ingest_metrics.prom 0 < sampled <= offered"
  else
    bad "ingest_metrics.prom sample accounting implausible"
  fi
  if awk '
      /_bucket\{le="/ {
        name = $1; sub(/_bucket\{.*/, "", name)
        if (name != cur) { cur = name; prev = -1 }
        if ($2 + 0 < prev) { printf "%s buckets not cumulative\n", cur; bad = 1 }
        prev = $2 + 0
        if (index($1, "le=\"+Inf\"")) inf[cur] = $2 + 0
      }
      /_count / { name = $1; sub(/_count$/, "", name); cnt[name] = $2 + 0 }
      END {
        for (h in inf) if (!(h in cnt) || inf[h] != cnt[h]) {
          printf "%s +Inf bucket %d != count %d\n", h, inf[h], cnt[h]; bad = 1 }
        exit bad ? 1 : 0
      }
    ' "${DIR}/ingest_metrics.prom"; then
    ok "ingest_metrics.prom buckets cumulative, +Inf == _count"
  else
    bad "ingest_metrics.prom bucket invariants violated"
  fi
  # The JSONL export mirrors the same registry: every Prometheus family
  # name must appear as a "name" field in the JSONL stream.
  if awk '
      NR == FNR {
        if ($0 ~ /^# TYPE netmon_ingest_/) names[$3] = 1
        next
      }
      { for (n in names) if (index($0, "\"" n "\"")) delete names[n] }
      END { for (n in names) { printf "missing %s\n", n; bad = 1 }
            exit bad ? 1 : 0 }
    ' "${DIR}/ingest_metrics.prom" "${DIR}/ingest_metrics.jsonl"; then
    ok "ingest_metrics.jsonl mirrors every Prometheus family"
  else
    bad "ingest_metrics.jsonl missing families"
  fi
fi

[ "${fail}" -eq 0 ] && echo "check_obs: PASS" || echo "check_obs: FAIL"
exit "${fail}"
