#!/usr/bin/env python3
"""Reads the benchmark's result files (benchmark/out/result_*.json).

  report.py check BENCHMARK.json RESULT...   self-check of the benchmark
  report.py compare A.json B.json            metric deltas, B against A
  report.py overhead UNTRACED.json TRACED.json
  report.py spread RESULT...                 repeatability per workload
"""
import json
import re
import statistics
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path) as f:
        return json.load(f)


def check_bench(bench, raw_size):
    """Problems with BENCHMARK.json itself, as strings."""
    errors = []

    def need(ok, what):
        if not ok:
            errors.append(what)

    need(raw_size <= 64 * 1024, "file larger than 64 KiB")
    need(set(bench) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "top-level keys")
    cmd = bench.get("command", [])
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
         all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command")
    need(all(not c.startswith("/") and ".." not in c.split("/") for c in cmd),
         "command leaves the checkout")
    paths = bench.get("paths", [])
    need(1 <= len(paths) <= 16 and
         all(PATH.match(p) and ".." not in p.split("/") for p in paths),
         "paths")
    rs = bench.get("run_seconds")
    need(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds")
    wl = bench.get("workloads", [])
    need(2 <= len(wl) <= 8, "2 to 8 workloads")
    for w in wl:
        need(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
             "\n" not in w["why"], f"workload {w.get('name')}")
    e2e = bench.get("end_to_end", [])
    layers = bench.get("per_layer", [])
    need(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(layers) <= 128, "1 to 128 per-layer metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"} and
             m["better"] in ("lower", "higher") and
             0 < m["bound"] <= 0.25, f"end-to-end metric {m.get('name')}")
    for m in layers:
        need(set(m) == {"name", "unit", "better"} and
             m["better"] in ("lower", "higher"),
             f"per-layer metric {m.get('name')}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and
         setup[0]["better"] == "lower" and
         setup[0]["bound"] == max(m["bound"] for m in e2e),
         "setup_s (unit s, lower, largest bound)")
    names = [x["name"] for x in wl + e2e + layers]
    need(len(names) == len(set(names)), "names used once")
    for name in names:
        need(bool(NAME.match(name)), f"name {name!r}")
    for m in e2e + layers:
        need(bool(UNIT.match(m["unit"])), f"unit of {m['name']}")
    return errors


def cmd_check(args):
    bench_path, results = args[0], args[1:]
    with open(bench_path, "rb") as f:
        raw = f.read()
    bench = json.loads(raw)
    errors = check_bench(bench, len(raw))
    declared = {"e2e": bench["end_to_end"], "layer": bench["per_layer"]}
    seen = set()
    for path in results:
        r = load(path)
        w = r["workload"]
        seen.add(w)
        nproc = int(r["fingerprint"]["nproc"])
        if w not in [x["name"] for x in bench["workloads"]]:
            errors.append(f"{path}: undeclared workload {w}")
        for kind, metrics in declared.items():
            for m in metrics:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{path}: {kind} metric {m['name']} missing"
                                  " or with another unit")
        if r["load_threads"] > nproc or r["connections"] > nproc:
            errors.append(f"{path}: more load threads or connections than"
                          f" nproc={nproc}")
        if not r["correct"]:
            errors.append(f"{path}: {r['failed']} of {r['attempted']} failed")
    for w in bench["workloads"]:
        if results and w["name"] not in seen:
            errors.append(f"no result for workload {w['name']}")
    for e in errors:
        print("SELF-CHECK FAILED:", e)
    print(f"self-check: {len(results)} results, {len(declared['e2e'])}"
          f" end-to-end and {len(declared['layer'])} per-layer metrics,"
          f" {'ok' if not errors else f'{len(errors)} problems'}")
    return 1 if errors else 0


def warn_fingerprints(a, b):
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = sorted(k for k in set(fa) | set(fb)
                  if fa.get(k) != fb.get(k) and k not in ("git", "seed"))
    if diff:
        print("WARNING: results come from different machines or builds:")
        for k in diff:
            print(f"  {k}: {fa.get(k)!r} vs {fb.get(k)!r}")
    if fa.get("seed") != fb.get("seed"):
        print(f"note: seeds differ ({fa.get('seed')} vs {fb.get('seed')})")


def cmd_compare(args):
    a, b = load(args[0]), load(args[1])
    warn_fingerprints(a, b)
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{100.0 * (vb - va) / va:+8.2f}%" if va else "       -"
        print(f"  {name:28s} {va:14.6g} {vb:14.6g} {change} {ma['unit']}")
    return 0


def cmd_overhead(args):
    plain, traced = load(args[0]), load(args[1])
    warn_fingerprints(plain, traced)
    bench = load("BENCHMARK.json")
    print(f"tracing overhead, {plain['workload']} (traced vs untraced run):")
    for m in bench["end_to_end"]:
        va = plain["metrics"][m["name"]]["value"]
        vb = traced["metrics"][m["name"]]["value"]
        change = 100.0 * (vb - va) / va if va else 0.0
        print(f"  {m['name']:20s} {va:14.6g} -> {vb:14.6g} {change:+7.2f}%")
    return 0


def cmd_spread(args):
    by_workload = {}
    for path in args:
        r = load(path)
        by_workload.setdefault(r["workload"], []).append(r)
    bench = load("BENCHMARK.json")
    print(f"{'workload':14s} {'metric':18s} {'n':>3s} {'median':>12s}"
          f" {'IQR/med':>8s} {'range/med':>9s}")
    for w, runs in by_workload.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            iqr = 0.0
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                iqr = (q3 - q1) / med if med else 0.0
            rng = (max(values) - min(values)) / med if med else 0.0
            print(f"{w:14s} {m['name']:18s} {len(values):3d} {med:12.6g}"
                  f" {iqr:8.4f} {rng:9.4f}")
    return 0


def main(argv):
    commands = {"check": (cmd_check, 2), "compare": (cmd_compare, 2),
                "overhead": (cmd_overhead, 2), "spread": (cmd_spread, 1)}
    if len(argv) < 2 or argv[1] not in commands or \
            len(argv) - 2 < commands[argv[1]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    return commands[argv[1]][0](argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
