#!/usr/bin/env python3
"""Compares two sets of pipebench results, workload by workload.

    python3 pipebench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (its results/ folder).
Refuses (exit 2) when the results come from different hosts: number of
CPUs, CPU model, compiler or build type differ. For every end-to-end
metric it prints both medians, the base's spread (quartile distance over
median) and the change, against the bound in BENCHMARK.json. Exact counts
(per-layer metrics in count/op, B/op or ratio units that the harness did
not mark inexact) must match exactly, seed by seed.
Exits 1 when a metric regressed beyond its bound or an exact count moved.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type")
EXACT_UNITS = ("count/op", "B/op", "ratio")


def load(d):
    runs = []
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if isinstance(doc, dict) and "host" in doc and "result" in doc:
            runs.append(doc)
    if not runs:
        sys.exit("compare: no results in " + d)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in base + new}
    if len(hosts) > 1:
        print("compare: refusing results from different hosts:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))), file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def series(runs, workload, trace, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs
                if r["workload"] == workload and r["trace"] == trace
                and metric in r["result"]["metrics"]]

    bad = False
    for w in [x["name"] for x in spec["workloads"]]:
        print("== " + w)
        for name, m in bounds.items():
            a, b = series(base, w, 0, name), series(new, w, 0, name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if spread(a) > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse > m["bound"]:
                verdict, bad = "REGRESSED", True
            print("  %-18s base %.6g (spread %.3f, n=%d)  new %.6g (n=%d)  "
                  "worse by %+.3f of bound %.2f  %s"
                  % (name, ma, spread(a), len(a), mb, len(b), worse,
                     m["bound"], verdict))
        # Exact counts repeat for one seed, so they compare seed by seed.
        seeds = ({r["seed"] for r in base if r["workload"] == w}
                 & {r["seed"] for r in new if r["workload"] == w})
        inexact = {k for r in base + new if r["workload"] == w
                   for k in r.get("inexact", [])}
        for m in spec["per_layer"]:
            if m["unit"] not in EXACT_UNITS or m["name"] in inexact:
                continue
            for s in sorted(seeds):
                a, b = ({r["result"]["metrics"][m["name"]]["value"] for r in runs
                         if r["workload"] == w and r["trace"] == 1
                         and r["seed"] == s} for runs in (base, new))
                if a and b and a != b:
                    bad = True
                    print("  count %s (seed %d): %s -> %s  MOVED"
                          % (m["name"], s, sorted(a), sorted(b)))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
