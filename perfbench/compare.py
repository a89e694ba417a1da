#!/usr/bin/env python3
"""Compare two sets of perfbench results measured on the same host.

    python3 perfbench/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are files or directories holding the captured standard
output of perfbench runs (one run per file, or many runs concatenated);
every line of the form {"record": ...} is read. For each workload and
metric the command prints the median and the quartiles of both sets and
the change in the median as a share of the base median.

It refuses to compare results whose host fingerprints differ. An
end-to-end metric is marked "unresolved" when either set's spread (the
distance between the quartiles, as a share of the median) exceeds the
metric's bound in BENCHMARK.json: a difference inside that noise is not
a measurement. Per-layer metrics have no bound and get no verdict.
"""

import argparse
import json
import os
import statistics
import sys

FINGERPRINT_KEYS = ("cpu_model", "nproc", "gomaxprocs", "go_version", "kernel", "goos_arch")


def load(path):
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in sorted(names)]
    else:
        files = [path]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith('{"record"'):
                    continue
                records.append(json.loads(line)["record"])
    if not records:
        sys.exit(f"compare: no perfbench records in {path}")
    return records


def fingerprints(records):
    return {tuple((k, r["fingerprint"].get(k)) for k in FINGERPRINT_KEYS) for r in records}


def series(records):
    """Maps (workload, metric) to (unit, values), from end-to-end records
    of untraced runs and per-layer records of traced runs."""
    out = {}
    for r in records:
        key = "layers" if r["trace"] else "metrics"
        for name, m in r[key].items():
            unit, vals = out.setdefault((r["workload"], key, name), (m["unit"], []))
            vals.append(m["value"])
    return out


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json", help="benchmark definition holding the bounds")
    args = ap.parse_args()

    with open(args.bench, encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["per_layer"]}

    base, change = load(args.base), load(args.change)
    fps = fingerprints(base) | fingerprints(change)
    if len(fps) != 1:
        print("compare: refusing to compare results from different hosts:", file=sys.stderr)
        for fp in sorted(fps):
            print("  " + ", ".join(f"{k}={v}" for k, v in fp), file=sys.stderr)
        sys.exit(2)

    a, b = series(base), series(change)
    print(f"{'workload':16} {'metric':36} {'unit':8} {'n':>5} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, kind, name = key
        if key not in a or key not in b:
            print(f"{workload:16} {name:36} present in only one set")
            continue
        unit, av = a[key]
        _, bv = b[key]
        am, aq1, aq3 = summary(av)
        bm, bq1, bq3 = summary(bv)
        delta = (bm - am) / abs(am) if am else float("nan")
        verdict = ""
        if kind == "metrics" and name in bounds:
            bound, direction = bounds[name]
            worse = delta if direction == "lower" else -delta
            if spread(am, aq1, aq3) > bound or spread(bm, bq1, bq3) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"worse than bound {bound}"
            else:
                verdict = f"within bound {bound}"
        elif name in better:
            verdict = f"({better[name]} is better)"
        n = f"{len(av)}/{len(bv)}"
        print(f"{workload:16} {name:36} {unit:8} {n:>5} {am:>12.5g} [{aq1:.5g}, {aq3:.5g}] {bm:>12.5g} [{bq1:.5g}, {bq3:.5g}] {delta:>+8.3f}  {verdict}")


if __name__ == "__main__":
    main()
