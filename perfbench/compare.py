#!/usr/bin/env python3
"""Steadiness and comparison of benchmark result sets.

    python3 perfbench/compare.py SET                # steadiness of one set
    python3 perfbench/compare.py PARENT CHANGE      # verdict per metric and workload

A set is a JSON-lines file written by `run.py --save`, or a directory of
them; only untraced runs are read. For each (end-to-end metric, workload)
the tool prints each side's median and quartiles and the spread (the
distance between the quartiles as a share of the median) against the
metric's bound from BENCHMARK.json. With two sets it pairs the runs (by
seed when both sets ran the same seeds, else in file order), counts the
pairs the change wins, and gives the verdict of stats.verdict: improved,
unchanged, regressed or unresolved. Exits 1 if any pair of a metric and
a workload regressed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def load(path):
    """{workload: [(seed, {metric: value})]} of the untraced runs in a set."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        for line in f.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], []).append((rec["seed"], metrics))
    return runs


def paired(a, b):
    """The two sides' runs in pair order."""
    seeds_a = [s for s, _ in a]
    seeds_b = [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = dict(b)
        return a, [(s, by_seed[s]) for s in seeds_a]
    n = min(len(a), len(b))
    return a[:n], b[:n]


def describe(values):
    q1, q3 = stats.quartiles(values)
    return {"n": len(values), "median": stats.median(values), "q1": q1, "q3": q3,
            "spread": stats.spread(values)}


def fmt(v):
    return f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="one set (steadiness) or two (parent, change)")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one or two sets")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sets = [load(s) for s in args.sets]

    rows = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in [w["name"] for w in bench["workloads"]]:
            sides = [s.get(workload, []) for s in sets]
            if not all(sides):
                continue
            row = {"metric": name, "workload": workload, "bound": bound}
            if len(sides) == 1:
                row["set"] = describe([m[name] for _, m in sides[0]])
            else:
                a, b = paired(*sides)
                va, vb = [m[name] for _, m in a], [m[name] for _, m in b]
                row["parent"], row["change"] = describe(va), describe(vb)
                row["verdict"], row["wins"], row["pairs"] = stats.verdict(
                    va, vb, metric["better"], bound)
            rows.append(row)

    if len(sets) == 1:
        print(f"{'metric':<16} {'workload':<16} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}  steadiness")
        for r in rows:
            s = r["set"]
            state = ("steady" if s["spread"] < r["bound"] / 3 else
                     "within bound" if s["spread"] <= r["bound"] else "too wide")
            print(f"{r['metric']:<16} {r['workload']:<16} {s['n']:>3} {fmt(s['median']):>10} "
                  f"{fmt(s['q1']):>10} {fmt(s['q3']):>10} {s['spread']:>7.3f} {r['bound']:>6}  "
                  f"{state}")
    else:
        print(f"{'metric':<16} {'workload':<16} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'drift':>7} {'wins':>6}  verdict")
        for r in rows:
            p, c = r["parent"], r["change"]
            drift = (c["median"] - p["median"]) / p["median"]
            print(f"{r['metric']:<16} {r['workload']:<16} "
                  f"{fmt(p['median']):>10} [{fmt(p['q1'])}, {fmt(p['q3'])}]".ljust(67)
                  + f" {fmt(c['median']):>10} [{fmt(c['q1'])}, {fmt(c['q3'])}]".ljust(33)
                  + f" {drift:>+7.3f} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    if any(r.get("verdict") == "regressed" for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
