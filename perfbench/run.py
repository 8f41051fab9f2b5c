#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload offline-horizon --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the measuring program
(perfbench/src, a Cargo package of its own) into $CARGO_TARGET_DIR
(default .bench_build), runs it, and prints two JSON lines: a record
with the environment stamp, sample counts, tail percentiles, checks and
layer table, then the result, whose metrics are the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
--save FILE appends the record, result included, to FILE for compare.py.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
# A run must end within 180 s; the program gets what the build left.
RUN_LIMIT_S = 175.0

# Span name -> per-layer metric holding its self time. Spans not named
# here (bench.op, bench.setup, runtime.pool.*) are the benchmark's own
# glue, and their self time is part of bench.unattributed_s.
LAYER_SPANS = {
    "streams.population.generate": "streams.population.generate.s",
    "sim.build_order_groups": "sim.build_order_groups.s",
    "sim.emit_span": "sim.emit_span.s",
    "runtime.sign_lane.count_plus": "runtime.sign_lane.count_plus.s",
    "core.accumulator.record_counts": "core.accumulator.record_counts.s",
    "core.server.absorb_shard": "core.server.absorb_shard.s",
    "core.server.end_of_period": "core.server.end_of_period.s",
    "runtime.ingest.submit_reports": "runtime.ingest.submit_reports.s",
    "runtime.ingest.close_period": "runtime.ingest.close_period.s",
    "runtime.ingest.snapshot": "runtime.ingest.snapshot.s",
    "runtime.ingest.restore": "runtime.ingest.restore.s",
    "runtime.ingest.kill_worker": "runtime.ingest.kill_worker.s",
    "scenarios.engine.emission": "scenarios.engine.emission_s",
    "scenarios.engine.merge": "scenarios.engine.merge_s",
    "scenarios.engine.ingest": "scenarios.engine.ingest_s",
}
SETUP_OP = 0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds the measuring program; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir / "release" / "perfbench"


def measure(binary, args, limit_s):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        fail("the measuring program ran out of time")
    if done.returncode != 0:
        fail(f"the measuring program failed with exit code {done.returncode}")
    return json.loads(done.stdout)


def source_digest():
    """SHA-256 over the sources the program is built from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            files += [Path(dirpath) / f for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment(raw):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    params = raw["params"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": commit,
        "source_digest": source_digest(),
        "seed": raw["seed"],
        "workers": params.get("workers"),
        "producer_threads": params.get("producers", 1),
        "params": params,
        # [integer loop, scattered reads] timed before and after the workload.
        "calibration_ms": raw["calibration_ms"],
    }


def horizons(raw, kind):
    """Passes of one kind: "warmup", "untraced" or "traced"."""
    return [h for h in raw["horizons"] if h["pass"] == kind]


def one_order_closes(raw):
    return [ms for ms, orders in zip(raw["close_ms"], raw["close_orders"]) if orders == 1]


def end_to_end(raw):
    """The end-to-end metrics and their sample counts."""
    timed = horizons(raw, "untraced")
    walls = [h["wall_s"] for h in timed]
    rates = [h["reports"] / h["wall_s"] for h in timed]
    values = {
        "setup_s": stats.median(raw["setup_s"]),
        "reports_per_s": stats.median(rates),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    samples = {"setup_s": len(raw["setup_s"]), "reports_per_s": len(rates)}
    if raw["close_ms"]:
        # A close costs more the more orders' intervals it closes, and half
        # of all periods close one order: the median over every period sits
        # on the edge between those and the rest, and jumps between them
        # from run to run. The median over the one-order closes is steady.
        single = one_order_closes(raw)
        values["close_p50_ms"] = stats.median(single)
        values["recovery_p50_ms"] = stats.median(raw["recovery_ms"])
        samples["close_p50_ms"] = len(single)
        samples["recovery_p50_ms"] = len(raw["recovery_ms"])
    else:
        # The offline engines publish all d estimates from one call and
        # keep no checkpoint: a period's estimate costs the horizon over
        # d, and recovering from a crash means running the horizon again.
        horizon_ms = stats.median(walls) * 1e3
        values["close_p50_ms"] = horizon_ms / raw["params"]["d"]
        values["recovery_p50_ms"] = horizon_ms
        samples["close_p50_ms"] = samples["recovery_p50_ms"] = len(walls)
    tails = {}
    by_orders = {}
    for ms, orders in zip(raw["close_ms"], raw["close_orders"]):
        by_orders.setdefault(f"close_ms.orders_{orders}", []).append(ms)
    for name, series in (("close_ms", raw["close_ms"]), ("recovery_ms", raw["recovery_ms"]),
                         ("horizon_s", walls), ("setup_s", raw["setup_s"]),
                         *sorted(by_orders.items())):
        if series:
            p, v, n = stats.tail_percentile(series)
            tails[name] = {"percentile": p, "value": v, "samples": n,
                           "median": stats.median(series)}
    return values, samples, tails


def span_table(raw):
    """Self and total seconds per (phase, span name); phase is "setup" or
    "horizon"."""
    names = raw["span_names"]
    rows = raw["spans"]
    own = stats.self_times([(r[2], r[3], r[5], r[6]) for r in rows])
    table = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
    for r in rows:
        phase = "setup" if r[1] == SETUP_OP else "horizon"
        entry = table[(phase, names[r[0]])]
        entry["self_s"] += own[r[2]] / 1e9
        entry["total_s"] += (r[6] - r[5]) / 1e9
        entry["count"] += 1
    return table


def per_layer(raw):
    """The per-layer metrics of a traced run, and the per-span table."""
    table = span_table(raw)
    traced = horizons(raw, "traced")
    units = {"horizon": max(len(traced), 1), "setup": max(len(raw["setup_s"]), 1)}

    def per_unit(span, key):
        for phase in ("horizon", "setup"):
            if (phase, span) in table:
                return table[(phase, span)][key] / units[phase]
        return 0.0

    values = {metric: per_unit(span, "self_s") for span, metric in LAYER_SPANS.items()}
    emitted = raw["counters"].get("sim.emit_span.reports", 0.0)
    values["sim.emit_span.ns_per_report"] = (
        per_unit("sim.emit_span", "total_s") / emitted * 1e9 if emitted else 0.0)

    shard_total = per_unit("runtime.pool.shard", "total_s")
    map_total = per_unit("runtime.pool.map_shards", "total_s")
    workers = raw["params"].get("workers") or 1
    values["runtime.pool.busy_s"] = shard_total
    values["runtime.pool.idle_frac"] = 1.0 - shard_total / (workers * map_total) if map_total else 0.0

    values["runtime.ingest.close_period.p99_ms"] = (
        stats.percentile(raw["close_ms"], 99.0) if raw["close_ms"] else 0.0)

    untraced = stats.median([h["wall_s"] for h in horizons(raw, "untraced")])
    attributed = sum(table[("horizon", span)]["self_s"] for span in LAYER_SPANS
                     if ("horizon", span) in table) / units["horizon"]
    values["bench.unattributed_s"] = untraced - attributed
    values["bench.trace_overhead_frac"] = (
        stats.median([h["wall_s"] for h in traced]) / untraced - 1.0 if traced else 0.0)
    ref = raw["reference"]
    values["bench.sequential_reports_per_s"] = ref["reports"] / ref["wall_s"] if ref["wall_s"] else 0.0

    for name, value in raw["counters"].items():
        values.setdefault(name, value)
    layers = {f"{phase}:{span}": {k: (v / units[phase] if k != "count" else v) for k, v in e.items()}
              for (phase, span), e in sorted(table.items())}
    layers["horizon:untraced_median_s"] = untraced
    return values, layers


def write_trace(target_dir, raw, line):
    out = target_dir / "perfbench-traces"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{raw['workload']}-{raw['seed']}.json").write_bytes(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the record to this JSON-lines file")
    args = parser.parse_args()
    started = time.monotonic()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(target_dir)
    raw = measure(binary, args, RUN_LIMIT_S - (time.monotonic() - started))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(raw), "checks": raw["checks"],
              "reference": raw["reference"], "ops": raw["ops"], "ops_failed": raw["ops_failed"]}
    if args.trace:
        values, record["layers"] = per_layer(raw)
        write_trace(target_dir, raw, json.dumps(raw).encode())
        # A layer this workload bypasses, or cannot observe, reads 0.
        record["not_measured"] = [m["name"] for m in wanted if not values.get(m["name"])]
        for name in record["not_measured"]:
            values[name] = 0.0
    else:
        values, record["samples"], record["tails"] = end_to_end(raw)
        record["setup_samples_s"] = raw["setup_s"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {missing}")

    result = {
        "correct": raw["ops_failed"] == 0 and all(c["ok"] for c in raw["checks"]),
        "attempted": raw["ops"],
        "failed": raw["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record["result"] = result
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
