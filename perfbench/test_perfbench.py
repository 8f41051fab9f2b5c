"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import stats  # noqa: E402

WORKLOADS = {"offline-horizon", "live-service", "fault-storm"}
END_TO_END = {"setup_s", "reports_per_s", "close_p50_ms", "recovery_p50_ms", "peak_rss_mb"}
PER_LAYER = {
    "streams.population.generate.s", "sim.build_order_groups.s",
    "sim.emit_span.s", "sim.emit_span.reports", "sim.emit_span.ns_per_report",
    "runtime.sign_lane.count_plus.s", "core.accumulator.record_counts.s",
    "core.server.absorb_shard.s", "core.server.end_of_period.s", "core.accumulator.heap_bytes",
    "runtime.pool.busy_s", "runtime.pool.idle_frac",
    "runtime.ingest.submit_reports.s", "runtime.ingest.submit_reports.batches",
    "runtime.ingest.close_period.s", "runtime.ingest.close_period.p99_ms",
    "runtime.ingest.flushed_acc_bytes",
    "runtime.ingest.snapshot.s", "runtime.ingest.snapshot.bytes", "runtime.ingest.restore.s",
    "runtime.ingest.kill_worker.s", "runtime.ingest.replayed_batches",
    "scenarios.engine.emission_s", "scenarios.engine.merge_s", "scenarios.engine.ingest_s",
    "core.server.delivery.due", "core.server.delivery.accepted", "core.server.delivery.late",
    "core.server.delivery.duplicate", "core.server.delivery.rejected",
    "core.server.delivery.missing", "core.server.delivery.accepted_frac",
    "scenarios.faults.dropped", "scenarios.faults.delayed",
    "scenarios.faults.duplicates_injected", "scenarios.faults.byzantine_messages",
    "scenarios.faults.byzantine_accepted", "scenarios.faults.malformed",
    "bench.unattributed_s", "bench.trace_overhead_frac", "bench.sequential_reports_per_s",
}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, expected in [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                            (1000, 99.0), (9999, 99.0), (10000, 99.9)]:
            p, value, count = stats.tail_percentile(list(range(n)))
            self.assertEqual(p, expected, n)
            self.assertEqual(count, n)
            if p is None:
                self.assertIsNone(value)
            else:
                self.assertGreaterEqual(n * (1 - p / 100), 10 - 1e-9)
                self.assertAlmostEqual(value, p / 100 * (n - 1))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)


class SelfTimes(unittest.TestCase):
    def test_nested_spans_on_one_thread(self):
        # root [0,10] > child [2,6] > grandchild [3,4]; second child [7,9].
        spans = [(1, 0, 0, 10), (2, 1, 2, 6), (3, 2, 3, 4), (4, 1, 7, 9)]
        own = stats.self_times(spans)
        self.assertEqual(own, {1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0})
        self.assertEqual(sum(own.values()), 10.0)

    def test_overlapping_children_share_the_overlap(self):
        # Two workers under one fork-join span: [1,6] and [4,8] overlap on [4,6].
        spans = [(1, 0, 0, 10), (2, 1, 1, 6), (3, 1, 4, 8)]
        own = stats.self_times(spans)
        self.assertEqual(own, {1: 3.0, 2: 4.0, 3: 3.0})

    def test_children_of_parallel_workers(self):
        # Worker spans with their own children; the join span waits.
        spans = [(1, 0, 0, 10), (2, 1, 0, 10), (3, 1, 0, 6), (4, 2, 2, 8), (5, 3, 0, 6)]
        own = stats.self_times(spans)
        # [0,2]: leaves 5 (under 3) and 2 -> 1 each; [2,6]: 5 and 4 -> 2 each;
        # [6,8]: 4 alone; [8,10]: 2 alone.
        self.assertEqual(own, {1: 0.0, 2: 3.0, 3: 0.0, 4: 4.0, 5: 3.0})
        self.assertEqual(sum(own.values()), 10.0)

    def test_equal_timestamps(self):
        # A child that starts and ends with its parent leaves it nothing.
        own = stats.self_times([(1, 0, 5, 9), (2, 1, 5, 9)])
        self.assertEqual(own, {1: 0.0, 2: 4.0})
        own = stats.self_times([(1, 0, 0, 3), (2, 1, 1, 1)])
        self.assertEqual(own, {1: 3.0, 2: 0.0})


class Verdict(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_improved(self):
        change = [v * 1.10 for v in self.base]
        self.assertEqual(stats.verdict(self.base, change, "higher", 0.2), ("improved", 10, 10))
        self.assertEqual(stats.verdict(self.base, [v * 0.9 for v in self.base], "lower", 0.2)[0],
                         "improved")

    def test_unchanged(self):
        change = list(reversed(self.base))
        self.assertEqual(stats.verdict(self.base, change, "higher", 0.2)[0], "unchanged")

    def test_regressed(self):
        change = [v * 0.7 for v in self.base]
        self.assertEqual(stats.verdict(self.base, change, "higher", 0.2)[0], "regressed")
        change = [v * 1.3 for v in self.base]
        self.assertEqual(stats.verdict(self.base, change, "lower", 0.2)[0], "regressed")

    def test_wider_than_the_bound_is_unresolved(self):
        wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 100.0, 100.0]
        self.assertEqual(stats.verdict(wide, list(self.base), "higher", 0.2)[0], "unresolved")

    def test_every_run_better_is_not_unresolved(self):
        parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 100.0, 100.0]
        change = [v + 100.0 for v in parent]
        # Wins every pair but the medians differ by less than the parent's
        # quartile distance: not a gain, and no longer unresolved.
        self.assertEqual(stats.verdict(parent, [150.0] * 10, "higher", 0.2)[0], "unchanged")
        self.assertEqual(stats.verdict(parent, change, "higher", 0.2)[0], "improved")

    def test_ties_count_for_neither_side(self):
        verdict, wins, pairs = stats.verdict(self.base, list(self.base), "higher", 0.2)
        self.assertEqual((verdict, wins, pairs), ("unchanged", 0, 10))


class Accounting(unittest.TestCase):
    def raw(self):
        # A warm-up pass, two untraced horizons of 1.0 s and 1.2 s, one
        # traced of 1.1 s:
        # layer A self 0.5, layer B self 0.3, glue 0.3.
        names = ["bench.op", "sim.emit_span", "runtime.ingest.close_period"]
        ms = 1_000_000
        return {
            "params": {"d": 64, "workers": 1},
            "setup_s": [0.1, 0.2, 0.3],
            "horizons": [{"wall_s": 9.0, "reports": 10, "pass": "warmup"},
                         {"wall_s": 1.0, "reports": 10, "pass": "untraced"},
                         {"wall_s": 1.1, "reports": 10, "pass": "traced"},
                         {"wall_s": 1.2, "reports": 10, "pass": "untraced"}],
            "close_ms": [], "close_orders": [], "recovery_ms": [],
            "counters": {"sim.emit_span.reports": 100.0},
            "reference": {"engine": "x", "wall_s": 2.0, "reports": 10},
            "peak_rss_kb": 2048,
            "span_names": names,
            "spans": [[0, 1, 1, 0, 0, 0, 1100 * ms], [1, 1, 2, 1, 0, 100 * ms, 600 * ms],
                      [2, 1, 3, 1, 0, 700 * ms, 1000 * ms]],
        }

    def test_layers_plus_unattributed_equal_untraced_time(self):
        values, layers = run.per_layer(self.raw())
        self.assertAlmostEqual(values["sim.emit_span.s"], 0.5)
        self.assertAlmostEqual(values["runtime.ingest.close_period.s"], 0.3)
        self.assertAlmostEqual(values["sim.emit_span.s"] + values["runtime.ingest.close_period.s"]
                               + values["bench.unattributed_s"], 1.1)
        self.assertAlmostEqual(values["bench.trace_overhead_frac"], 0.0)
        self.assertAlmostEqual(values["sim.emit_span.ns_per_report"], 0.5 / 100 * 1e9)
        self.assertAlmostEqual(layers["horizon:bench.op"]["self_s"], 0.3)

    def test_end_to_end_of_an_offline_run(self):
        values, samples, _ = run.end_to_end(self.raw())
        self.assertAlmostEqual(values["reports_per_s"], (10 / 1.0 + 10 / 1.2) / 2)
        self.assertAlmostEqual(values["recovery_p50_ms"], 1100.0)
        self.assertAlmostEqual(values["close_p50_ms"], 1100.0 / 64)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(samples["reports_per_s"], 2)


class CloseLatency(unittest.TestCase):
    def test_p50_is_over_one_order_closes(self):
        raw = Accounting().raw()
        raw["close_ms"] = [0.01, 0.03, 0.012, 0.05, 0.011, 0.02]
        raw["close_orders"] = [1, 2, 1, 3, 1, 2]
        raw["recovery_ms"] = [5.0, 7.0, 6.0]
        values, samples, tails = run.end_to_end(raw)
        self.assertEqual(values["close_p50_ms"], 0.011)
        self.assertEqual(samples["close_p50_ms"], 3)
        self.assertEqual(values["recovery_p50_ms"], 6.0)
        self.assertEqual(tails["close_ms.orders_2"]["median"], 0.025)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_exactly_the_workloads_and_metrics(self):
        b = self.bench
        self.assertEqual({w["name"] for w in b["workloads"]}, WORKLOADS)
        self.assertEqual({m["name"] for m in b["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"] for m in b["per_layer"]}, PER_LAYER)

    def test_follows_the_file_format(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in b["workloads"]]
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], name)
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_every_layer_span_has_its_metric(self):
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        self.assertLessEqual(set(run.LAYER_SPANS.values()), per_layer)


if __name__ == "__main__":
    unittest.main()
