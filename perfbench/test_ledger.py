"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_ledger.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402


def span(name, start, end, parent=-1, group=-1):
    return [name, start, end, parent, group]


class SummaryTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(ledger.median([3, 1, 2]), 2)
        self.assertEqual(ledger.median([4, 1, 3, 2]), 2.5)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(ledger.percentile(values, 50.0), 500)
        self.assertEqual(ledger.percentile(values, 99.0), 990)
        self.assertEqual(ledger.percentile(values, 100.0), 1000)
        self.assertEqual(ledger.percentile([7.0], 99.0), 7.0)

    def test_p99_needs_a_thousand_samples_for_ten_beyond(self):
        self.assertEqual(ledger.samples_beyond(1000, 99.0), 10)
        self.assertEqual(ledger.samples_beyond(999, 99.0), 9)
        self.assertEqual(ledger.highest_percentile(1000), 99.0)
        self.assertEqual(ledger.highest_percentile(999), 95.0)
        self.assertEqual(ledger.highest_percentile(10000), 99.9)

    def test_no_percentile_for_tiny_samples(self):
        self.assertIsNone(ledger.highest_percentile(10))
        self.assertEqual(ledger.highest_percentile(20), 50.0)

    def test_tail_latency_falls_back_to_what_the_samples_support(self):
        self.assertEqual(ledger.tail_latency(list(range(1, 2001))), (1980, 99.0))
        self.assertEqual(ledger.tail_latency(list(range(1, 201))), (190, 95.0))
        # Six runs support no tail percentile: the median, not the maximum.
        self.assertEqual(ledger.tail_latency([5.0, 1.0, 9.0, 2.0, 3.0, 4.0]), (3.5, 50.0))


class SelfTimeTest(unittest.TestCase):
    def test_no_children_is_whole_duration(self):
        self.assertEqual(ledger.self_times([span("a", 0, 100)]), [100])

    def test_overlapping_children_count_once(self):
        spans = [
            span("parent", 0, 100),
            span("child", 10, 50, parent=0),
            span("child", 30, 70, parent=0),  # overlaps the first child
            span("child", 80, 90, parent=0),
        ]
        # Children cover [10, 70) and [80, 90): 70 of the parent's 100.
        self.assertEqual(ledger.self_times(spans)[0], 30)

    def test_children_clipped_to_parent(self):
        spans = [span("parent", 10, 20), span("child", 0, 15, parent=0)]
        self.assertEqual(ledger.self_times(spans)[0], 5)

    def test_grandchildren_only_charge_their_parent(self):
        spans = [
            span("root", 0, 100),
            span("mid", 0, 60, parent=0),
            span("leaf", 0, 60, parent=1),
        ]
        self.assertEqual(ledger.self_times(spans), [40, 0, 60])

    def test_union_length(self):
        self.assertEqual(ledger.union_length([]), 0)
        self.assertEqual(ledger.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(ledger.union_length([(0, 10), (10, 20)]), 20)


class PoolIdleTest(unittest.TestCase):
    def test_fully_busy_pool(self):
        self.assertAlmostEqual(ledger.pool_idle_frac(10.0, [10.0] * 4, 4), 0.0)

    def test_one_straggler(self):
        # Four workers for 10 s; cells busy 10 + 2 + 2 + 2 = 16 worker-seconds.
        self.assertAlmostEqual(ledger.pool_idle_frac(10.0, [10.0, 2.0, 2.0, 2.0], 4), 0.6)


class HostRecordTest(unittest.TestCase):
    HOST = {"cpu_model": "X", "nproc": 4, "speculation_store_bypass": "thread vulnerable",
            "vulnerabilities": {"mds": "Not affected"}}

    def result(self, host, wall):
        return {"host": host, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    def test_identical_hosts_compare(self):
        comparable, lines = ledger.compare(self.result(self.HOST, 2.0),
                                           self.result(dict(self.HOST), 2.1),
                                           {"wall_s": 0.1}, {"wall_s": "lower"})
        self.assertTrue(comparable)
        self.assertTrue(lines[0].endswith("ok"))

    def test_ssbd_forced_on_is_not_comparable(self):
        other = dict(self.HOST, speculation_store_bypass="thread force mitigated")
        comparable, lines = ledger.compare(self.result(self.HOST, 2.0), self.result(other, 2.0),
                                           {}, {})
        self.assertFalse(comparable)
        self.assertIn("speculation_store_bypass", lines[0])

    def test_vulnerability_file_change_is_flagged(self):
        other = dict(self.HOST, vulnerabilities={"mds": "Mitigation: Clear CPU buffers"})
        self.assertEqual(ledger.host_mismatches(self.HOST, other), ["vulnerabilities"])

    def test_regression_beyond_bound(self):
        comparable, lines = ledger.compare(self.result(self.HOST, 2.0),
                                           self.result(self.HOST, 2.5),
                                           {"wall_s": 0.1}, {"wall_s": "lower"})
        self.assertTrue(comparable)
        self.assertTrue(lines[0].endswith("REGRESSED"))


class LayerMetricsTest(unittest.TestCase):
    def test_coverage_and_overhead_of_the_workload_span(self):
        ms = 1_000_000
        trace = {
            "workload_span": "difftest.traced",
            "untraced_wall_s": 0.100,
            "counts": {"difftest.executions": 2},
            "spans": [
                span("difftest.traced", 0, 110 * ms),
                span("difftest.seed", 0, 50 * ms, parent=0),
                span("difftest.seed", 50 * ms, 100 * ms, parent=0),
                span("difftest.cell", 0, 40 * ms, parent=1),
                span("difftest.cell", 50 * ms, 90 * ms, parent=2),
            ],
        }
        metrics = ledger.layer_metrics(trace, jobs_par=4)
        self.assertEqual(list(metrics), list(ledger.layer_units()))
        self.assertAlmostEqual(metrics["trace.overhead_s"], 0.010)
        self.assertAlmostEqual(metrics["trace.coverage"], 1.0)
        self.assertAlmostEqual(metrics["difftest.cell_us"], 40_000.0)
        self.assertEqual(metrics["difftest.executions"], 2)

    def test_pool_idle_from_fig2_cells(self):
        trace = {
            "workload_span": "",
            "untraced_wall_s": 0.0,
            "counts": {},
            "spans": [
                span("fig2.sweep", 0, 100),
                span("fig2.cell/broadwell", 0, 100, parent=0),
                span("fig2.cell/zen", 0, 20, parent=0),
            ],
        }
        metrics = ledger.layer_metrics(trace, jobs_par=2)
        self.assertAlmostEqual(metrics["runner.pool_idle_frac"], 0.4)
        self.assertAlmostEqual(metrics["core.fig2_cell_s.broadwell"], 100e-9)


if __name__ == "__main__":
    unittest.main()
