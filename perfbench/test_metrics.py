"""Unit tests for the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)
        self.assertAlmostEqual(metrics.percentile([0, 10], 90), 9.0)
        self.assertEqual(metrics.percentile([5], 99), 5)
        self.assertIsNone(metrics.percentile([], 50))

    def test_highest_percentile_has_ten_samples_beyond_it(self):
        self.assertIsNone(metrics.highest_supported_percentile(19))
        self.assertEqual(metrics.highest_supported_percentile(20), 50.0)
        self.assertEqual(metrics.highest_supported_percentile(99), 50.0)
        self.assertEqual(metrics.highest_supported_percentile(100), 90.0)
        self.assertEqual(metrics.highest_supported_percentile(999), 90.0)
        self.assertEqual(metrics.highest_supported_percentile(1000), 99.0)
        self.assertEqual(metrics.highest_supported_percentile(10000), 99.9)
        self.assertEqual(metrics.highest_supported_percentile(100000), 99.99)

    def test_p90_flagged_below_100_samples(self):
        self.assertFalse(metrics.p90_supported(99))
        self.assertTrue(metrics.p90_supported(100))


def span(sid, parent, start, end, name="s"):
    return {"trace": 1, "id": sid, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 10, 25)]), {1: 15})

    def test_disjoint_children_are_subtracted(self):
        st = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 10, 20),
                                 span(3, 1, 50, 80)])
        self.assertEqual(st, {1: 60, 2: 10, 3: 30})

    def test_overlapping_children_count_once(self):
        # Two service workers executing concurrently under one wait span:
        # their overlap must not be subtracted twice.
        st = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 10, 60),
                                 span(3, 1, 40, 90), span(4, 1, 45, 50)])
        self.assertEqual(st[1], 100 - 80)

    def test_children_are_clipped_to_the_parent(self):
        st = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 90, 130),
                                 span(3, 1, -20, 5)])
        self.assertEqual(st[1], 100 - 15)

    def test_grandchildren_do_not_reduce_the_grandparent_twice(self):
        st = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 0, 50),
                                 span(3, 2, 0, 50)])
        self.assertEqual(st, {1: 50, 2: 0, 3: 50})

    def test_orphans_are_roots(self):
        self.assertEqual(metrics.self_times([span(5, 99, 0, 7)]), {5: 7})


class MetricNameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ["queries_per_cpu_s", "cpu_ms_p50", "engines.execute_ms.hive-naive",
                     "service.queue_wait_ms.p90", "9lives"]:
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ["", "has space", "slash/name", "_lead", ".lead", "-lead",
                     "café", "x" * 65, None]:
            self.assertFalse(metrics.valid_metric_name(name), repr(name))

    def test_declared_metrics_are_valid_and_unique(self):
        names = [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_benchmark_json_matches_the_metric_lists(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         metrics.PER_LAYER)


def batch_raw(traced):
    """A two-query batch result file with one traced query."""
    return {
        "timed_wall_s": 2.0,
        "calib_ms": [metrics.CALIBRATION_REF_MS * x for x in (0.5, 0.5, 1.0)],
        "peak_rss_mb": 50.0,
        "setup": [{"generate_s": 1.0, "dataset_s": 0.0, "vp_s": 0.1, "tg_s": 0.2,
                   "total_s": 1.3, "cpu_s": 1.2},
                  {"generate_s": 3.0, "dataset_s": 0.0, "vp_s": 0.1, "tg_s": 0.2,
                   "total_s": 3.3, "cpu_s": 3.1},
                  {"generate_s": 2.0, "dataset_s": 0.0, "vp_s": 0.1, "tg_s": 0.2,
                   "total_s": 2.3, "cpu_s": 2.2}],
        "check": {"pairs": 2, "failures": 0},
        "queries": {"traced": [False, traced], "ok": [True, True],
                    "correct": [True, True], "latency_ms": [10.0, 12.0],
                    "cpu_ms": [8.0, 10.0],
                    "sim_s": [100.0, 300.0], "peak_dfs_bytes": [2 * 1048576, 1048576]},
        "jobs": {"q": [0, 1, 1], "map_only": [True, False, False],
                 "input_records": [10, 20, 30], "input_bytes": [1048576, 0, 1048576],
                 "map_output_records": [10, 20, 20], "map_output_bytes": [0, 0, 0],
                 "shuffle_records": [0, 10, 10], "shuffle_bytes": [0, 100, 300],
                 "shuffle_cross_bytes": [0, 0, 100], "output_bytes": [0, 0, 0],
                 "factorized_groups": [0, 2, 0], "factorized_flat_rows": [0, 6, 0],
                 "sim_s": [50.0, 150.0, 150.0]},
        "errors": [],
    }


class AggregationTest(unittest.TestCase):
    def test_end_to_end(self):
        m = metrics.end_to_end(batch_raw(False))
        # The run's median calibration took half the reference time: CPU
        # figures are doubled to the reference host speed.
        self.assertEqual(metrics.speed_factor(batch_raw(False)), 2.0)
        self.assertEqual(m["queries_per_cpu_s"], 2 / (0.018 * 2.0))
        self.assertEqual(m["cpu_ms_p50"], 18.0)
        self.assertEqual(m["sim_s"], 200.0)
        self.assertEqual(m["peak_dfs_mb"], 2.0)
        self.assertEqual(m["setup_s"], 4.4)
        self.assertEqual(m["success_rate"], 1.0)
        self.assertEqual([n for n, _ in metrics.END_TO_END], list(m))

    def test_serve_cpu_samples_are_per_read_per_epoch(self):
        raw = batch_raw(False)
        raw["context"] = {"reads_per_mutation": 64}
        raw["epoch_cpu_ms"] = [64.0, 128.0, 32.0]
        self.assertEqual(metrics.cpu_samples(raw), [2.0, 4.0, 1.0])
        m = metrics.end_to_end(raw)
        self.assertEqual(m["cpu_ms_p50"], 2.0)
        self.assertEqual(m["queries_per_cpu_s"], 2 / (0.224 * 2.0))

    def test_wall_figures(self):
        raw = batch_raw(True)
        self.assertEqual(metrics.wall(raw)["qps"], 1.0)
        self.assertEqual(metrics.wall(raw)["latency_p50_ms"], 11.0)
        self.assertEqual(metrics.wall(raw, traced=False)["latency_p50_ms"], 10.0)

    def test_wrong_results_count_as_failures(self):
        raw = batch_raw(False)
        raw["queries"]["correct"] = [True, False]
        raw["check"]["failures"] = 1
        self.assertEqual(metrics.counts(raw), (2, 2))
        self.assertEqual(metrics.end_to_end(raw)["success_rate"], 0.0)

    def test_execute_time_is_accounted_by_self_map_and_reduce(self):
        raw = batch_raw(True)
        raw["spans"] = {
            "trace": [2] * 5,
            "id": [1, 2, 3, 4, 5],
            "parent": [0, 1, 2, 3, 3],
            "name": ["query", "engines.execute.hive-mqo", "mr.job", "mr.map",
                     "mr.reduce"],
            "start_ns": [0, 1000000, 2000000, 2000000, 5000000],
            "end_ns": [20000000, 19000000, 9000000, 5000000, 9000000],
        }
        m, self_ms = metrics.per_layer(raw)
        self.assertEqual(m["engines.execute_ms"], 18.0)
        self.assertEqual(m["engines.execute_ms.hive-mqo"], 18.0)
        self.assertEqual(m["mr.map_ms"], 3.0)
        self.assertEqual(m["mr.reduce_ms"], 4.0)
        self.assertEqual(m["engines.self_ms"], 11.0)
        self.assertAlmostEqual(
            m["engines.self_ms"] + m["mr.map_ms"] + m["mr.reduce_ms"],
            m["engines.execute_ms"])
        self.assertEqual(m["mr.map_records_per_s"], (20 + 30) / 0.003)
        self.assertEqual(m["mr.jobs"], 1.5)
        self.assertEqual(m["mr.combine_ratio"], 20 / 40)
        self.assertEqual(m["mr.cross_frac"], 100 / 400)
        self.assertEqual(m["engines.factorization_factor"], 3.0)
        self.assertEqual(m["trace.overhead_frac"], 12.0 / 10.0 - 1.0)
        self.assertEqual(m["setup.generate_s"], 2.0)
        self.assertEqual(m["wall.qps"], 1.0)
        self.assertEqual(m["wall.latency_p90_ms"], 10.0)
        self.assertEqual(m["host.calib_ms"], metrics.CALIBRATION_REF_MS * 0.5)
        self.assertEqual(self_ms["mr.job"]["self_ms_total"], 0.0)
        self.assertEqual([n for n, _ in metrics.PER_LAYER], list(m))


if __name__ == "__main__":
    unittest.main()
