"""Tests of the benchmark's own arithmetic and evidence checks.

    python3 -m unittest discover -s cipbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        xs = list(range(1, 1001))
        self.assertEqual(metrics.percentile(xs, 0.99), 990)
        with self.assertRaises(ValueError):
            metrics.percentile(xs[:999], 0.99)

    def test_median_rank_and_order_independence(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3] * 5, 0.5), 3)
        with self.assertRaises(ValueError):
            metrics.percentile([1, 2, 3], 0.5)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(metrics.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(metrics.geomean([0.5, 2.0, 1.0]), 1.0)
        self.assertAlmostEqual(metrics.geomean(x for x in [3.0]), 3.0)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            metrics.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            metrics.geomean([])


def span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "start_ns": start, "end_ns": end,
            "name": name}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 40), span(3, 1, 30, 50),  # union 10..50
                 span(4, 1, 60, 70)]
        st = metrics.self_times(spans)
        self.assertEqual(st[1], 100 - 40 - 10)
        self.assertEqual(st[2], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 100, 200), span(2, 1, 50, 150),
                 span(3, 1, 190, 300)]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 50 - 10)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 50)]
        st = metrics.self_times(spans)
        self.assertEqual((st[1], st[2], st[3]), (50, 0, 50))

    def test_summary_by_name(self):
        spans = [span(1, 0, 0, 4_000_000, "server.submit"),
                 span(2, 1, 0, 1_000_000, "server.queue"),
                 span(3, 1, 1_000_000, 4_000_000, "server.exec")]
        s = metrics.span_summary(spans)
        self.assertAlmostEqual(s["server.submit"]["self_ms"], 0.0)
        self.assertAlmostEqual(s["server.exec"]["total_ms"], 3.0)


class GeneratorTest(unittest.TestCase):
    def test_lateness_and_latency_are_from_the_due_time(self):
        reqs = [{"due_ns": 100, "send_ns": 100, "end_ns": 400,
                 "queue_ns": 50, "completed": True},
                {"due_ns": 200, "send_ns": 450, "end_ns": 900,
                 "queue_ns": 0, "completed": True},
                {"due_ns": 300, "send_ns": 299, "end_ns": 500,
                 "queue_ns": 0, "completed": False}]
        self.assertEqual(metrics.lateness_ns(reqs), [0, 250, 0])
        # A late send is charged to the request; a rejection has no latency.
        self.assertEqual(metrics.latency_ns(reqs), [300, 700])
        self.assertEqual(metrics.exec_ns(reqs[0]), 250)


def batch_raw(workload, runs_by_region, telemetry=True):
    regions = []
    for name, runs in runs_by_region.items():
        regions.append({"name": name, "epochs": 40, "tasks": 10,
                        "runs": runs})
    return {"workload": workload, "telemetry": telemetry,
            "regions": regions}


class EvidenceTest(unittest.TestCase):
    def test_domore_conflict_levels(self):
        ok = {"loopdep": [{"sync_conds": 5}], "cg": [{"sync_conds": 1}],
              "symm": [{"sync_conds": 0}], "llubench": [{"sync_conds": 0}]}
        self.assertEqual(metrics.evidence(batch_raw("domore-nest", ok)), [])
        bad = dict(ok, symm=[{"sync_conds": 0}, {"sync_conds": 3}])
        self.assertEqual(len(metrics.evidence(batch_raw("domore-nest", bad))),
                         1)

    def test_spec_checkpoint_and_rollback(self):
        rb = {"misspec": 1, "reexec_epochs": 3}
        ok = {"bigstate": [{"snapshots": 40, "copied_bytes": 1}],
              "jacobi": [rb], "cg": [rb]}
        self.assertEqual(metrics.evidence(batch_raw("spec-ckpt", ok)), [])
        silent = dict(ok, bigstate=[{"snapshots": 40, "copied_bytes": 0}],
                      jacobi=[{"misspec": 0, "reexec_epochs": 0}])
        self.assertEqual(len(metrics.evidence(batch_raw("spec-ckpt", silent))),
                         2)
        # A pass that happened not to misspeculate is fine; a run in which
        # none did is not.
        quiet = {"misspec": 0, "reexec_epochs": 0}
        self.assertEqual(metrics.evidence(batch_raw(
            "spec-ckpt", dict(ok, jacobi=[quiet, rb, quiet]))), [])
        self.assertEqual(len(metrics.evidence(batch_raw(
            "spec-ckpt", dict(ok, cg=[quiet, quiet])))), 1)
        # Without telemetry the byte count is missing, not zero.
        self.assertEqual(metrics.evidence(batch_raw(
            "spec-ckpt", dict(ok, bigstate=[{"snapshots": 40}]),
            telemetry=False)), [])

    def test_server_rates_need_grants_degrades_and_adaptive(self):
        good = [{"granted": 4, "degraded": False, "tech": "adaptive"},
                {"granted": 0, "degraded": True, "tech": "barrier"}]
        raw = {"workload": "server-mix", "telemetry": True,
               "rates": [{"name": "lo", "requests": good}]}
        self.assertEqual(metrics.evidence(raw), [])
        raw["rates"][0]["requests"] = good[1:]
        self.assertEqual(len(metrics.evidence(raw)), 2)


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_match_what_run_py_prints(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: u for k, (u, _) in metrics.PER_LAYER.items()})


if __name__ == "__main__":
    unittest.main()
