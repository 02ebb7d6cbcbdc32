"""Tests of compare.py's rules. Run: python3 -m unittest perfbench/test_compare.py"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = [v - 10 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "gain")
        # Eight wins of ten is not enough.
        change = [v - 10 for v in self.BASE[:8]] + [150, 150]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.5),
                         "ok")
        # Ten wins but a gap inside the base's interquartile range.
        change = [v - 0.5 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "ok")

    def test_ties_count_for_neither_side(self):
        change = list(self.BASE)
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "ok")

    def test_higher_is_better(self):
        change = [v + 10 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "higher", 0.1),
                         "gain")
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.05),
                         "regression")

    def test_regression_beyond_the_bound(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "regression")
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.25),
                         "ok")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        noisy = [50, 150, 60, 140, 100, 70, 130, 100, 80, 120]
        change = [v * 1.01 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "unresolved")
        # Unless every change run is better than every base run.
        self.assertEqual(
            compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.1),
            "gain")

    def test_per_layer_metrics_have_no_regression_verdict(self):
        change = [v * 2 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", None),
                         "ok")


class LoadRunsTest(unittest.TestCase):
    def test_pairs_runs_by_seed(self):
        spec = {"latency_ms": ("lower", 0.1)}
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as change:
            for directory, values in ((base, (10, 20)), (change, (9, 30))):
                for seed, value in zip((1, 2), values):
                    with open(os.path.join(directory, f"run{seed}.out"),
                              "w") as f:
                        f.write(json.dumps({"provenance": {
                            "workload": "w", "seed": seed}}) + "\n")
                        f.write(json.dumps({
                            "correct": True, "attempted": 1, "failed": 0,
                            "metrics": {"latency_ms": {
                                "value": value, "unit": "ms"}}}) + "\n")
            rows = list(compare.compare(compare.load_runs(base),
                                        compare.load_runs(change), spec))
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["pairs"], 2)
        self.assertEqual(rows[0]["wins"], 1)


if __name__ == "__main__":
    unittest.main()
