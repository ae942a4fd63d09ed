#!/usr/bin/env python3
"""Unit tests for compare.py: python3 bench/escape_bench/test_compare.py"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {
    "command": ["python3", "bench/escape_bench/run.py"],
    "paths": ["bench/escape_bench"],
    "run_seconds": 1,
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "x", "unit": "count", "better": "lower"}],
}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)
        self.spec = self.root / "BENCHMARK.json"
        self.spec.write_text(json.dumps(SPEC))

    def tearDown(self):
        self.tmp.cleanup()

    def write_runs(self, name, lat, rate=None):
        for seed, value in enumerate(lat, start=1):
            metrics = {"lat": {"value": value, "unit": "ms"}}
            if rate is not None:
                metrics["rate"] = {"value": rate[seed - 1], "unit": "1/s"}
            out = self.root / name / "w"
            out.mkdir(parents=True, exist_ok=True)
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            (out / f"{seed}.json").write_text(json.dumps(result))
        return str(self.root / name)

    def run_cmd(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = compare.main(["--spec", str(self.spec), *argv])
        return code, out.getvalue()

    def test_seed_list(self):
        self.assertEqual(compare.seed_list("1-3,7"), [1, 2, 3, 7])

    def test_spread_uses_statistics_quartiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 30]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / q2)

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(compare.worse_by(100, 110, "lower"), 0.1)
        self.assertAlmostEqual(compare.worse_by(100, 110, "higher"), -0.1)

    def test_agree_within_and_beyond_bound(self):
        a = self.write_runs("a", [10.0] * 5, [100.0] * 5)
        b = self.write_runs("b", [10.5] * 5, [96.0] * 5)
        c = self.write_runs("c", [12.0] * 5, [100.0] * 5)
        self.assertEqual(self.run_cmd("agree", a, b)[0], 0)
        code, out = self.run_cmd("agree", a, c)
        self.assertEqual(code, 1)
        self.assertIn("DISAGREE", out)

    def test_judge_better_when_every_pair_wins(self):
        parent = self.write_runs("p", [10.0 + 0.01 * i for i in range(10)])
        change = self.write_runs("c", [8.0 + 0.01 * i for i in range(10)])
        code, out = self.run_cmd("judge", parent, change)
        self.assertEqual(code, 0)
        self.assertIn("lat=better", out)

    def test_judge_worse_beyond_bound(self):
        parent = self.write_runs("p", [10.0 + 0.01 * i for i in range(10)])
        change = self.write_runs("c", [12.0 + 0.01 * i for i in range(10)])
        code, out = self.run_cmd("judge", parent, change)
        self.assertEqual(code, 1)
        self.assertIn("lat=worse", out)

    def test_judge_unresolved_when_spread_exceeds_bound(self):
        noisy = [5, 15, 6, 14, 7, 13, 8, 12, 9, 11]
        parent = self.write_runs("p", noisy)
        change = self.write_runs("c", list(reversed(noisy)))
        self.assertIn("lat=unresolved", self.run_cmd("judge", parent, change)[1])

    def test_judge_per_layer_metric_has_no_bound(self):
        def runs(name, values):
            out = self.root / name / "w"
            out.mkdir(parents=True, exist_ok=True)
            for seed, value in enumerate(values, start=1):
                result = {"metrics": {"x": {"value": value, "unit": "count"}}}
                (out / f"{seed}.json").write_text(json.dumps(result))
            return str(self.root / name)

        parent = runs("p", [10.0 + 0.01 * i for i in range(10)])
        self.assertIn("x=worse", self.run_cmd(
            "judge", parent, runs("c", [11.0 + 0.01 * i for i in range(10)]))[1])
        self.assertIn("x=no difference shown", self.run_cmd(
            "judge", parent, runs("d", [10.0 + 0.01 * i for i in range(10)]))[1])

    def test_judge_needs_ten_pairs(self):
        parent = self.write_runs("p", [10.0] * 5)
        change = self.write_runs("c", [8.0] * 5)
        self.assertIn("lat=too few pairs", self.run_cmd("judge", parent, change)[1])

    def test_baseline_records_median_and_iqr(self):
        runs = self.write_runs("a", [1.0, 2.0, 3.0, 4.0, 5.0])
        out = self.root / "baseline.json"
        self.assertEqual(self.run_cmd("baseline", runs, "--out", str(out))[0], 0)
        baseline = json.loads(out.read_text())
        self.assertEqual(baseline["workloads"]["w"]["lat"]["median"], 3.0)
        q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
        self.assertEqual(baseline["workloads"]["w"]["lat"]["iqr"], q3 - q1)


if __name__ == "__main__":
    unittest.main()
