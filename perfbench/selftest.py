"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root (kept out of the package's pytest suite):

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

import check
import run
import spans

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# BENCHMARK.json names start with a letter or digit and are at most 64 long.
STRICT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _csv(rows: list[list[str]]) -> bytes:
    lines = [",".join(check.COLUMNS)] + [",".join(r) for r in rows]
    return ("\r\n".join(lines) + "\r\n").encode()


ROWS = [
    ["bound_verification", "0", "300", "6", "3", "", "0.1", "itr_zero",
     "1.25", "0.01", "1.0", "2.5", repr(1.25 - 1.0), "120", "21"],
    ["bound_verification", "0", "300", "6", "3", "", "0.1", "itr_opt",
     "1.5", "0.02", "1.125", "2.75", repr(1.5 - 1.125), "120", "21"],
]
RAW = {"scenario": "bound_verification", "methods": ["itr_zero", "itr_opt"]}


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # root [0, 10]; a [1, 4] holds b [2, 3]; c [3, 6] ran on another
        # thread and overlaps a, so the root loses only the union [1, 6].
        recorded = [
            (1, None, 1, spans.ROOT, 0.0, 10.0),
            (2, 1, 1, "popgen.sample_dataset", 1.0, 4.0),
            (3, 2, 1, "model.Dataset.rows_of", 2.0, 3.0),
            (4, 1, 1, "oracle.monte_carlo_risk", 3.0, 6.0),
        ]
        selfs = spans.self_times(recorded)
        self.assertEqual(selfs, {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0})

    def test_union_clips_to_parent(self):
        self.assertEqual(spans.covered([(-1.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0), 4.0)


class CheckerTest(unittest.TestCase):
    def test_clean_csv_passes(self):
        data = _csv(ROWS)
        self.assertEqual(check.check_csv(data, RAW, 2), (0, []))
        self.assertEqual(check.compare_reference(data, check.reference_rows(data)), (0, []))

    def test_perturbed_oracle_risk_is_flagged(self):
        reference = check.reference_rows(_csv(ROWS))
        bad = [r[:] for r in ROWS]
        bad[1][10] = repr(1.125 * (1 + 1e-6))
        failed, problems = check.compare_reference(_csv(bad), reference)
        self.assertEqual(failed, 1)
        self.assertIn("oracle_risk", problems[0])
        failed, _ = check.check_csv(_csv(bad), RAW, 2)
        self.assertEqual(failed, 1)  # excess_risk no longer equals mc - oracle

    def test_mc_risk_within_four_standard_errors_passes(self):
        reference = check.reference_rows(_csv(ROWS))
        moved = [r[:] for r in ROWS]
        moved[0][8], moved[0][12] = "1.28", repr(1.28 - 1.0)  # 2.1 combined SE away
        self.assertEqual(check.compare_reference(_csv(moved), reference)[0], 0)
        moved[0][8], moved[0][12] = "1.32", repr(1.32 - 1.0)  # 4.9 combined SE away
        self.assertEqual(check.compare_reference(_csv(moved), reference)[0], 1)

    def test_missing_rows_count_as_failed(self):
        failed, problems = check.check_csv(_csv(ROWS[:1]), RAW, 2)
        self.assertEqual(failed, 1)
        self.assertTrue(problems)


class MetricNameTest(unittest.TestCase):
    def test_names_match_pattern_and_what_the_runs_emit(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        e2e = run.metric_units("end_to_end")
        layer = run.metric_units("per_layer")
        sweep = {"rows": 1, "wall": 1.0, "up": 1, "down": 1}
        self.assertEqual(set(run.end_to_end([1.0], sweep, 1024)), set(e2e))
        emitted = set(spans.layer_metrics(spans.SpanRecorder(), 1.0, 1))
        self.assertEqual(emitted | {"cli.cpu_per_wall", "trace.overhead_s"}, set(layer))
        for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(STRICT_NAME.fullmatch(name), name)
        for unit in [*e2e.values(), *layer.values()]:
            self.assertTrue(UNIT.fullmatch(unit), unit)


class InstallTest(unittest.TestCase):
    def test_patches_every_namespace_and_restores(self):
        sys.path.insert(0, str(run.SRC))
        from fedmismatch import cli, popgen
        from fedmismatch.model import Dataset

        original, rows_of = popgen.sample_dataset, vars(Dataset)["rows_of"]
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            self.assertIsNot(cli.sample_dataset, original)
            self.assertIs(cli.sample_dataset, popgen.sample_dataset)
            self.assertIsNot(vars(Dataset)["rows_of"], rows_of)
        finally:
            recorder.uninstall()
        self.assertIs(cli.sample_dataset, original)
        self.assertIs(vars(Dataset)["rows_of"], rows_of)


if __name__ == "__main__":
    unittest.main()
