"""Tests of the benchmark itself: the correctness gate, the trace accounting, BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs both command sequences once on a 10-day corpus (about a minute).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"days": 10, "sequences": ("empirical", "protocols"), "min_gaps": 2, "why": "test"}


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _edit_csv_value(path: Path, row_index: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row_index].split(",")
    cells[3] = repr(float(cells[3]) + delta)
    lines[row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TinyRun(unittest.TestCase):
    """One set-up and two traced repetitions of a 10-day corpus, shared by the tests."""

    @classmethod
    def setUpClass(cls):
        workloads.WORKLOADS["tiny"] = TINY
        cls.work = HERE / "out" / f"test-{os.getpid()}"
        cls.work.mkdir(parents=True)
        args = argparse.Namespace(workload="tiny", seed=3, seconds=1, trace=1)
        cls.bench = run.Bench(args, cls.work, start=run.time.perf_counter())
        cls.bench.keep_outputs = True
        if not cls.bench.setup(0, traced=True):
            raise RuntimeError(f"set-up failed: {cls.bench.gate.failures}")
        cls.reps = [cls.bench.repetition(k, traced=True) for k in range(2)]
        cls.bench.reps = cls.reps

    @classmethod
    def tearDownClass(cls):
        del workloads.WORKLOADS["tiny"]
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_clean_run_passes_every_check(self):
        self.assertTrue(all(r["ok"] for r in self.reps))
        self.assertEqual(self.bench.gate.failures, [])
        self.assertGreater(self.bench.gate.attempted, 50)

    def test_traced_parts_add_up_to_command_wall_time(self):
        for rep in self.reps:
            for parts, _ in rep["commands"]:
                total = parts["startup"] + parts["import"] + parts["layers"] + parts["self"]
                self.assertAlmostEqual(total, parts["wall"], places=9)
                self.assertGreaterEqual(parts["startup"], 0.0)
                self.assertGreaterEqual(parts["self"], 0.0)

    def test_exact_counts_repeat(self):
        values = self.bench.per_layer()
        self.assertEqual(self.bench.gate.failures, [])
        self.assertEqual(values["cli.commands"], 17)  # 16 pipeline commands + synth
        self.assertGreater(values["metrics.dtw_distance.cells"], 0)
        self.assertGreater(values["protocols.find_stable_windows.windows"], 0)
        self.assertEqual(values["core.ingest_csv.calls"], 16)

    def _corrupted(self, name, edit, seq):
        """Copy repetition 0's outputs, apply edit, and run that sequence's checks."""
        out = self.work / f"corrupt-{name}"
        shutil.copytree(self.work / "rep0", out)
        edit(out / seq)
        gate = checks.Gate()
        fx = self.bench.fixture
        if seq == "empirical":
            checks.check_empirical(gate, fx, out / seq, self.bench.seeds["mask"],
                                   workloads.EXTERNAL_METHOD)
        else:
            checks.check_protocols(gate, fx, out / seq, workloads.RATIO_A, workloads.N_PEAKS_B,
                                   workloads.HYPO_WINDOW_MIN)
        return gate

    def test_gate_fails_on_corrupted_outputs(self):
        def scale_rmse(d):
            d["groups"][0]["rmse"] *= 1.0001

        def drop_mask(d):
            d["masks"].pop()

        def drop_b_window(d):
            d["windows"].pop()

        def shift_calibration(d):
            d["summaries"][0]["truth_mean"] += 1e-3

        def shrink_a_gap(d):
            rec = next(r for r in d["masks"] if r["gaps"])
            rec["gaps"][0]["length_samples"] -= 1

        def retained_routed_row(p):
            _, masks = checks.read_masks(p / "masks.json")
            key = sorted(masks)[0]
            t = next(t for t in range(masks[key][0]) if t not in checks.hidden_indices(masks[key]))
            # routed.csv lists episodes in key order, one row per index, after a header
            offset = sum(masks[k][0] for k in sorted(masks) if k < key)
            _edit_csv_value(p / "routed" / "routed.csv", 1 + offset + t, 0.5)

        def hidden_lerp_row(p):
            _, masks = checks.read_masks(p / "stressB" / "masks.json")
            key = sorted(masks)[0]
            t = min(checks.hidden_indices(masks[key]))
            _edit_csv_value(p / "lerpB.csv", 1 + t, 0.25)

        cases = [
            ("report", "empirical", lambda p: _edit_json(p / "eval" / "report.json", scale_rmse),
             "report.values"),
            ("masks", "empirical", lambda p: _edit_json(p / "masks.json", drop_mask),
             "masks.episodes"),
            ("routed", "empirical", retained_routed_row, "routing.routed"),
            ("calibration", "empirical",
             lambda p: _edit_json(p / "cal" / "calibration.json", shift_calibration),
             "calibration.values"),
            ("ratio", "protocols", lambda p: _edit_json(p / "stressA" / "masks.json", shrink_a_gap),
             "protocol_A.ratio"),
            ("windows", "protocols",
             lambda p: _edit_json(p / "stressB" / "windows.json", drop_b_window), "windows.count"),
            ("lerp", "protocols", hidden_lerp_row, "imputed.lerp"),
            ("missing", "protocols", lambda p: (p / "evalC" / "report.json").unlink(),
             "protocol_C"),
        ]
        for name, seq, edit, expected in cases:
            with self.subTest(name):
                gate = self._corrupted(name, edit, seq)
                self.assertGreater(gate.failed, 0)
                self.assertTrue(any(f.startswith(expected) for f in gate.failures), gate.failures)

    def test_byte_identity_gate(self):
        gate = checks.Gate()
        reference = checks.tree_digest(self.work / "rep0")
        checks.same_outputs(gate, dict(reference), reference, "same")
        changed = dict(reference, **{"empirical/masks.json": "0" * 64})
        checks.same_outputs(gate, changed, reference, "changed")
        self.assertEqual((gate.attempted, gate.failed), (2, 1))


class SpanAccounting(unittest.TestCase):
    def _span(self, i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "counts": {}}

    def test_parts_and_overlap(self):
        good = [
            self._span(0, None, "cli.impute", 1.0, 5.0),
            self._span(1, 0, "cli.import", 1.0, 2.0),
            self._span(2, 0, "core.ingest_csv", 2.0, 3.5),
            self._span(3, 0, "imputers.impute", 3.5, 4.0),
        ]
        parts, problems = spans.command_parts(good, 0.5, 5.25)
        self.assertEqual(problems, [])
        self.assertEqual((parts["startup"], parts["import"], parts["layers"], parts["self"]),
                         (0.75, 1.0, 2.0, 1.0))
        overlapping = good + [self._span(4, 0, "masks.read_masks_json", 3.9, 4.5)]
        _, problems = spans.command_parts(overlapping, 0.5, 5.25)
        self.assertTrue(problems)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(name, spec["why"]) for name, spec in workloads.WORKLOADS.items()])
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         spans.per_layer_metrics())

    def test_exits_nonzero_without_the_program(self):
        bare = HERE / "out" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
