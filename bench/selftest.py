"""Tests of the benchmark itself: oracles, span recorder, import parser,
counter repeatability and agreement with BENCHMARK.json.

Run from the root of a source checkout: ``python3 bench/selftest.py``.
The counter test runs every workload's traced run twice (about a
minute); no other benchmark run may use the checkout meanwhile.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

import oracles
import run
import tracer

sys.path.insert(0, str(run.SRC))
from wormbec import cli  # noqa: E402  (needs the path above)


def _cli(out: Path, op: run.Op) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(op.argv(out)) == 0
    return buffer.getvalue()


def _edit_csv(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[index] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class OracleTest(unittest.TestCase):
    def setUp(self) -> None:
        run.RUN_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=run.RUN_ROOT, prefix="selftest-"))

    def tearDown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _check(self, op: run.Op, corrupt=None) -> int:
        out = self.dir / f"out{len(list(self.dir.iterdir()))}"
        out.mkdir()
        stdout = _cli(out, op)
        if corrupt is not None:
            corrupt(out)
        return oracles.check(op.sub, op.sets, op.fmt, out, 0, stdout)

    def test_clean_outputs_pass_with_grid_row_counts(self):
        for op, rows in ((run.Op("profile1d"), 401), (run.Op("solve-gp"), 179),
                         (run.Op("profile3d"), 101), (run.Op("embed"), 201),
                         (run.Op("presets"), 0)):
            self.assertEqual(self._check(op), rows, op.sub)
        for op in run.WORKLOADS["sweep_json"][:1] + run.WORKLOADS["sweep_json"][-1:]:
            self.assertGreater(self._check(op), 0)

    def test_corrupted_tables_fail(self):
        p1 = "profile1d_q-1_b01.csv"
        corruptions = [
            (run.Op("profile1d"), lambda d: _edit_csv(d / p1, 7, "a_over_abg", "0.5")),
            (run.Op("profile1d"), lambda d: _edit_csv(d / p1, 7, "cs_m_per_s", "nan")),
            (run.Op("profile1d"), lambda d: _edit_csv(d / p1, 7, "r_um", "3.25")),
            (run.Op("profile1d"), lambda d: (d / p1).write_text(
                "\n".join((d / p1).read_text().splitlines()[:-1]) + "\n")),
            (run.Op("profile1d"), lambda d: (d / "feasibility_q-1_b01.json").unlink()),
            (run.Op("solve-gp"), lambda d: _edit_csv(
                d / "gp_solution_vinf0.01_b01.csv", 3, "converged", "false")),
            (run.Op("solve-gp"), lambda d: _edit_csv(
                d / "gp_solution_vinf0.01_b01.csv", 3, "res2", "1e-9")),
            (run.Op("profile3d"), lambda d: _edit_csv(
                d / "profile3d_R5_b01_vinf0.01.csv", 3, "cs0_m_per_s", "0.5")),
            (run.Op("embed"), lambda d: _edit_csv(d / "embedding_q-1_b01.csv", 50, "z_um", "1.5")),
        ]
        for op, corrupt in corruptions:
            with self.assertRaises(oracles.OracleError):
                self._check(op, corrupt)

    def test_json_null_marks_invalid_samples(self):
        op = run.WORKLOADS["sweep_json"][0]  # q = 2: every sample off the throat is invalid
        self.assertIn("wormhole.q=2", op.sets)

        def clear_null(out: Path) -> None:
            path = next(out.glob("profile1d_*.json"))
            data = json.loads(path.read_text())
            column = data["columns"].index("cs_m_per_s")
            row = next(r for r in data["rows"] if r[column] is None)
            row[column] = 1.0
            path.write_text(json.dumps(data))

        self.assertGreater(self._check(op), 0)
        with self.assertRaises(oracles.OracleError):
            self._check(op, clear_null)

    def test_corrupted_table_counts_as_failed_op(self):
        tally = run.Tally(self.dir)
        op = run.Op("embed")
        for corrupt in (False, True):
            out = tally.fresh_dir()
            stdout = _cli(out, op)
            if corrupt:
                _edit_csv(out / "embedding_q-1_b01.csv", 10, "z_um", "0.125")
            tally.record(op, out, 0, stdout, None)
        self.assertEqual((tally.attempted, len(tally.failures), tally.rows), (2, 1, 201))
        out = tally.fresh_dir()
        tally.record(op, out, 1, "", None)
        self.assertEqual(len(tally.failures), 2)


class TracerTest(unittest.TestCase):
    def test_every_binding_wrapped_and_restored(self):
        import wormbec.tableio
        original = wormbec.tableio.write_csv
        bound = [m for m in (cli, sys.modules["wormbec.gp3d"], sys.modules["wormbec.profile1d"],
                             sys.modules["wormbec.profile3d"], wormbec.tableio)
                 if getattr(m, "write_csv", None) is original]
        self.assertEqual(len(bound), 5)
        recorder = tracer.Recorder()
        patches, absent = tracer.install(recorder)
        try:
            self.assertEqual(absent, [])
            self.assertTrue(all(m.write_csv is not original for m in bound))
        finally:
            tracer.uninstall(patches)
        self.assertTrue(all(m.write_csv is original for m in bound))

    def test_missing_target_is_reported_absent(self):
        saved = dict(tracer.TARGETS)
        tracer.TARGETS["tableio"] = saved["tableio"] + ("write_parquet",)
        tracer.TARGETS["vanished"] = ("kernel",)
        try:
            patches, absent = tracer.install(tracer.Recorder())
            tracer.uninstall(patches)
        finally:
            tracer.TARGETS.clear()
            tracer.TARGETS.update(saved)
        self.assertEqual(absent, ["tableio.write_parquet", "vanished.kernel"])

    def test_self_time_excludes_children(self):
        spans = [["cli.main", 0.0, 1.0, None, None],
                 ["gp3d.solve_matching", 0.1, 0.6, 0, {"points": 3, "converged": 3}],
                 ["gp3d.matching_residuals", 0.2, 0.3, 1, None],
                 ["gp3d.matching_residuals", 0.3, 0.4, 1, None],
                 ["tableio.write_csv", 0.7, 0.9, 0, {"bytes": 10}]]
        layers = run.aggregate_spans([spans, spans], rounds=2)
        self.assertAlmostEqual(layers["cli.main"]["ms"], 300.0)
        self.assertAlmostEqual(layers["gp3d.solve_matching"]["ms"], 300.0)
        self.assertAlmostEqual(layers["gp3d.matching_residuals"]["ms"], 200.0)
        self.assertEqual(layers["gp3d.matching_residuals"]["calls"], 2)
        self.assertEqual(layers["tableio.write_csv"]["bytes"], 10)


class ImportTimeTest(unittest.TestCase):
    SAMPLE = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:        50 |        150 | site",
        "import time:       400 |        400 |         numpy.core",
        "import time:       200 |        600 |       numpy",
        "import time:        30 |         30 |       textwrap",
        "import time:       300 |        930 |     scipy.constants",
        "import time:        20 |         20 |     json",
        "import time:        10 |        960 |   wormbec.feshbach",
        "import time:         5 |        965 | wormbec",
    ])

    def test_attribution(self):
        metrics = run.parse_importtime(self.SAMPLE)
        self.assertEqual(metrics, {"import.numpy.ms": 0.6, "import.scipy.ms": 0.33,
                                   "import.wormbec.ms": 0.965})


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        # run.py may hold more workloads, for runs by hand (sweep_json).
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class CounterRepeatTest(unittest.TestCase):
    def test_counters_repeat_exactly_across_traced_runs(self):
        for workload in run.WORKLOADS:
            first, second = _traced(workload, 1), _traced(workload, 2)
            for result in (first, second):
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER_UNITS))
                self.assertTrue(all(math.isfinite(m["value"]) for m in result["metrics"].values()))
            counters = [name for name, unit in run.PER_LAYER_UNITS.items()
                        if unit in ("count", "bytes")]
            for name in counters:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"], f"{workload} {name}")
            if workload == "grid_100x":
                self.assertEqual(first["metrics"]["gp3d.matching_residuals.calls"]["value"],
                                 first["metrics"]["gp3d.solve_matching.points"]["value"])


if __name__ == "__main__":
    unittest.main()
