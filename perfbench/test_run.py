#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_run.py

They build perfbench like run.py does and take about a minute. Scratch
files go under the build directory.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock
from pathlib import Path

import run

RUN_PY = Path(run.__file__).resolve()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# BENCH_7.json: bench/perf_basket's dcPIM and NDP cells, seed 1.
BENCH7_FINGERPRINTS = {"basket_dcpim": "aafa5b73b4b9dc42",
                       "basket_ndp": "1d52f68fe6a3017c"}


def bench(*argv, root=run.ROOT):
    """Runs root's run.py from root; returns (exit code, last stdout line as
    JSON or None)."""
    env = dict(os.environ)
    if root != run.ROOT:
        env.pop("CARGO_TARGET_DIR", None)  # build inside the copy
    proc = subprocess.run(
        [sys.executable, str(root / RUN_PY.relative_to(run.ROOT)), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (ValueError, IndexError):
        return proc.returncode, None


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pb = run.Perfbench(run.build())
        cls.scratch = run.build_dir() / "test"
        shutil.rmtree(cls.scratch, ignore_errors=True)
        cls.scratch.mkdir(parents=True)

    def test_composition_matches_perf_basket(self):
        for workload, fingerprint in BENCH7_FINGERPRINTS.items():
            out = self.pb("run", workload=workload, seed=1)
            self.assertIsNotNone(out)
            self.assertEqual(out["fingerprint"], fingerprint, workload)

    def test_corrupted_reference_fails(self):
        refs = run.load_references()
        seed = run.sub_seeds(1)[0]
        refs["ls144_imc10"]["fingerprints"][str(seed)] = "0123456789abcdef"
        argv = ["run.py", "--workload", "ls144_imc10", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        stdout = io.StringIO()
        with mock.patch.object(run, "load_references", return_value=refs), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(stdout):
            rc = run.main()
        out = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(rc, 0)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["metrics"]["runs_ok_share"]["value"], 1.0)

    def check_metrics(self, out, declared):
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(out["metrics"]), set(units))
        for name, m in out["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertEqual(m["unit"], units[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_metric_is_declared(self):
        rc, out = bench("--workload", "ls144_imc10", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        self.check_metrics(out, BENCHMARK["end_to_end"])
        for name, m in out["metrics"].items():
            self.assertGreater(m["value"], 0, name)
        rc, out = bench("--workload", "ls144_imc10_ndp", "--seed", "1",
                        "--trace", "1")
        self.assertEqual(rc, 0)
        self.check_metrics(out, BENCHMARK["per_layer"])

    def test_fails_without_the_simulator_sources(self):
        bare = self.scratch / "bare"
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = bench("--workload", "ls144_imc10", "--seed", "1",
                        "--seconds", "1", "--trace", "0", root=bare)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(out)


if __name__ == "__main__":
    unittest.main()
