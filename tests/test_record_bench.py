#!/usr/bin/env python3
"""Unit tests for tools/record_bench.py (run by ctest).

Pins the zero-record contract: a BENCH record with no scenario rows must
make --compare (and record shaping) fail loudly instead of iterating an
empty list and "passing" without checking anything — the regression this
suite exists to prevent. Also pins the fingerprint gate: --compare fails
on a changed or missing scenario fingerprint unless
--accept-fingerprint-change is passed.
"""

from __future__ import annotations

import importlib.util
import io
import json
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "record_bench", REPO / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rb = load_tool()


def scenario(protocol: str, eps: float = 1000.0, fp: str = "aa") -> dict:
    return {
        "scenario": "fig3a_default",
        "protocol": protocol,
        "events_executed": 100,
        "events_per_sec": eps,
        "fingerprint_fnv1a": fp,
    }


def record(scenarios: list[dict], eps: float = 1000.0) -> dict:
    return {
        "bench": "perf_basket",
        "fingerprint_checked": True,
        "scenarios": scenarios,
        "total": {
            "events_executed": 100,
            "sim_seconds": 0.001,
            "wall_seconds": 0.1,
            "events_per_sec": eps,
            "sim_seconds_per_wall_second": 0.01,
        },
    }


class HermeticCompare(unittest.TestCase):
    """Runs compare() against records in a temp dir."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.out = self.dir / "BENCH_new.json"
        # Hermetic high-water mark: the perf bar scans REPO/BENCH_*.json, so
        # point the tool at the temp dir, not the real checkout's records.
        self.saved_repo = rb.REPO
        rb.REPO = self.dir

    def tearDown(self):
        rb.REPO = self.saved_repo
        self.tmp.cleanup()

    def write_baseline(self, rec: dict) -> Path:
        path = self.dir / "BENCH_base.json"
        path.write_text(json.dumps(rec))
        return path


class CompareZeroRecords(HermeticCompare):
    def test_empty_current_record_fails(self):
        baseline = self.write_baseline(record([scenario("dcPIM")]))
        with self.assertRaises(SystemExit) as ctx:
            rb.compare(record([]), baseline, 0.8, self.out)
        self.assertIn("zero scenarios", str(ctx.exception))

    def test_empty_baseline_fails(self):
        baseline = self.write_baseline(record([]))
        with self.assertRaises(SystemExit) as ctx:
            rb.compare(record([scenario("dcPIM")]), baseline, 0.8, self.out)
        self.assertIn("zero scenarios", str(ctx.exception))

    def test_missing_scenarios_key_fails(self):
        baseline = self.write_baseline(record([scenario("dcPIM")]))
        current = record([scenario("dcPIM")])
        del current["scenarios"]
        with self.assertRaises(SystemExit):
            rb.compare(current, baseline, 0.8, self.out)

    def test_healthy_compare_passes(self):
        baseline = self.write_baseline(record([scenario("dcPIM")], eps=1000))
        out = io.StringIO()
        with redirect_stdout(out):
            status = rb.compare(record([scenario("dcPIM")], eps=1100),
                                baseline, 0.8, self.out)
        self.assertEqual(status, 0)
        self.assertIn("events/sec", out.getvalue())

    def test_slowdown_past_budget_fails(self):
        baseline = self.write_baseline(record([scenario("dcPIM")], eps=1000))
        out = io.StringIO()
        with redirect_stdout(out):
            status = rb.compare(record([scenario("dcPIM")], eps=100),
                                baseline, 0.8, self.out)
        self.assertEqual(status, 1)
        self.assertIn("FAIL", out.getvalue())

    def test_fingerprint_change_is_reported(self):
        baseline = self.write_baseline(
            record([scenario("dcPIM", fp="aa")], eps=1000))
        out = io.StringIO()
        with redirect_stdout(out):
            rb.compare(record([scenario("dcPIM", fp="bb")], eps=1000),
                       baseline, 0.8, self.out)
        self.assertIn("fingerprint changed", out.getvalue())


class CompareFingerprints(HermeticCompare):
    """--compare is a bit-identity gate: a changed or missing fingerprint
    fails it, however fast the run, unless the change is accepted."""

    def compare(self, current: dict, **kwargs):
        baseline = self.write_baseline(record(
            [scenario("dcPIM", fp="aa"), scenario("HPCC", fp="cc")],
            eps=1000))
        out = io.StringIO()
        with redirect_stdout(out):
            status = rb.compare(current, baseline, 0.8, self.out, **kwargs)
        return status, out.getvalue()

    def test_changed_fingerprint_fails(self):
        status, out = self.compare(record(
            [scenario("dcPIM", fp="aa"), scenario("HPCC", fp="dd")],
            eps=2000))
        self.assertEqual(status, 1)
        self.assertIn("FAIL: HPCC fingerprint changed cc -> dd", out)
        self.assertIn("--accept-fingerprint-change", out)
        self.assertNotIn("dcPIM fingerprint", out)

    def test_missing_scenario_fails(self):
        status, out = self.compare(record(
            [scenario("dcPIM", fp="aa")], eps=2000))
        self.assertEqual(status, 1)
        self.assertIn("FAIL: HPCC fingerprint changed cc -> <missing>", out)

    def test_accepted_change_passes_with_a_note(self):
        status, out = self.compare(record(
            [scenario("dcPIM", fp="aa"), scenario("HPCC", fp="dd")],
            eps=2000), accept_fingerprint_change=True)
        self.assertEqual(status, 0)
        self.assertIn("note: HPCC fingerprint changed cc -> dd, accepted", out)
        self.assertNotIn("FAIL", out)

    def test_accepting_does_not_waive_the_perf_bar(self):
        status, out = self.compare(record(
            [scenario("dcPIM", fp="aa"), scenario("HPCC", fp="dd")],
            eps=100), accept_fingerprint_change=True)
        self.assertEqual(status, 1)
        self.assertIn("FAIL: slowdown", out)

    def test_identical_fingerprints_pass(self):
        status, out = self.compare(record(
            [scenario("dcPIM", fp="aa"), scenario("HPCC", fp="cc")],
            eps=1000))
        self.assertEqual(status, 0)
        self.assertNotIn("fingerprint", out)


class ShapeZeroRecords(unittest.TestCase):
    def test_total_only_output_fails(self):
        # perf_basket printing just the trailing total row means zero
        # scenarios were timed; shaping must refuse to write such a record.
        with self.assertRaises(SystemExit) as ctx:
            rb.shape([{"scenario": "total", "events_executed": 0,
                       "sim_seconds": 0, "wall_seconds": 0,
                       "events_per_sec": 0,
                       "sim_seconds_per_wall_second": 0}], Path("build"))
        self.assertIn("no scenario rows", str(ctx.exception))

    def test_healthy_shape(self):
        rows = [scenario("dcPIM"),
                {"scenario": "total", "events_executed": 100,
                 "sim_seconds": 0.001, "wall_seconds": 0.1,
                 "events_per_sec": 1000.0,
                 "sim_seconds_per_wall_second": 0.01}]
        shaped = rb.shape(rows, Path("does-not-exist"))
        self.assertEqual(len(shaped["scenarios"]), 1)
        self.assertEqual(shaped["total"]["events_per_sec"], 1000.0)


class HostMetadata(unittest.TestCase):
    """A perf number without its machine context is noise: every record
    carries the recording host's core count and the CMake build type the
    basket binary came from."""

    def test_shape_records_host_context(self):
        rows = [scenario("dcPIM"),
                {"scenario": "total", "events_executed": 100,
                 "sim_seconds": 0.001, "wall_seconds": 0.1,
                 "events_per_sec": 1000.0,
                 "sim_seconds_per_wall_second": 0.01}]
        with tempfile.TemporaryDirectory() as td:
            (Path(td) / "CMakeCache.txt").write_text(
                "//commentary\nCMAKE_BUILD_TYPE:STRING=RelWithDebInfo\n")
            shaped = rb.shape(rows, Path(td))
        self.assertGreater(shaped["host"]["cpu_count"], 0)
        self.assertEqual(shaped["host"]["cmake_build_type"], "RelWithDebInfo")

    def test_build_type_unreadable_cache(self):
        self.assertEqual(rb.build_type_of(Path("does-not-exist")), "unknown")

    def test_build_type_unset(self):
        with tempfile.TemporaryDirectory() as td:
            (Path(td) / "CMakeCache.txt").write_text(
                "CMAKE_BUILD_TYPE:STRING=\n")
            self.assertEqual(rb.build_type_of(Path(td)), "unset")

    def test_compare_notes_host_change(self):
        with tempfile.TemporaryDirectory() as td:
            d = Path(td)
            saved = rb.REPO
            rb.REPO = d
            try:
                base = record([scenario("dcPIM")], eps=1000)
                base["host"] = {"cpu_count": 4,
                                "cmake_build_type": "RelWithDebInfo"}
                base_path = d / "BENCH_base.json"
                base_path.write_text(json.dumps(base))
                cur = record([scenario("dcPIM")], eps=1000)
                cur["host"] = {"cpu_count": 64,
                               "cmake_build_type": "Debug"}
                out = io.StringIO()
                with redirect_stdout(out):
                    rb.compare(cur, base_path, 0.8, d / "BENCH_new.json")
            finally:
                rb.REPO = saved
        self.assertIn("host/build changed", out.getvalue())


if __name__ == "__main__":
    unittest.main()
