#!/usr/bin/env python3
"""Command-line contracts of the bench binaries (run by ctest).

Pins that bad arguments and environment knobs fail loudly (exit 2, one line
on stderr) instead of being ignored or read as 0 or a fallback, that a CSV
that cannot be written fails the run, that spec-driven figures honour
--faults, and
that `bench/campaign` prints the same stdout, summary table included,
whether a campaign ran fresh or resumed from a journal. Requires the built
binaries in $DCPIM_BENCH_DIR, which ctest sets to the build's bench
directory; run by hand without it, the tests look in build/bench and skip
(with a notice) when nothing is built there.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH = Path(os.environ.get("DCPIM_BENCH_DIR", REPO / "build" / "bench"))
SPECS = REPO / "tests" / "campaign_specs"
SMOKE = SPECS / "smoke.campaign"
PLAN = "blackhole:spine0@30us:40us"


def run(binary: str, *args: str, scale: str | None = None, **env_vars: str):
    env = dict(os.environ)
    if scale is not None:
        env["DCPIM_BENCH_SCALE"] = scale
    env.update(env_vars)
    return subprocess.run([str(BENCH / binary), *args], capture_output=True,
                          text=True, env=env, timeout=300)


@unittest.skipUnless((BENCH / "campaign").exists()
                     or "DCPIM_BENCH_DIR" in os.environ,
                     f"{BENCH} not built — build the repo first")
class BenchCli(unittest.TestCase):
    def assert_usage_error(self, proc, needle: str):
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertEqual(len(proc.stderr.splitlines()), 1, proc.stderr)
        self.assertIn(needle, proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_leftover_argument_exits_2(self):
        self.assert_usage_error(run("fig3a_max_load", "--jbos", "4"),
                                "unknown argument '--jbos'")

    def test_non_numeric_jobs_exits_2(self):
        self.assert_usage_error(run("fig4a_bursty", "--jobs", "four"),
                                "--jobs expects a non-negative integer")

    def test_non_numeric_fault_seed_exits_2(self):
        self.assert_usage_error(
            run("fig4a_bursty", "--faults", PLAN, "--fault-seed=x1"),
            "--fault-seed expects a non-negative integer")

    def test_non_numeric_max_cells_exits_2(self):
        self.assert_usage_error(
            run("campaign", "--spec", str(SMOKE), "--journal", "none",
                "--max-cells", "two"),
            "--max-cells expects a non-negative integer")

    def test_unparsable_env_knobs_exit_2(self):
        for value in ("abc", "4x", "-1"):
            with self.subTest(DCPIM_JOBS=value):
                self.assert_usage_error(run("fig4a_bursty", DCPIM_JOBS=value),
                                        "DCPIM_JOBS expects a non-negative "
                                        f"integer, got '{value}'")
        for value in ("abc", "4x"):
            with self.subTest(DCPIM_BENCH_SCALE=value):
                self.assert_usage_error(run("fig4a_bursty", scale=value),
                                        "DCPIM_BENCH_SCALE expects a number, "
                                        f"got '{value}'")

    def test_jobs_env_zero_means_all_cores_like_the_flag(self):
        def jobs_used(proc):
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return {word for word in proc.stderr.split()
                    if word.startswith("jobs=")}
        smoke = ("--spec", str(SMOKE), "--journal", "none")
        by_flag = jobs_used(run("campaign", *smoke, "--jobs", "0"))
        by_env = jobs_used(run("campaign", *smoke, DCPIM_JOBS="0"))
        self.assertEqual(len(by_flag), 1, by_flag)
        self.assertEqual(by_env, by_flag)

    def test_unwritable_csv_dir_fails_naming_the_path(self):
        proc = run("fig3cde_slowdown_by_size", scale="0.05",
                   DCPIM_BENCH_CSV="/nonexistent/dir")
        self.assertNotEqual(proc.returncode, 0, proc.stderr)
        named = [ln for ln in proc.stderr.splitlines()
                 if "/nonexistent/dir/" in ln]
        self.assertEqual(len(named), 1, proc.stderr)
        self.assertIn("cannot write CSV", named[0])
        # Refused before the first cell: no header or rows on stdout, no
        # sweep progress on stderr.
        self.assertEqual(proc.stdout, "")
        self.assertNotRegex(proc.stderr, r"\[\d+/\d+\]")

    def test_binaries_without_configs_refuse_faults(self):
        for binary in ("related_fastpass", "theorem1_matching"):
            with self.subTest(binary=binary):
                self.assert_usage_error(run(binary, "--faults", PLAN),
                                        "--faults is not supported")

    def test_unreadable_spec_exits_2(self):
        self.assert_usage_error(
            run("campaign", "--spec", str(SPECS / "missing.campaign")),
            "cannot read spec")

    def test_fig4a_applies_faults(self):
        proc = run("fig4a_bursty", "--faults", PLAN, scale="0.2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        blocks = [ln for ln in proc.stdout.splitlines()
                  if ln.startswith("    faults: ")]
        self.assertEqual(len(blocks), 4, proc.stdout)

    def test_smoke_resume_matches_fresh_run(self):
        with tempfile.TemporaryDirectory() as td:
            journal = Path(td) / "smoke.journal"
            partial = run("campaign", "--spec", str(SMOKE), "--journal",
                          str(journal), "--max-cells", "2")
            self.assertEqual(partial.returncode, 3, partial.stderr)
            cells = [ln for ln in journal.read_text().splitlines()
                     if ln.startswith("cell ")]
            self.assertEqual(len(cells), 2)
            resumed = run("campaign", "--spec", str(SMOKE), "--journal",
                          str(journal))
            self.assertEqual(resumed.returncode, 0, resumed.stderr)
            self.assertIn("2 cached, 2 executed", resumed.stderr)
        fresh = run("campaign", "--spec", str(SMOKE), "--journal", "none")
        self.assertEqual(fresh.returncode, 0, fresh.stderr)
        self.assertEqual(resumed.stdout, fresh.stdout)
        lines = fresh.stdout.splitlines()
        header = lines.index(next(ln for ln in lines
                                  if ln.startswith("label ")))
        self.assertIn("load_carried_ratio", lines[header])
        self.assertEqual(len(lines[header + 1:]), 4, fresh.stdout)


if __name__ == "__main__":
    unittest.main()
