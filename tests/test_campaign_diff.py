#!/usr/bin/env python3
"""Integration tests for tools/campaign_diff.py (run by ctest).

Pins the invalidation taxonomy: a base-key edit invalidates every cell, an
axis-value edit shows up as added+removed labels, an untouched spec is all
unchanged, and --journal annotates which cells the journal actually holds.
Also pins that `bench/campaign --csv` into a missing directory fails loudly.
Requires the built `bench/campaign` binary in $DCPIM_BENCH_DIR, which ctest
sets to the build's bench directory; run by hand without it, the tests look
in build/bench and skip (with a notice) when nothing is built there.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "campaign_diff.py"
BENCH = Path(os.environ.get("DCPIM_BENCH_DIR", REPO / "build" / "bench"))
BUILD = BENCH.parent
CAMPAIGN = BENCH / "campaign"
SMOKE = REPO / "tests" / "campaign_specs" / "smoke.campaign"


def run_diff(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args,
                           "--build-dir", str(BUILD)],
                          capture_output=True, text=True)


@unittest.skipUnless(CAMPAIGN.exists() or "DCPIM_BENCH_DIR" in os.environ,
                     f"{CAMPAIGN} not built — build the repo first")
class CampaignDiff(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.old = self.dir / "old.campaign"
        self.old.write_text(SMOKE.read_text())

    def tearDown(self):
        self.tmp.cleanup()

    def edited(self, old: str, new: str) -> Path:
        path = self.dir / "new.campaign"
        path.write_text(self.old.read_text().replace(old, new))
        return path

    def test_identical_specs_are_all_unchanged(self):
        proc = run_diff(str(self.old), str(self.old))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("4 unchanged, 0 invalidated (will re-execute), "
                      "0 added, 0 removed", proc.stdout)

    def test_base_key_edit_invalidates_every_cell(self):
        new = self.edited("gen_stop = 120us", "gen_stop = 140us")
        proc = run_diff(str(self.old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("0 unchanged, 4 invalidated (will re-execute), "
                      "0 added, 0 removed", proc.stdout)

    def test_axis_value_edit_is_added_plus_removed(self):
        new = self.edited("load = 0.5, 0.7", "load = 0.5, 0.8")
        proc = run_diff(str(self.old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("2 unchanged, 0 invalidated (will re-execute), "
                      "2 added, 2 removed", proc.stdout)
        self.assertIn("removed      protocol=dcpim load=0.7", proc.stdout)
        self.assertIn("added        protocol=dcpim load=0.8", proc.stdout)

    def test_campaign_rename_invalidates_nothing(self):
        new = self.edited("name = smoke", "name = renamed")
        proc = run_diff(str(self.old), str(new))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("4 unchanged, 0 invalidated", proc.stdout)

    def test_bad_spec_exits_with_diagnostic(self):
        bad = self.dir / "bad.campaign"
        bad.write_text("[traffic]\nload = fast\n")
        proc = run_diff(str(self.old), str(bad))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("bad.campaign:", proc.stderr)

    def test_unwritable_csv_dir_exits_with_diagnostic(self):
        missing = self.dir / "missing"
        proc = subprocess.run([str(CAMPAIGN), "--spec", str(SMOKE),
                               "--journal", "none", "--csv", str(missing)],
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0, proc.stderr)
        self.assertIn(f"cannot write merged CSV {missing}/smoke.csv",
                      proc.stderr)
        # Refused before the first cell: no cell lines or summary rows on
        # stdout, no sweep progress on stderr.
        self.assertEqual(proc.stdout, "")
        self.assertNotRegex(proc.stderr, r"\[\d+/\d+\]")

    def test_journal_annotation(self):
        # Fabricate a journal holding exactly one of the smoke cells: take
        # the real fingerprints from --list-cells so the annotation exercise
        # does not need to execute any simulation.
        listing = subprocess.run([str(CAMPAIGN), "--spec", str(self.old),
                                  "--list-cells"],
                                 capture_output=True, text=True)
        self.assertEqual(listing.returncode, 0, listing.stderr)
        first_fp = listing.stdout.splitlines()[0].split(" ")[1]
        journal = self.dir / "smoke.journal"
        journal.write_text("# dcpim-campaign-journal v1\n"
                           f"cell {first_fp} {'0' * 16} fake,row\n")
        proc = run_diff(str(self.old), str(self.old),
                        "--journal", str(journal))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.count("[cached]"), 1)
        self.assertEqual(proc.stdout.count("[uncached]"), 3)


if __name__ == "__main__":
    unittest.main()
