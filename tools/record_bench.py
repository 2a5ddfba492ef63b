#!/usr/bin/env python3
"""Run bench/perf_basket and record the result as BENCH_<n>.json.

The perf basket (bench/perf_basket.cpp) times a fixed fig3a-style scenario
set and emits one JSON object per scenario on stdout; every scenario runs
twice with result_fingerprint() asserted equal, so the numbers provably
time the same simulation. This script wraps the binary, shapes the lines
into one document, and optionally compares against previous records so a
perf regression (or an accidental simulation change — the fingerprints
shift) is visible in review.

--compare names the immediate predecessor, which anchors the fingerprints:
that record defines the currently-expected simulation, and a scenario whose
fingerprint differs from it (or is missing) fails the comparison, because
its timing no longer measures the same simulation. A deliberate behaviour
change passes --accept-fingerprint-change and commits the new record. The
perf bar, however, is the BEST total events/sec across every prior
BENCH_*.json in the repo root: a regression must clear the historical
high-water mark, not just a slow immediate predecessor.

Usage:
  tools/record_bench.py [--build-dir build] [--out BENCH_8.json]
                        [--compare BENCH_7.json] [--min-speedup 0.8]
                        [--accept-fingerprint-change]

Exit status: 0 on success; 1 when the binary fails, output is malformed,
or --compare finds a fingerprint change (unless accepted) or a slowdown
past --min-speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CACHE_BUILD_TYPE = re.compile(r"^CMAKE_BUILD_TYPE:\w+=(.*)$")


def build_type_of(build_dir: Path) -> str:
    """CMAKE_BUILD_TYPE the basket binary was configured with, read from
    the build tree's CMakeCache.txt ("unknown" when unreadable). Recorded
    so a Debug-build record can never masquerade as the perf bar."""
    cache = build_dir / "CMakeCache.txt"
    try:
        for line in cache.read_text(encoding="utf-8").splitlines():
            match = CACHE_BUILD_TYPE.match(line.strip())
            if match:
                return match.group(1) or "unset"
    except OSError:
        pass
    return "unknown"


def host_metadata(build_dir: Path) -> dict:
    """The context a perf number is meaningless without: how many cores the
    recording host had and what build type produced the binary. Comparisons
    across records stay honest when these differ (see --compare note)."""
    return {
        "cpu_count": os.cpu_count() or 0,
        "cmake_build_type": build_type_of(build_dir),
    }


def run_basket(build_dir: Path, extra_args: list[str]) -> list[dict]:
    exe = build_dir / "bench" / "perf_basket"
    if not exe.exists():
        sys.exit(f"error: {exe} not found — build the repo first "
                 f"(cmake --build {build_dir} --target perf_basket)")
    proc = subprocess.run([str(exe), *extra_args], cwd=REPO,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: perf_basket exited {proc.returncode}")
    rows = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            sys.exit(f"error: perf_basket emitted a non-JSON line: {line!r}")
    if not rows or rows[-1].get("scenario") != "total":
        sys.exit("error: perf_basket output missing the trailing total row")
    return rows


def shape(rows: list[dict], build_dir: Path) -> dict:
    if len(rows) < 2:
        sys.exit("error: perf_basket produced no scenario rows — an empty "
                 "record would silently pass every future --compare")
    total = rows[-1]
    return {
        "bench": "perf_basket",
        "source": "bench/perf_basket.cpp via tools/record_bench.py",
        "fingerprint_checked": True,  # the binary DCPIM_CHECKs run1 == run2
        "host": host_metadata(build_dir),
        "scenarios": rows[:-1],
        "total": {
            "events_executed": total["events_executed"],
            "sim_seconds": total["sim_seconds"],
            "wall_seconds": total["wall_seconds"],
            "events_per_sec": total["events_per_sec"],
            "sim_seconds_per_wall_second":
                total["sim_seconds_per_wall_second"],
        },
    }


def prior_records(baseline_path: Path, out_path: Path) -> list[tuple[Path, dict]]:
    """Every prior benchmark record: the named baseline plus all BENCH_*.json
    in the repo root, excluding the record being written right now."""
    paths = {baseline_path.resolve()}
    for p in REPO.glob("BENCH_*.json"):
        paths.add(p.resolve())
    paths.discard(out_path.resolve())
    records = []
    for p in sorted(paths):
        try:
            rec = json.loads(p.read_text())
            rec["total"]["events_per_sec"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            print(f"note: skipping unreadable benchmark record {p}")
            continue
        records.append((p, rec))
    return records


def compare(record: dict, baseline_path: Path, min_speedup: float,
            out_path: Path, accept_fingerprint_change: bool = False) -> int:
    baseline = json.loads(baseline_path.read_text())
    status = 0
    # A record with zero scenarios must fail loudly: iterating an empty list
    # below would "pass" the fingerprint check without checking anything.
    if not record.get("scenarios"):
        sys.exit("error: current record has zero scenarios — nothing was "
                 "benchmarked, refusing to compare")
    if not baseline.get("scenarios"):
        sys.exit(f"error: baseline {baseline_path} has zero scenarios — "
                 f"refusing to compare against an empty record")
    old_fp = {s["protocol"]: s.get("fingerprint_fnv1a")
              for s in baseline.get("scenarios", [])}
    new_fp = {s["protocol"]: s.get("fingerprint_fnv1a")
              for s in record["scenarios"]}
    for protocol, fp in sorted(old_fp.items()):
        now = new_fp.get(protocol, "<missing>")
        if fp is None or fp == now:
            continue
        if accept_fingerprint_change:
            print(f"note: {protocol} fingerprint changed {fp} -> {now}, "
                  f"accepted by --accept-fingerprint-change — perf deltas "
                  f"are not comparable")
        else:
            print(f"FAIL: {protocol} fingerprint changed {fp} -> {now} — "
                  f"the simulation itself changed; pass "
                  f"--accept-fingerprint-change if that is deliberate")
            status = 1
    # The perf bar is the best total across every prior record, not just the
    # named baseline — otherwise one slow PR lowers the bar for the next.
    priors = prior_records(baseline_path, out_path)
    if not priors:
        sys.exit(f"error: no prior benchmark record found ({baseline_path})")
    best_path, best = max(priors,
                          key=lambda pr: pr[1]["total"]["events_per_sec"])
    old = best["total"]["events_per_sec"]
    new = record["total"]["events_per_sec"]
    old_host = best.get("host")
    if old_host is not None and old_host != record.get("host"):
        print(f"note: host/build changed {old_host} -> {record['host']} — "
              f"the perf delta includes the machine, not just the code")
    speedup = new / old if old else float("inf")
    print(f"events/sec: {old:.0f} ({best_path.name}, best of "
          f"{len(priors)} prior record(s)) -> {new:.0f}  ({speedup:.2f}x)")
    if speedup < min_speedup:
        print(f"FAIL: slowdown past --min-speedup {min_speedup}")
        status = 1
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out", default=REPO / "BENCH_8.json", type=Path)
    ap.add_argument("--compare", type=Path, default=None,
                    help="previous BENCH_*.json to diff against")
    ap.add_argument("--accept-fingerprint-change", action="store_true",
                    help="let --compare pass when a scenario's fingerprint "
                         "differs from the baseline's (a deliberate "
                         "behaviour change)")
    ap.add_argument("--min-speedup", type=float, default=0.8,
                    help="fail --compare below this new/old events-per-sec "
                         "ratio (default 0.8: 20%% slowdown budget for "
                         "machine noise)")
    ap.add_argument("basket_args", nargs="*",
                    help="extra args passed through to perf_basket")
    args = ap.parse_args()

    build_dir = args.build_dir if args.build_dir.is_absolute() \
        else REPO / args.build_dir
    record = shape(run_basket(build_dir, args.basket_args), build_dir)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    host = record["host"]
    print(f"wrote {args.out}: "
          f"{record['total']['events_per_sec']:.0f} events/sec, "
          f"{record['total']['sim_seconds_per_wall_second']:.4f} "
          f"sim-sec/wall-sec over {len(record['scenarios'])} scenarios "
          f"({host['cpu_count']} cores, {host['cmake_build_type']})")
    if args.compare:
        return compare(record, args.compare, args.min_speedup, args.out,
                       args.accept_fingerprint_change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
