#!/usr/bin/env python3
"""Benchmark of the dcPIM simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload ls144_imc10 --seed 1 --seconds 15 --trace 0

builds perfbench/ (and the simulator libraries under src/) with CMake, runs
the workload and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Progress and a human-readable model summary go to stderr. The exit code is
nonzero when any run aborts, fails its fingerprint or equivalence check, or
the build fails (then no JSON is printed).

    python3 perfbench/run.py --record-references

re-records references.json after a deliberate change of simulated behaviour.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

# One benchmark seed stands for SUB_SEEDS simulation seeds, and the model
# metrics average over them: one seed's slowdown and utilization vary by
# up to 11% (interquartile range) between seeds, the mean of eight by about
# a third of that. The timed runs cycle through the sub-seeds, each at
# least once and on until --seconds have passed. The set-up time is the
# median over SETUP_PROCS fresh processes of each one's first set-up, the
# cold one a user's single experiment pays; a second set-up in the same
# process must repeat its fingerprint. Set-ups repeated inside one process
# are no steadier: on the 144-host workloads they alternate between about
# 1 ms and 5 ms as the allocator trims and regrows its heap.
SUB_SEEDS = 8
SETUP_PROCS = 11
# Host time is the process's CPU time (steal time excluded) rescaled to a
# reference host on which the calibration kernel (calibrate.h) takes
# CAL_REF_S of CPU time. Every perfbench process runs the kernel before and
# after its simulation; one invocation rescales all its times by the median
# of those kernel times. This shared host's speed drifts by up to twofold
# over minutes and the kernel's time drifts with it, while the faster
# run-to-run jitter does not track between the two (README.md, "Host
# time"), so the median over the invocation does better than each run's own.
CAL_REF_S = 0.06
# Benchmark seeds whose simulations have recorded references, besides the
# held-out seed; --record-references runs RECORD_JOBS simulations at once.
RECORDED_SEEDS = range(32)
RECORD_JOBS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


def build_dir():
    """perfbench/ under $CARGO_TARGET_DIR, the build-output directory
    benchmark runners set whatever the language, else under .bench_build;
    a relative path is taken from the repository root."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds perfbench; returns the binary's path."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir)],
                ["cmake", "--build", str(bdir), "-j", jobs]):
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return bdir / "perfbench"


class Perfbench:
    """Runs one perfbench job per process and parses its JSON line."""

    def __init__(self, binary):
        self.binary = binary

    def __call__(self, cmd, **kwargs):
        argv = [str(self.binary), cmd]
        for key, value in kwargs.items():
            if value is None:
                continue
            argv.append("--" + key.replace("_", "-"))
            if value is not True:
                argv.append(str(value))
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True)
        if proc.returncode != 0:
            log(f"{' '.join(argv[1:])} exited with {proc.returncode}")
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            log(f"{' '.join(argv[1:])} printed no JSON result")
            return None


def load_references():
    return json.loads(REFERENCES.read_text())["workloads"]


def model_sane(model):
    """Simulated outcome checks that hold on every seed of every workload."""
    return (model["flows_done"] > 0
            and model["slowdown"]["count"] > 0
            and model["slowdown"]["mean"] >= 1.0
            and model["slowdown"]["p99"] >= model["slowdown"]["p50"] >= 1.0
            and 0.0 < model["utilization"] <= 1.0)


class Checker:
    """Counts attempted and failed simulations for one invocation."""

    def __init__(self, reference):
        self.reference = reference  # fingerprint for this seed, or None
        self.fingerprint = None
        self.attempted = 0
        self.failed = 0

    def check_run(self, out):
        """One run_experiment job: aborted, non-repeating or mismatching
        fingerprints and insane outcomes all count as failures."""
        self.attempted += 1
        ok = out is not None and out["repeat_ok"] == 1
        if ok and not model_sane(out["result"]):
            log(f"implausible simulated outcome: {out['result']}")
            ok = False
        if ok:
            fp = out["fingerprint"]
            if self.fingerprint is None:
                self.fingerprint = fp
            if fp != self.fingerprint:
                log(f"fingerprint {fp} differs from this run's first "
                    f"{self.fingerprint}")
                ok = False
            if self.reference is not None and fp != self.reference:
                log(f"fingerprint {fp} != recorded reference "
                    f"{self.reference}")
                ok = False
        if not ok:
            self.failed += 1
        return ok

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            log(f"check failed: {what}")
            self.failed += 1
        return ok


def model_summary(workload, model):
    s, short = model["slowdown"], model["short_slowdown"]
    log(f"{workload}: {model['flows_done']}/{model['flows_total']} flows done; "
        f"slowdown mean {s['mean']:.4f} p99 {s['p99']:.4f} (n={s['count']}); "
        f"short-flow mean {short['mean']:.4f} p99 {short['p99']:.4f} "
        f"(n={short['count']}); utilization {model['utilization']:.4f}")


def host_speed(outs):
    """How fast the host ran over these perfbench outputs, against the
    reference host: CAL_REF_S over the median calibration kernel time. Host
    seconds are CPU seconds times this; the kernel's checksum must repeat."""
    cals = [statistics.fmean(o["cal_s"]) for o in outs]
    return (CAL_REF_S / statistics.median(cals),
            len({o["cal_checksum"] for o in outs}) == 1)


def sub_seeds(seed):
    """The simulation seeds one benchmark seed stands for."""
    return [seed * SUB_SEEDS + i for i in range(SUB_SEEDS)]


def end_to_end(pb, args, checkers, _refs):
    seeds = sub_seeds(args.seed)
    setups, outs, setup_fps = [], [], {}
    for i in range(SETUP_PROCS):
        seed = seeds[i % SUB_SEEDS]
        out = pb("run", workload=args.workload, seed=seed, setup=True, reps=2)
        ok = (out is not None and out["repeat_ok"] == 1
              and setup_fps.setdefault(seed, out["fingerprint"])
              == out["fingerprint"])
        if checkers[seed].check(ok, f"set-up of seed {seed} repeats its "
                                "fingerprint within and across processes"):
            setups.append(out["cpu_s"][0])
            outs.append(out)
    rates, rss, models = [], [], {}
    start = time.monotonic()
    for i in itertools.count():
        if i >= SUB_SEEDS and time.monotonic() - start >= args.seconds:
            break
        seed = seeds[i % SUB_SEEDS]
        out = pb("run", workload=args.workload, seed=seed)
        if not checkers[seed].check_run(out):
            if sum(c.failed for c in checkers.values()) >= SUB_SEEDS:
                break  # failing repeatedly: report it, do not spin
            continue
        outs.append(out)
        rates.append(out["result"]["sim_end_ps"] / 1e6 / out["cpu_s"][0])
        rss.append(out["peak_rss_mb"])
        models[seed] = out["result"]
    values = {}
    if outs:
        speed, same = host_speed(outs)
        checkers[seeds[0]].check(same, "the calibration kernel repeats its "
                                 "checksum")
        log(f"{args.workload}: host speed {speed:.4f}")
    if rates:
        mean = lambda f: statistics.fmean(f(m) for m in models.values())
        values["sim_us_per_s"] = statistics.median(rates) / speed
        values["peak_rss_mb"] = statistics.median(rss)
        values["slowdown_mean"] = mean(lambda m: m["slowdown"]["mean"])
        values["slowdown_p99"] = mean(lambda m: m["slowdown"]["p99"])
        values["utilization"] = mean(lambda m: m["utilization"])
        for seed, model in sorted(models.items()):
            model_summary(f"{args.workload} seed {seed}", model)
        log(f"{args.workload}: {len(rates)} timed runs, simulated us per "
            f"CPU s {sorted(round(r, 1) for r in rates)}")
    if setups:
        values["setup_s"] = statistics.median(setups) * speed
    attempted = sum(c.attempted for c in checkers.values())
    failed = sum(c.failed for c in checkers.values())
    values["runs_ok_share"] = (attempted - failed) / max(attempted, 1)
    return values


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(pb, args, checkers, refs):
    seed = sub_seeds(args.seed)[0]
    checker = checkers[seed]
    spans = build_dir() / "spans" / f"{args.workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    # Untraced and traced runs alternate, so that host-speed drift during
    # the invocation weighs on both sides of harness.trace_overhead alike.
    untraced, traced = [], []
    for spans_file in (spans, None):
        untraced.append(pb("run", workload=args.workload, seed=seed))
        checker.check_run(untraced[-1])
        traced.append(pb("trace", workload=args.workload, seed=seed,
                         spans=spans_file))
    if None in untraced or None in traced:
        checker.check(False, "a traced or untraced run aborted")
        return {}
    for i, t in enumerate(traced, 1):
        checker.check(t["result"] == untraced[0]["result"],
                      f"traced run {i} reproduces run_experiment (events, "
                      "end time, flows, slowdown summary, utilization)")
    checker.check(traced[0]["counts"] == traced[1]["counts"],
                  "per-layer counts repeat across two traced runs")
    log(f"{args.workload}: slice spans written to {spans}")

    hold = pb("hold", depth=refs["pending_peak"], seed=seed)
    hop = pb("hop", workload=args.workload, seed=seed)
    sample = pb("sample", workload=args.workload, seed=seed)
    for name, out in (("hold", hold), ("hop", hop), ("sample", sample)):
        checker.check(out is not None, f"{name} driver")
    if None in (hold, hop, sample):
        return {}

    c, res = traced[0]["counts"], traced[0]["result"]
    times = lambda key: statistics.median(t["times"][key] for t in traced)
    loop_s = times("loop_s")
    untraced_s = statistics.median(u["wall_s"][0] for u in untraced)
    speed, same = host_speed(untraced)
    checker.check(same, "the calibration kernel repeats its checksum")
    untraced_host_s = (statistics.median(u["cpu_s"][0] for u in untraced)
                       * speed)
    packet_s = times("on_packet_ns") * 1e-9
    arrival_s = times("on_flow_arrival_ns") * 1e-9
    calls = c["on_packet_calls"]
    protocol = {
        "on_packet_calls": calls,
        "on_packet_ns": ratio(packet_s * 1e9, calls),
        "on_packet_share": ratio(packet_s, loop_s),
    }
    dcpim = traced[0]["protocol"] == "dcPIM"
    zero = {k: 0 for k in protocol}
    core, proto = (protocol, zero) if dcpim else (zero, protocol)
    kb = lambda key: c[key] / 1e3
    return {
        "sim.events": res["events"],
        "sim.events_per_s": res["events"] / untraced_host_s,
        "sim.pending_peak": c["pending_peak"],
        "sim.hold_ns": statistics.median(hold["ns"]),
        "net.topology_s": times("topology_s"),
        "net.hops": c["hops"],
        "net.hop_ns": statistics.median(hop["ns"]),
        "net.drops": c["drops"],
        "net.trims": c["trims"],
        "net.pool_reuse": ratio(c["pool_recycled"], c["pool_acquired"]),
        "net.queue_peak_kb.nic": kb("queue_peak_nic_bytes"),
        "net.queue_peak_kb.leaf_up": kb("queue_peak_leaf_up_bytes"),
        "net.queue_peak_kb.spine_down": kb("queue_peak_spine_down_bytes"),
        "net.queue_peak_kb.leaf_down": kb("queue_peak_leaf_down_bytes"),
        "core.on_packet_calls": core["on_packet_calls"],
        "core.on_packet_ns": core["on_packet_ns"],
        "core.on_packet_share": core["on_packet_share"],
        "core.on_flow_arrival_ns": (
            ratio(arrival_s * 1e9, c["on_flow_arrival_calls"]) if dcpim
            else 0),
        "core.tokens_sent": c["tokens_sent"],
        "core.token_expired_ratio": ratio(c["tokens_expired"],
                                          c["tokens_received"]),
        "core.accept_ratio": ratio(c["accepts_sent"], c["grants_sent"]),
        "core.pacer_skip_ratio": ratio(c["pacer_skips"],
                                       c["pacer_skips"] + c["tokens_sent"]),
        "core.matched_share": ratio(c["matched_channels"],
                                    c["host_epochs"] * c["channels"]),
        "proto.on_packet_calls": proto["on_packet_calls"],
        "proto.on_packet_ns": proto["on_packet_ns"],
        "proto.on_packet_share": proto["on_packet_share"],
        "proto.loss_recovery": 0 if dcpim else c["loss_recovery"],
        "workload.flows": res["flows_total"],
        "workload.setup_s": times("workload_setup_s"),
        "workload.sample_ns": statistics.median(sample["ns"]),
        "stats.collect_s": times("stats_collect_s"),
        "harness.trace_overhead": times("total_s") / untraced_s,
        "harness.host_speed": speed,
        "run.other_share": 1.0 - ratio(packet_s + arrival_s, loop_s),
    }


def units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] +
            bench["per_layer"]}


def run_workload(args):
    refs = load_references()
    if args.workload not in refs:
        raise BenchError(f"unknown workload '{args.workload}'")
    ref = refs[args.workload]
    pb = Perfbench(build())
    checkers = {s: Checker(ref["fingerprints"].get(str(s)))
                for s in sub_seeds(args.seed)}
    unchecked = [s for s, c in checkers.items() if c.reference is None]
    if unchecked:
        log(f"no recorded reference for simulation seeds {unchecked}: "
            "checking that their runs repeat their own fingerprint instead")
    measure = per_layer if args.trace else end_to_end
    unit = units()
    metrics = {name: {"value": value, "unit": unit[name]}
               for name, value in measure(pb, args, checkers, ref).items()}
    attempted = sum(c.attempted for c in checkers.values())
    failed = sum(c.failed for c in checkers.values())
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_references():
    """Re-records every workload's fingerprints and pending-event peak."""
    pb = Perfbench(build())
    current = json.loads(REFERENCES.read_text())
    out = {"note": "fingerprints: FNV-1a of harness::result_fingerprint per "
                   "simulation seed (benchmark seed n runs simulation seeds "
                   f"{SUB_SEEDS}n..{SUB_SEEDS}n+{SUB_SEEDS - 1}); "
                   "pending_peak: the traced run's peak "
                   "Simulator::pending() at simulation seed 0. Written by "
                   "run.py --record-references.",
           "held_out_seed": current["held_out_seed"], "workloads": {}}
    seeds = sorted(set(sub_seeds(current["held_out_seed"])).union(
        *(sub_seeds(s) for s in RECORDED_SEEDS)))
    for workload in current["workloads"]:
        with ThreadPoolExecutor(max_workers=RECORD_JOBS) as pool:
            runs = list(pool.map(
                lambda s: pb("run", workload=workload, seed=s), seeds))
        if any(r is None or not model_sane(r["result"]) for r in runs):
            raise BenchError(f"{workload}: a reference run failed")
        traced = pb("trace", workload=workload, seed=seeds[0])
        if traced is None:
            raise BenchError(f"{workload}: the traced run failed")
        out["workloads"][workload] = {
            "pending_peak": traced["counts"]["pending_peak"],
            "fingerprints": {str(s): r["fingerprint"]
                             for s, r in zip(seeds, runs)},
        }
        log(f"{workload}: recorded {len(seeds)} seeds")
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_references:
            return record_references()
        if not args.workload:
            ap.error("--workload is required")
        return run_workload(args)
    except BenchError as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
