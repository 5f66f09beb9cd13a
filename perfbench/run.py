#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload row-seq|row-parallel|grid-mix \
        --seed N --seconds S --trace 0|1 [--inject-fault F:K/M]

Builds perfbench-driver from the checkout's sources (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build), runs it, and prints as the last
line of standard output one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json, with --trace 1 its per_layer metrics. Host facts, the
row digest and the row counts are printed on the line before, never inside
the metrics. --inject-fault (grid-mix only) serves perfbench/selfcheck.py.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("row-seq", "row-parallel", "grid-mix")
# A run must finish within 180 s; the first run of a checkout may also
# spend up to 900 s building.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout stop the whole group
    (cmake's compiler children too) and wait for it before raising."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(out_dir):
    """Configure (once) and build the driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(out_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries the result.
            rc, _ = run_group(cmd, max(1, deadline - time.monotonic()),
                              sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return False
        if rc != 0:
            log(f"build failed: {' '.join(cmd)} exited {rc}")
            return False
    return True


def commit():
    """The checkout's commit, when it is a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(exe, args, work, budget):
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work}"]
    if args.inject_fault:
        cmd.append(f"--inject-fault={args.inject_fault}")
    try:
        rc, out = run_group(cmd, budget, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {budget:.0f} s and was stopped")
        return None
    if rc != 0:
        log(f"driver exited {rc}")
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def end_to_end(raw):
    """The end-to-end metrics, host times in reference seconds: each time
    is scaled by the reference's nominal seconds over the reference passes
    timed beside it (perfbench/reference.hh), so a slow phase of a shared
    host divides out."""
    nominal = raw["reference_s"]
    reps = raw["reps"]
    wall = [r["wall_s"] * nominal / r["ref_wall_s"] for r in reps]
    cpu = [r["cpu_s"] * nominal * raw["ref_threads"] / r["ref_cpu_s"]
           for r in reps]
    return {
        "wall_s": statistics.median(wall),
        "sim_kips": statistics.median(
            r["instructions"] / w / 1e3 for r, w in zip(reps, wall)),
        "cpu_s": statistics.median(cpu),
        "setup_s": statistics.median(raw["setup_s"]) * nominal
        / raw["setup_ref_wall_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-fault", default="")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    if not build(out):
        return 1
    exe = out / "perfbench-driver"
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        raw = run_driver(exe, args, work, RUN_BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if raw is None:
        return 1

    values = raw["layers"] if args.trace else end_to_end(raw)
    metrics = {}
    missing = []
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for name in missing:
        log(f"metric {name} was not measured")

    host = dict(raw["host"], commit=commit(), seed=args.seed,
                workload=args.workload, trace=args.trace,
                seconds=args.seconds,
                driver_s=round(time.monotonic() - started, 3))
    if raw["reps"]:
        for key in ("wall_s", "ref_wall_s"):
            host[f"raw_{key}"] = statistics.median(r[key] for r in raw["reps"])
    print(f"perfbench: host {json.dumps(host, sort_keys=True)}")
    print(f"perfbench: digest {raw['digest']} rows_attempted "
          f"{raw['attempted']} rows_failed {raw['failed']}")

    failed = raw["failed"]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(1, raw["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
