#!/usr/bin/env python3
"""Check the benchmark itself, on the shapes it measures.

Usage (from the root of a checkout):  python3 perfbench/selfcheck.py

Each run is as short as the driver allows (--seconds 1, so the minimum of
three timed repetitions); the whole check takes a few minutes.

1. Every workload, untraced and traced, reports correct=true, no failed
   rows, and every metric of BENCHMARK.json with its unit.
2. row-parallel's reported digest (the parallel kernel's row) equals
   row-seq's (the sequential kernel's) for the same seed, and each
   workload's traced digest (the traced rows) equals its untraced digest
   (the rows of the program's own path).
3. grid-mix reports exp.rows = 40 and exp.distinct_results = 22.
4. A grid-mix run with an injected panic in every seventh row
   (--inject-fault=panic@0:1/7) reports the failed rows instead of
   dropping them.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Exits 0 when every check passes; prints one line per check.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    """run.py's exit code, result object and digest line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result, digest = None, None
    for line in lines:
        if line.startswith("perfbench: digest "):
            digest = line.split()[2]
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, digest


def main():
    digests = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            rc, res, digest = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(rc == 0 and res is not None, f"{label}: exits 0 with a result")
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0,
                  f"{label}: correct, 0 of {res['attempted']} rows failed")
            missing = [m["name"] for m in wanted
                       if res["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            check(not missing, f"{label}: all {len(wanted)} metrics with "
                  f"units (missing: {missing or 'none'})")
            digests[(workload, trace)] = digest
            if workload == "grid-mix" and trace:
                rows = res["metrics"]["exp.rows"]["value"]
                distinct = res["metrics"]["exp.distinct_results"]["value"]
                check(rows == 40 and distinct == 22,
                      f"{label}: {distinct:g} distinct results of {rows:g} rows")

    check(digests.get(("row-seq", 0)) == digests.get(("row-parallel", 0)),
          "row-parallel digest equals row-seq digest")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        check(digests.get((workload, 0)) is not None and
              digests.get((workload, 0)) == digests.get((workload, 1)),
              f"{workload}: traced digest equals untraced digest")

    rc, res, _ = run("grid-mix", 0, "--inject-fault", "panic@0:1/7")
    check(rc == 0 and res is not None and res["failed"] > 0 and
          not res["correct"] and res["attempted"] >= res["failed"],
          "injected panics are reported as failed rows "
          f"({res and res['failed']} of {res and res['attempted']})")

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    rc, res, _ = run("row-seq", 0, cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and res is None,
          "without the simulator sources run.py fails without a result")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
