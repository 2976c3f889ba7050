#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs the benchmark --runs times per workload, each run on its own seed
(1, 2, ...), and repeats that --sets times on the same seeds, with
run_seconds from BENCHMARK.json.  For every end-to-end metric it prints each
set's spread (distance between the first and third quartile as a share of
the median) and the change of each later set's median against the first,
next to the metric's bound.  Spreads within a set cover distinct seeds, as
the benchmark's acceptance check does; sets repeat the seeds, so the change
between them is what a comparison of two commits on those seeds would see
from noise alone.  A workload is flagged UNSTEADY when a spread or a median
change exceeds the bound, and marked "wide" when a spread exceeds a third
of it; the spread of setup_s is printed but not held to its bound.  Runs go one at a time, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 180


def run_once(cmd, workload, seed, seconds) -> dict:
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, later, better) -> float:
    """How much later's median is worse than first's, as a share of first."""
    a, b = statistics.median(first), statistics.median(later)
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("--runs must be at least 4 to give quartiles")

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    record = {}
    unsteady = []
    for workload in args.workload or names:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i
                start = time.perf_counter()
                res = run_once(spec["command"], workload, seed, spec["run_seconds"])
                if not res["correct"] or res["failed"]:
                    unsteady.append(f"{workload}: seed {seed} failed its checks")
                runs.append(res["metrics"])
                print(f"{workload} set {k + 1} seed {seed}: {time.perf_counter() - start:.1f} s",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r[name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            shifts = [worse_by(values[0], v, m["better"]) for v in values[1:]]
            flag = ""
            # Set-up time is held only to its median change on repeated
            # seeds: its spread across seeds is mostly input size (indep's
            # generated sets) or, for the 0.1 s set-up of recognize-reject,
            # import-time jitter.
            held = [] if name == "setup_s" else spreads
            if any(s > bound for s in held + shifts):
                flag = "UNSTEADY"
            elif any(s > bound / 3 for s in held):
                flag = "wide"
            if flag == "UNSTEADY":
                unsteady.append(f"{workload}: {name}")
            medians = " ".join(f"{statistics.median(v):.5g}" for v in values)
            print(f"  {name:16s} bound {bound:.2f}  median {medians}  "
                  f"spread {' '.join(f'{s:.3f}' for s in spreads)}  "
                  f"worse {' '.join(f'{s:+.3f}' for s in shifts) or '-'}  {flag}")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(record))
    if unsteady:
        print("\nunsteady:", "; ".join(unsteady))
        return 1
    print("\nall workloads steady within their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
