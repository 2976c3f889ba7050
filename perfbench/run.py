#!/usr/bin/env python3
"""Closed-loop benchmark of the burling library.

    python3 perfbench/run.py --workload recognize-accept --seed 1 --seconds 15 --trace 0

One client in one process sends each request after the previous one
returns.  The corpus is made from --seed: with the library's own generator,
or, for recognize-reject, from recorded graphs under seeded vertex labels.
Every request is timed around the public library calls, and every answer
is checked outside the timed region.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it serves half the time
untraced, then one traced pass over the corpus, and reports per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The library is imported from the checkout's own `src` directory; without it
the run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3  # set-up is repeated and its median reported
# Requests served, unchecked and untimed, before the timed loop.  They are
# not counted in set-up time: which inputs come first depends on the seed.
WARMUP = 4
# The tail is this fixed percentile, so that a faster program, which sends
# more requests in a run, is still compared at the same percentile.  Runs
# give several hundred samples or more, so at least ten lie beyond it.
TAIL_PCT = 90.0
TAIL_MIN_BEYOND = 10


def import_library() -> None:
    """Put the checkout's src on the path and check that burling imports
    from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import burling
    except ImportError as e:
        sys.exit(f"error: cannot import burling from {src}: {e}")
    if not Path(burling.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: burling was imported from {burling.__file__}, not {src}")


def build_corpus(name: str, seed: int, keep: bool) -> None:
    """Run in a fresh process: import the library and build one corpus.
    Write to standard output the pickled items (None unless keep), their
    hash and the time the import and the build took."""
    start = time.perf_counter()
    import_library()
    import workloads

    wl = workloads.WORKLOADS[name]
    items = wl.build(seed)
    elapsed = time.perf_counter() - start
    pickle.dump((items if keep else None, wl.corpus_hash(items), elapsed),
                sys.stdout.buffer)


def set_up(wl, seed: int):
    """Set up SETUP_REPS times, each in a child process that is waited for,
    so that the peak memory read later is the serving loop's.  Return the
    items, the median set-up time and whether every set-up built the same
    items."""
    items = None
    times = []
    digests = set()
    for _ in range(SETUP_REPS):
        cmd = [sys.executable, __file__, "--build-corpus", wl.name, str(seed),
               "1" if items is None else "0"]
        proc = subprocess.run(cmd, capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"error: set-up of workload {wl.name} exited {proc.returncode}")
        built, digest, elapsed = pickle.loads(proc.stdout)
        items = items or built
        times.append(elapsed)
        digests.add(digest)
    if not items:
        sys.exit(f"error: workload {wl.name} built an empty corpus")
    return items, statistics.median(times), len(digests) == 1


class Served:
    """Latencies and first answers of one serving loop."""

    def __init__(self, size: int):
        self.latencies = []
        self.first = {}  # item index -> first answer
        self.per_item = [0] * size  # requests sent per item
        self.bad = 0  # raised, or differed from the item's first answer
        self.reasons = []

    @property
    def throughput(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def serve(wl, items, seconds=None, tracer=None) -> Served:
    """Closed loop over the corpus in order: for `seconds`, or exactly one
    pass when seconds is None."""
    # The corpus is the benchmark's, not the program's: keep the garbage
    # collector from rescanning it during the requests.
    gc.collect()
    gc.freeze()
    out = Served(len(items))
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(items)
        if tracer is not None:
            tracer.request_id = i
        start = time.perf_counter()
        try:
            answer = wl.request(items[idx])
            error = None
        except Exception as e:  # a raising request is a failed request
            answer, error = None, e
        end = time.perf_counter()
        out.latencies.append(end - start)
        out.per_item[idx] += 1
        i += 1
        if error is not None:
            out.bad += 1
            out.reasons.append(f"request raised {type(error).__name__}: {error}")
        elif idx not in out.first:
            out.first[idx] = answer
        elif answer != out.first[idx]:
            out.bad += 1
            out.reasons.append("answer changed between passes")
        if deadline is None:
            if i == len(items):
                break
        elif end >= deadline:
            break
    return out


def check(wl, items, served) -> tuple:
    """(failed requests, reasons): a request fails if it raised, if its
    answer differs from the item's first answer, or if that first answer
    fails the workload's check."""
    failed = served.bad
    reasons = list(served.reasons)
    for idx, answer in served.first.items():
        reason = wl.check(items[idx], answer)
        if reason is not None:
            failed += served.per_item[idx]
            reasons.append(reason)
    return failed, reasons


def tail(latencies, pct: float) -> tuple:
    """(value, percentile, samples beyond it): the fixed percentile, or the
    highest one with TAIL_MIN_BEYOND samples beyond it when the run is too
    short for the fixed one."""
    vals = sorted(latencies)
    n = len(vals)
    rank = math.ceil(pct / 100 * n)
    if n - rank < TAIL_MIN_BEYOND:
        rank = max(n - TAIL_MIN_BEYOND, 1)
        pct = 100 * rank / n
    return vals[rank - 1], pct, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def plain_run(wl, args) -> dict:
    items, setup_s, same = set_up(wl, args.seed)
    setup_mb = peak_rss_mb()
    for item in items[:WARMUP]:
        wl.request(item)
    served = serve(wl, items, args.seconds)
    peak_mb = peak_rss_mb()
    failed, reasons = check(wl, items, served)
    reasons += wl.extra_checks(items, args.seed)
    if not same:
        reasons.append("set-up built different corpora from one seed")

    lat = served.latencies
    tail_v, tail_pct, beyond = tail(lat, TAIL_PCT)
    print(f"workload {wl.name}  seed {args.seed}  corpus {len(items)} items  "
          f"sha256 {wl.corpus_hash(items)}")
    print(f"set-up: median of {SETUP_REPS} imports and corpus builds {setup_s:.4f} s")
    print(f"peak memory {setup_mb:.1f} MB after set-up, {peak_mb:.1f} MB after serving")
    print(f"latency_tail_ms is p{tail_pct:g} of {len(lat)} samples, {beyond} beyond it")
    print(f"failed_frac {failed / len(lat):g} ({failed} of {len(lat)} requests)")
    for r in sorted(set(reasons)):
        print(f"check failed: {r}")
    metrics = {
        "throughput_rps": metric(served.throughput, "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": metric(1000 * tail_v, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return {"correct": not reasons, "attempted": len(lat), "failed": failed,
            "metrics": metrics}


def traced_run(wl, args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracer.request_id = "setup"
    with tracer.installed():
        items = wl.build(args.seed)
        for item in items[:WARMUP]:
            wl.request(item)
    setup_spans, setup_counts = tracer.spans, dict(tracer.counts)

    plain = serve(wl, items, args.seconds / 2)
    tracer.spans, tracer.counts = [], type(tracer.counts)(int)
    with tracer.installed():
        traced = serve(wl, items, None, tracer)
    pass_spans = tracer.spans

    failed, reasons = 0, []
    for served in (plain, traced):
        f, r = check(wl, items, served)
        failed += f
        reasons += r
    if plain.first != {k: v for k, v in traced.first.items() if k in plain.first}:
        failed += 1
        reasons.append("traced answers differ from untraced answers")
    reasons += wl.extra_checks(items, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
    tracing.write_spans(spans_path, {"setup": setup_spans, "pass": pass_spans})

    layer = tracing.layer_metrics(setup_spans, setup_counts, pass_spans, tracer.counts)
    layer["trace.rps_ratio"] = (traced.throughput / plain.throughput, "ratio")
    layer["trace.spans"] = (len(pass_spans), "count")
    attempted = len(plain.latencies) + len(traced.latencies)
    print(f"workload {wl.name}  seed {args.seed}  corpus {len(items)} items  "
          f"sha256 {wl.corpus_hash(items)}")
    print(f"untraced {plain.throughput:.3f} 1/s, traced pass {traced.throughput:.3f} 1/s; "
          f"spans written to {spans_path.relative_to(ROOT)}")
    for r in sorted(set(reasons)):
        print(f"check failed: {r}")
    metrics = {name: metric(v, unit) for name, (v, unit) in layer.items()}
    return {"correct": not reasons, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, names) -> int:
    """Every workload in a process of its own, one after another, so each
    reports its own peak memory.  The last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric_name, m in res["metrics"].items():
            total["metrics"][f"{name}:{metric_name}"] = m
        print()
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--build-corpus"]:
        name, seed, keep = argv[1:]
        build_corpus(name, int(seed), keep == "1")
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    import_library()
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from all, {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    result = (traced_run if args.trace else plain_run)(wl, args)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
