"""One workload process: set up, run the timed pass, check the outputs.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR [REQUEST_FD REPLY_FD]

MODE is ``measure`` (timed pass with tracing off) or ``trace`` (timed pass
with every traced layer wrapped; the spans are written beside WORKDIR). A
measured pass gets two pipe ends from run.py, through which it asks the
runner for a probe of the machine's pace every pace.CADENCE_S of timed work,
set-up included (see pace.py). After
a pass every output goes through the workload's gate, whose oracle answers
are kept beside WORKDIR for the next pass of the run.

WORKDIR holds the files the workload writes. The last line of stdout is one
JSON object; run.py reads it.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import pace
import tracing
from workloads import WORKLOADS, Oracle

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import the package under test from this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sparing = importlib.import_module("sparing")
    importlib.import_module("sparing.cli")
    if Path(sparing.__file__).resolve().parent != SRC / "sparing":
        raise ImportError(f"imported sparing from {sparing.__file__}, not from {SRC}")
    return sparing


def main(argv: list[str]) -> dict:
    workload, seed, seconds, mode, workdir, *probe_fds = argv
    workdir = Path(workdir)
    plan_inputs, build, files = WORKLOADS[workload]
    plan = plan_inputs(random.Random(int(seed)), float(seconds))
    for name in files(plan):
        (workdir / name).touch()
    oracle = Oracle(workdir.parent / f"oracle-{workload}-{seed}.json")
    pacer = pace.Client(*map(int, probe_fds)) if probe_fds else None

    # timed intervals: the import, the build of each op, then each op
    intervals: list[float] = []

    def timed(since: float) -> None:
        intervals.append(time.perf_counter() - since)
        if pacer:
            pacer.after(len(intervals), intervals[-1])

    if pacer:
        pacer.probe(0)
    t = time.perf_counter()
    sparing = import_program()
    tracer = tracing.Tracer()
    if mode == "trace":
        tracer.install()
    timed(t)
    ops = []
    t = time.perf_counter()
    for op in build(sparing, plan, workdir, oracle):
        ops.append(op)
        timed(t)
        t = time.perf_counter()
    setup_parts = len(intervals)

    results, errors = [], []
    for op in ops:
        t = time.perf_counter()
        try:
            results.append(op.call())
            errors.append(None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            results.append(None)
            errors.append(f"raised {exc!r}")
        timed(t)
    if pacer:
        pacer.close(len(intervals))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()

    for i, op in enumerate(ops):
        if errors[i] is None:
            errors[i] = op.check(results[i])
    oracle.save()
    report = {
        "setup_parts_s": intervals[:setup_parts],
        "wall_s": sum(intervals[setup_parts:]),
        "latency_ms": [lat * 1000 for lat in intervals[setup_parts:]],
        "errors": [f"{op.label}: {e}" if e else None for op, e in zip(ops, errors)],
        "peak_rss_mb": peak_rss_mb,
        "probe_marks": pacer.marks if pacer else [],
    }
    if mode == "trace":
        report["layers"] = tracing.layer_totals(tracer.spans)
        report["overhead_s"] = len(tracer.spans) * tracing.wrapper_cost()
        tracer.write(workdir.parent / f"spans-{workload}-{seed}.jsonl")
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
