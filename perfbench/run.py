"""Benchmark of the sparing package: one workload, one seed, one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in its own fresh single-threaded process (worker.py), one at
a time, as a closed loop: the next call starts when the previous one returns.
The inputs come from the seed alone; no process repeats a call, so a result
cache inside the program has nothing to hit. Every output of every pass goes
through the workload's gate.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. It runs PASSES
passes over the same inputs, each in a new process and sized to about
S / PASSES seconds. The machines this runs on share their cores, and their
speed changes by up to twofold within seconds and over minutes, so each
pass is paced (pace.py): the runner times a fixed probe search between the
pass's ops, and every op's latency, and the set-up, is scaled to the
probe's reference pace. The runner and its workers are pinned to one core,
so that the probes time the core the ops run on. An op's latency is then
its fastest of the passes, wall_s the sum of those latencies, and setup_s
(importing the package and building the inputs) the fastest paced set-up.

--trace 1 reports the per-layer metrics from one traced pass over the same
inputs. Its tracing overhead is the span count times the cost of one wrapper
call, timed in the traced process after the pass. The deterministic counts
are stored under .perfbench/counts, and a later traced run of the same code,
workload, seed and length must repeat them exactly.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it gives the sample count and fail ratio. The exit status is 0
whenever a result line is printed: a wrong output or a count drift shows as
"correct": false and an error line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PASSES = 4


def budget_s(seconds: int) -> float:
    """Wall-clock limit of a whole run: its passes, set-ups and gates."""
    return 5 * seconds + 50

# count metrics that must repeat exactly for the same code, workload and seed
DETERMINISTIC = ("solver.nodes", "labels.verify_weak.edges", "claims.mismatch_rows")


class BenchError(Exception):
    pass


def run_worker(args, mode: str, deadline: float) -> dict:
    """One pass in a fresh worker process; a measured pass is paced through two pipes."""
    workdir = OUT / f"work-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    child_fds = (request_w, reply_r) if mode == "measure" else ()
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds / PASSES), mode, str(workdir), *map(str, child_fds)]
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, pass_fds=child_fds,
                                env=dict(os.environ, PYTHONHASHSEED="0"))
        try:
            os.close(request_w)
            os.close(reply_r)
            probe_ms = pace.serve(request_r, reply_w, deadline) if child_fds else []
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except (TimeoutError, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} pass of {args.workload} ran past the time budget") from None
        finally:
            if proc.poll() is None:  # a failed or late pass: kill and reap the worker
                proc.kill()
                proc.communicate()
    finally:
        for fd in (request_r, request_w, reply_r, reply_w):
            try:
                os.close(fd)
            except OSError:  # closed already
                pass
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {args.workload} exited with status {proc.returncode}")
    return {**json.loads(out.strip().splitlines()[-1]), "probe_ms": probe_ms}


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer metrics named `<module>.<function>.<field>` from the traced totals."""
    layers = traced["layers"]
    out: dict[str, float] = {}
    for layer, totals in layers.items():
        for key, value in totals.items():
            out[f"{layer}.{key}"] = value
    out["solver.nodes"] = layers["solver.sparing_exact"].get("nodes", 0)
    out["labels.verify_weak.edges"] = layers["labels.verify_weak"].get("edges", 0)
    out["claims.mismatch_rows"] = layers["claims.check_claim"].get("mismatch", 0)
    solve_s = layers["solver.sparing_exact"]["self_s"]
    out["solver.nodes_per_s"] = out["solver.nodes"] / solve_s if solve_s else 0.0
    out["trace.overhead_s"] = traced["overhead_s"]
    return out


def code_digest() -> str:
    """Hash of the program and benchmark sources; counts are compared only within one."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "sparing").glob("*.py"), *HERE.glob("*.py"),
                        HERE / "check_reference.json"]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(counts: dict, args) -> list[str]:
    """Compare counts against an earlier traced run of the same inputs, or store them."""
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-s{args.seconds}-{code_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [
        f"count drift: {name} was {before.get(name)} in an earlier run, {value} now"
        for name, value in counts.items() if before.get(name) != value
    ]


def measure(args, deadline: float) -> tuple[dict, list[str | None], list[str], str]:
    # the passes of this run share the gate's oracle answers, an earlier run's never
    (OUT / f"oracle-{args.workload}-{args.seed}.json").unlink(missing_ok=True)
    run = lambda mode: run_worker(args, mode, deadline)
    if args.trace:
        traced = run("trace")
        values = layer_metrics(traced)
        counts = {k: v for k, v in values.items() if k.endswith(".calls") or k in DETERMINISTIC}
        note = (f"traced pass {traced['wall_s']:.3f} s; "
                f"spans in {OUT.name}/spans-{args.workload}-{args.seed}.jsonl")
        return values, traced["errors"], check_repeat(counts, args), note

    passes = [run("measure") for _ in range(PASSES)]
    setups, paced = [], []
    for p in passes:
        parts = len(p["setup_parts_s"])
        factors = pace.scales(p["probe_marks"], p["probe_ms"], parts + len(p["latency_ms"]))
        setups.append(sum(s * f for s, f in zip(p["setup_parts_s"], factors)))
        paced.append([lat * f for lat, f in zip(p["latency_ms"], factors[parts:])])
    errors = [next(filter(None, op_errors), None) for op_errors in zip(*(p["errors"] for p in passes))]
    latencies = [min(op_lats) for op_lats in zip(*paced)]
    ordered = metrics.latency_order(latencies, [e is not None for e in errors])
    values = {
        "setup_s": min(setups),
        "wall_s": sum(latencies) / 1000,
        "latency_ms.p50": metrics.percentile(ordered, 50),
        "latency_ms.p90": metrics.percentile(ordered, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    note = (f"{len(ordered)} latency samples and set-up times, each the fastest of {PASSES} "
            f"passes at the reference pace; {sum(len(p['probe_ms']) for p in passes)} probes")
    return values, errors, [], note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "sparing" / "__init__.py").is_file():
        raise BenchError(f"no sparing package under {ROOT / 'src'}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    # the probes must time the core the ops run on: the runner and its workers share one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    values, failures, problems, note = measure(args, time.monotonic() + budget_s(args.seconds))
    missing = {m["name"] for m in declared} - set(values)
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    failed = [f for f in failures if f is not None]
    for line in (failed + problems)[:20]:
        print(f"error: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(failures)} ops, {len(failed)} failed "
          f"(fail_ratio {len(failed) / len(failures):.4f}); {note}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
