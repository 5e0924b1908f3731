"""Span tracing around the public functions of the `sparing` layers.

`Tracer.install` replaces each listed function at every module attribute
bound to it (the package re-exports them, and `cli`/`claims`/`solver` import
several by name), so cross-layer calls are caught wherever they are looked
up. Spans are kept in memory with their parent span and written once, when
the run ends. `uninstall` puts every original function back.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _nodes(args, kwargs, result) -> dict:
    return {"nodes": result.stats.nodes}


def _edges(args, kwargs, result) -> dict:
    return {"edges": args[0].edge_count}


def _mismatch(args, kwargs, result) -> dict:
    return {"mismatch": int(result.verdict == "MISMATCH")}


PACKAGE = "sparing"

# (module, function) -> annotator that records the span's deterministic counts
TRACED: dict[tuple[str, str], Callable | None] = {
    ("families", "generate"): None,
    ("families", "random_graph"): None,
    ("graphs", "read_graph"): None,
    ("graphs", "write_graph"): None,
    ("solver", "sparing_exact"): _nodes,
    ("solver", "solve_and_certify"): None,
    ("solver", "construct_witness"): None,
    ("labels", "verify_weak"): _edges,
    ("labels", "mono_edges"): None,
    ("labels", "read_labeling"): None,
    ("labels", "write_labeling"): None,
    ("claims", "check_claim"): _mismatch,
    ("claims", "predicted_value"): None,
    ("cli", "main"): None,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable, annotate: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.counts = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, targets: dict[tuple[str, str], Callable | None] = TRACED) -> None:
        """Wrap every target; raises if a listed module or function is missing."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for (module_name, func_name), annotate in targets.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None) if module is not None else None
            if not callable(original):
                self.uninstall()
                raise RuntimeError(
                    f"traced function {PACKAGE}.{module_name}.{func_name} no longer exists"
                )
            wrapper = self._wrap(f"{module_name}.{func_name}", original, annotate)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.id, "parent": s.parent, "name": s.name,
                     "start": s.start, "end": s.end, **s.counts}
                ) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call adds to a plain one: the fastest of ``repeats`` timings each."""

    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t)
        return min(times)

    traced = Tracer()._wrap("noop", noop, None)
    return max(0.0, fastest(traced) - fastest(noop)) / calls


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per function: call count, summed self time and summed span counts."""
    totals: dict[str, dict] = {
        f"{m}.{f}": {"calls": 0, "self_s": 0.0} for m, f in TRACED
    }
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += own
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
