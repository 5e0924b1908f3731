"""Sum-set arithmetic and verification of set-indexer conditions.

A vertex label is a non-empty strictly increasing tuple of non-negative
integers; a labeling maps every vertex index to one. The induced edge label
is the sum set of its endpoint labels. A labeling is *weak* when, on top of
vertex- and edge-label injectivity, every edge's sum set is exactly as large
as its larger endpoint label — which forces a singleton on one endpoint of
every edge. `verify_weak` computes every sum set once and judges them; its
verdict also carries the mono edges, those whose sum set is a singleton,
which the sparing number counts.

One loop over the edges, in edge order, after one read of each vertex's
label, its size and whether it strictly increases, builds every sum set and
judges it as it goes. When one endpoint's label is a singleton and the
other's strictly increases, the sum set is the other label shifted by the
singleton's element: already sorted, free of repeats and as large as the
larger label, so it needs no size test, and it is mono exactly when both
labels are singletons. Every other pair, including a pair with a label that
is empty or not strictly increasing, goes through `sumset`, whose size is
compared. The edge pairs are grouped only when some sum set repeats.
`induced_edge_labels` reads its sum sets from the same loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import lt
from typing import Iterable, Mapping

from .errors import GraphFormatError, MissingLabel, TooLarge
from .graphs import SOLVE_MAX_VERTICES, Edge, Graph

Label = tuple[int, ...]
Labeling = dict[int, Label]

# Labels must stay within unsigned 64-bit values; the base-4 witness scheme
# guarantees this for graphs with fewer than 30 vertices (2 * 4**29 < 2**63).
MAX_LABEL_VALUE = 2**64 - 1
# Every sum set is built pair by pair, so the pairs over all edges are counted
# first and capped; a witness labeling needs at most 4 pairs per edge.
MAX_SUM_PAIRS = 10**6
# A verdict lists every colliding pair of vertices or edges, so the pairs of
# each kind are counted first and capped; labels that repeat a few values
# collide in up to 2,031,120 edge pairs on 64 vertices.
MAX_COLLISION_PAIRS = 10**5
# json.loads takes about 21 times its text's size in memory, so the text is
# capped first; a 29-vertex witness labeling has about 700 characters.
MAX_LABELING_TEXT = 10_000_000


def make_label(values: Iterable[int]) -> Label:
    """Normalize ``values`` into a label; raises ValueError for an element that
    is not an exact int (a bool, a float or an int subclass), and for an empty,
    negative or oversized set."""
    values = tuple(values)
    if any(type(x) is not int for x in values):
        raise ValueError("label elements must be integers")
    return _checked_label(tuple(sorted(set(values))))


def _checked_label(elems: Label) -> Label:
    """``elems``, already strictly increasing, if it is a label; else ValueError."""
    if not elems:
        raise ValueError("label sets must be non-empty")
    if elems[0] < 0:
        raise ValueError("label sets are drawn from the non-negative integers")
    if elems[-1] > MAX_LABEL_VALUE:
        raise ValueError("label element exceeds 64-bit range")
    return elems


def sumset(a: Label, b: Label) -> Label:
    """All pairwise sums of ``a`` and ``b``, de-duplicated and sorted."""
    return tuple(sorted({x + y for x in a for y in b}))


class FailureKind(Enum):
    VERTEX_COLLISION = "VertexCollision"
    EDGE_COLLISION = "EdgeCollision"
    WEAK_CONDITION_VIOLATED = "WeakConditionViolated"


@dataclass(frozen=True)
class Failure:
    kind: FailureKind
    # colliding vertex pair, colliding edge pair, or the single violating edge
    where: tuple


@dataclass(frozen=True)
class Verdict:
    """Whether a labeling passed, every failure if not, and its mono edges
    (singleton sum sets, in canonical order) either way."""

    failures: tuple[Failure, ...] = ()
    mono: tuple[Edge, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _edge_sums(
    g: Graph, f: Mapping[int, Label]
) -> tuple[list[Label], list[Edge], list[Label], list[Edge], list[Edge]]:
    """The vertex labels, the edges, their sum sets in edge order, the mono
    edges, and the edges whose sum set is not as large as their larger
    endpoint label: one loop over the edges builds, takes and judges each
    sum set.

    Raises MissingLabel if a vertex has no label, and TooLarge, before any sum
    set is built, if the edges need more than ``MAX_SUM_PAIRS`` pairs of label
    elements in all."""
    labels = [f[v] for v in range(g.n) if v in f]
    if len(labels) < g.n:
        raise MissingLabel(f"no label for vertices {[v for v in range(g.n) if v not in f]}")
    sizes = [len(lab) for lab in labels]
    edges = g.edges()
    # the exact count is needed only when the largest labels could pass the cap
    if max(sizes, default=0) ** 2 * len(edges) > MAX_SUM_PAIRS:
        pairs = sum(sizes[u] * sizes[v] for u, v in edges)
        if pairs > MAX_SUM_PAIRS:
            raise TooLarge(
                f"the sum sets need {pairs} pairs of label elements; "
                f"verification is limited to {MAX_SUM_PAIRS}"
            )
    # a shifted label is sorted, free of repeats and as large as the label
    # only if it is non-empty and strictly increases
    rising = [
        size == 1 or size > 1 and all(map(lt, lab, lab[1:]))
        for lab, size in zip(labels, sizes)
    ]
    sums: list[Label] = []
    mono: list[Edge] = []
    wrong: list[Edge] = []
    # mono and wrong hold the edge list's own tuples, which graphs of at most
    # 64 vertices share
    for e in edges:
        u, v = e
        a, b = labels[u], labels[v]
        # a shifted label has the larger endpoint's size by construction, so
        # only the sumset branch compares sizes
        if sizes[u] == 1 and rising[v]:
            x = a[0]
            if sizes[v] == 1:
                sums.append((x + b[0],))
                mono.append(e)
            else:
                sums.append(tuple([x + y for y in b]))
        elif sizes[v] == 1 and rising[u]:
            x = b[0]
            sums.append(tuple([y + x for y in a]))
        else:
            lab = sumset(a, b)
            sums.append(lab)
            size = len(lab)
            if size == 1:
                mono.append(e)
            # judged on mono edges too: a tuple that repeats one element,
            # which is no label, gives a singleton sum set with a longer endpoint
            if size != (sizes[u] if sizes[u] > sizes[v] else sizes[v]):
                wrong.append(e)
    return labels, edges, sums, mono, wrong


def induced_edge_labels(g: Graph, f: Mapping[int, Label]) -> dict[Edge, Label]:
    """The sum set of the endpoint labels for each edge, keyed by canonical edge.

    Raises TooLarge, before any sum set is built, if the edges need more than
    ``MAX_SUM_PAIRS`` pairs of label elements in all."""
    _, edges, sums, _, _ = _edge_sums(g, f)
    return dict(zip(edges, sums))


def _collisions(kind: FailureKind, labeled: Iterable[tuple[object, Label]]) -> list[Failure]:
    """Every pair of items that share a label, in first-occurrence order.

    Raises TooLarge, before any pair is listed, if there are more than
    ``MAX_COLLISION_PAIRS``."""
    groups: dict[Label, list] = {}
    for item, lab in labeled:
        groups.setdefault(lab, []).append(item)
    pairs = sum(len(group) * (len(group) - 1) // 2 for group in groups.values())
    if pairs > MAX_COLLISION_PAIRS:
        raise TooLarge(
            f"the labels give {pairs} {kind.value} pairs; "
            f"verification lists at most {MAX_COLLISION_PAIRS}"
        )
    return [
        Failure(kind, (a, b))
        for group in groups.values()
        for i, a in enumerate(group)
        for b in group[i + 1:]
    ]


def verify_weak(g: Graph, f: Mapping[int, Label]) -> Verdict:
    """Check that ``f`` is a weak set-indexer of ``g``: vertex labels pairwise
    distinct, edge sum sets pairwise distinct, and |f(u)+f(v)| = max(|f(u)|,|f(v)|)
    on every edge.

    Every colliding pair is listed, vertex pairs then edge pairs, and the
    cardinality failures follow them; more than ``MAX_COLLISION_PAIRS`` pairs
    of either kind raise TooLarge instead. One loop over the edges builds
    each sum set once, takes the mono edges and judges the sizes."""
    labels, edges, sums, mono, wrong = _edge_sums(g, f)
    failures = []
    # pairs are listed only where a label repeats; with none, the list is empty
    if len(set(labels)) < g.n:
        failures += _collisions(FailureKind.VERTEX_COLLISION, enumerate(labels))
    if len(set(sums)) < len(sums):
        failures += _collisions(FailureKind.EDGE_COLLISION, zip(edges, sums))
    failures += [Failure(FailureKind.WEAK_CONDITION_VIOLATED, (e,)) for e in wrong]
    return Verdict(tuple(failures), tuple(mono))


def mono_edges(g: Graph, f: Mapping[int, Label]) -> list[Edge]:
    """Edges whose induced label is a singleton, canonically ordered."""
    return list(verify_weak(g, f).mono)


# Labeling file format: a single JSON document
# {"vertices": n, "labels": {"<index>": [sorted ints], ...}} with every index
# 0..n-1 present. The writer is canonical (fixed key order, fixed whitespace).


def write_labeling(n: int, f: Mapping[int, Label]) -> str:
    if set(f) != set(range(n)):
        raise MissingLabel(f"labeling keys must be exactly 0..{n - 1}")
    items = ",".join([f'\n    "{v}": [{", ".join(map(str, f[v]))}]' for v in range(n)])
    return f'{{\n  "vertices": {n},\n  "labels": {{{items}\n  }}\n}}\n'


def read_labeling(text: str) -> tuple[int, Labeling]:
    if len(text) > MAX_LABELING_TEXT:
        raise GraphFormatError(f"labeling text is longer than {MAX_LABELING_TEXT} characters")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer of more digits than int()
        # converts; RecursionError: arrays or objects nested too deep
        raise GraphFormatError(f"labeling is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"vertices", "labels"}:
        raise GraphFormatError("labeling must have exactly the keys 'vertices' and 'labels'")
    n = doc["vertices"]
    labels = doc["labels"]
    if type(n) is not int or n < 0 or not isinstance(labels, dict):
        raise GraphFormatError("malformed labeling document")
    if n > SOLVE_MAX_VERTICES:
        raise GraphFormatError(
            f"labeling declares {n} vertices; graphs are limited to {SOLVE_MAX_VERTICES}"
        )
    if set(labels) != {str(v) for v in range(n)}:
        raise GraphFormatError(f"labels must cover exactly the indices 0..{n - 1}")
    out: Labeling = {}
    for key, values in labels.items():
        # JSON gives int, bool, float, str, None, list or dict; only int is an
        # element. One walk checks the types and notes a fall, which is
        # reported only if every element is an int.
        if type(values) is not list:
            raise GraphFormatError(f"label of vertex {key} is not a list of integers")
        rising = True
        last = None
        for x in values:
            if type(x) is not int:
                raise GraphFormatError(f"label of vertex {key} is not a list of integers")
            if last is not None and x <= last:
                rising = False
            last = x
        if not rising:
            raise GraphFormatError(f"label of vertex {key} is not strictly increasing")
        try:
            out[int(key)] = _checked_label(tuple(values))
        except ValueError as exc:
            raise GraphFormatError(f"label of vertex {key}: {exc}") from None
    return n, out
