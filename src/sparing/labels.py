"""Sum-set arithmetic and verification of set-indexer conditions.

A vertex label is a non-empty tuple of exact ints (`type(x) is int`),
strictly increasing, within 0..``MAX_LABEL_VALUE``; a labeling maps every
vertex index to one. `_fault` states that rule once, and each library entry
point checks its input by it: `make_label`, `read_labeling`, `verify_weak`
(so `induced_edge_labels` and `mono_edges`) and `write_labeling`. One CLI
call checks each labeling once, where it enters: `verify` in
`read_labeling`, `certify` in the `verify_weak` of `solve_and_certify`.
Each then goes on through its job's unchecked core, `_verdict` or
`_labeling_text`, which takes labels already checked. The induced edge label
is the sum set of its endpoint labels. A labeling is *weak* when, on top of
vertex- and edge-label injectivity, every edge's sum set is exactly as large
as its larger endpoint label; the mono edges, whose sum set is a singleton,
are what the sparing number counts.

For finite sets of integers |A+B| >= |A|+|B|-1 (Nathanson, *Additive Number
Theory*, 1996, Thm 1.4), so an edge is weak exactly when one endpoint is a
singleton, and mono exactly when both are. `verify_weak`'s one loop over
the edges builds each sum set once and judges it by the label sizes alone: a
singleton shifts the other label, and two labels of two or more elements
each go through `sumset` and always break the weak condition. Edge pairs are
grouped only when a sum set repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import lt
from typing import Iterable, Mapping

from .errors import GraphFormatError, IndexOutOfRange, MissingLabel, TooLarge
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

# reasons a value is not a label that some route words in its own terms
_NOT_TUPLE = "label sets must be tuples"
_NOT_INTS = "label elements must be integers"
_FALLS = "label elements must strictly increase"


def _fault(labels: list) -> str | None:
    """Why some item of ``labels`` is not a label, or None if each is one. The
    rule's tests run in its order: a tuple, of exact ints, strictly rising,
    non-empty, from 0 to ``MAX_LABEL_VALUE``; each covers the whole list."""
    if not {tuple}.issuperset(map(type, labels)):
        return _NOT_TUPLE
    elems = list(chain.from_iterable(labels))
    if not {int}.issuperset(map(type, elems)):
        return _NOT_INTS
    if not all(all(map(lt, lab, lab[1:])) for lab in labels if len(lab) > 1):
        return _FALLS
    if not all(labels):
        return "label sets must be non-empty"
    if min(elems, default=0) < 0:
        return "label sets are drawn from the non-negative integers"
    if max(elems, default=0) > MAX_LABEL_VALUE:
        return "label element exceeds 64-bit range"
    return None


def _check_labels(labels: list, keys: Iterable, error=ValueError, words={}) -> None:
    """Raises ``error`` naming the key of the first item of ``labels`` that is
    not a label, and the reason, or its entry in ``words``."""
    if _fault(labels):
        key, reason = next((k, r) for k, lab in zip(keys, labels) if (r := _fault([lab])))
        raise error(f"label of vertex {key}{words.get(reason, ': ' + reason)}")


def make_label(values: Iterable[int]) -> Label:
    """Normalize ``values`` into a label: sorted, without repeats. Raises
    ValueError for an element that is not an exact int (a bool, a float or
    an int subclass), and for an empty, negative or oversized set."""
    label = tuple(values)
    # only exact ints are normalized: the set would merge True or 1.0 into 1
    if _fault([label]) != _NOT_INTS:
        label = tuple(sorted(set(label)))
    if reason := _fault([label]):
        raise ValueError(reason)
    return label


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


def _labels(g: Graph, f: Mapping[int, Label]) -> list[Label]:
    """The labels of ``g``'s vertices in vertex order. Raises MissingLabel,
    then ValueError naming the first vertex whose label breaks the rule."""
    labels = [f[v] for v in range(g.n) if v in f]
    if len(labels) < g.n:
        raise MissingLabel(f"no label for vertices {[v for v in range(g.n) if v not in f]}")
    _check_labels(labels, range(g.n))
    return labels


def _edge_sums(
    g: Graph, labels: list[Label]
) -> tuple[list[Edge], list[Label], list[Edge], list[Edge]]:
    """The edges of ``g``, their sum sets in edge order, the mono edges and
    the edges that break the weak condition, from one loop over the edges.
    ``labels`` are labels, one per vertex in order. Raises TooLarge, before
    any sum set is built, if the edges need more than ``MAX_SUM_PAIRS`` pairs
    of label elements in all."""
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
    sums: list[Label] = []
    mono: list[Edge] = []
    wrong: list[Edge] = []
    # mono and wrong hold the edge list's own tuples, which graphs of at most
    # 64 vertices share
    for e in edges:
        u, v = e
        a, b = labels[u], labels[v]
        # a singleton shifts the other label, which keeps its size
        if sizes[u] == 1:
            x = a[0]
            if sizes[v] == 1:
                sums.append((x + b[0],))
                mono.append(e)
            else:
                sums.append(tuple([x + y for y in b]))
        elif sizes[v] == 1:
            x = b[0]
            sums.append(tuple([y + x for y in a]))
        else:
            # |A+B| >= |A| + |B| - 1 > max(|A|, |B|)
            sums.append(sumset(a, b))
            wrong.append(e)
    return edges, sums, mono, wrong


def induced_edge_labels(g: Graph, f: Mapping[int, Label]) -> dict[Edge, Label]:
    """The sum set of the endpoint labels for each edge, keyed by canonical
    edge; raises as `verify_weak` does, and TooLarge, before any sum set is
    built, if the edges need more than ``MAX_SUM_PAIRS`` pairs of elements."""
    edges, sums, _, _ = _edge_sums(g, _labels(g, f))
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
    on every edge. Every colliding pair is listed, vertex pairs then edge
    pairs, then the edges joining two labels of two or more elements; more
    than ``MAX_COLLISION_PAIRS`` pairs of either kind raise TooLarge instead.
    Raises MissingLabel for a vertex with no label, and ValueError, naming
    the vertex and the reason, for one whose label breaks the label rule."""
    return _verdict(g, _labels(g, f))


def _verdict(g: Graph, labels: list[Label]) -> Verdict:
    """`verify_weak`'s verdict on ``labels``, one label per vertex in order,
    which the caller has checked by the label rule."""
    edges, sums, mono, wrong = _edge_sums(g, labels)
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
    """The canonical text of ``f``. Raises IndexOutOfRange unless ``n`` is an
    exact int of at least 0, TooLarge if it is over 64 (before ``f`` is
    read), MissingLabel unless the keys of ``f`` are exactly 0..n-1, and
    ValueError naming the first vertex whose label breaks the label rule, so
    that `read_labeling` takes back every text written."""
    if type(n) is not int:
        raise IndexOutOfRange(f"vertex count {n!r} is not an integer")
    if n < 0:
        raise IndexOutOfRange(f"vertex count {n} is negative")
    if n > SOLVE_MAX_VERTICES:
        raise TooLarge(
            f"labeling has {n} vertices; labeling files are limited to {SOLVE_MAX_VERTICES}"
        )
    if set(f) != set(range(n)):
        raise MissingLabel(f"labeling keys must be exactly 0..{n - 1}")
    labels = [f[v] for v in range(n)]
    _check_labels(labels, range(n))
    return _labeling_text(labels)


def _labeling_text(labels: list[Label]) -> str:
    """`write_labeling`'s text of ``labels``, one label per vertex in order,
    which the caller has checked by the label rule."""
    items = ",".join([
        f'\n    "{v}": [{", ".join(map(str, lab))}]' for v, lab in enumerate(labels)
    ])
    return f'{{\n  "vertices": {len(labels)},\n  "labels": {{{items}\n  }}\n}}\n'


# the reader's own words for a label that is not a list of ints or not rising
_FILE_REASONS = dict.fromkeys((_NOT_TUPLE, _NOT_INTS), " is not a list of integers")
_FILE_REASONS[_FALLS] = " is not strictly increasing"


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
    # a JSON list is checked as the tuple it becomes; no other JSON value is a tuple
    values = [tuple(lab) if type(lab) is list else lab for lab in labels.values()]
    _check_labels(values, labels, GraphFormatError, _FILE_REASONS)
    return n, dict(zip(map(int, labels), values))
