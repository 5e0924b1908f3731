"""Deterministic generators for the named graph families.

Every generator documents its vertex numbering so the named partitions are
addressable: clique/cycle vertices come first (0-based, consecutive), then
independent/apex/rim-attachment vertices. Partitions are returned alongside
the graph and satisfy their defining structural property (independent sets
are independent, cliques are complete, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from .errors import InvalidParam, UnknownPartition
from .graphs import Edge, Graph, graph_from_edges

Partitions = dict[str, frozenset[int]]


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its parameters, e.g. FamilySpec("cycle", {"n": 5})."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)

    def param_string(self) -> str:
        """Canonical 'k=v,...' rendering in the family's documented parameter order."""
        order = FAMILY_PARAMS.get(self.family) or sorted(self.params)
        parts = []
        for key in order:
            if key not in self.params:
                continue
            value = self.params[key]
            if isinstance(value, (list, tuple)):
                if value and isinstance(value[0], (list, tuple)):
                    rendered = "[" + ";".join(",".join(map(str, row)) for row in value) + "]"
                else:
                    rendered = ",".join(map(str, value))
            else:
                rendered = str(value)
            parts.append(f"{key}={rendered}")
        return ",".join(parts) if parts else "-"

    def __str__(self) -> str:
        return f"family={self.family};params={self.param_string()}"


@dataclass(frozen=True)
class LabeledGraph:
    """A generated graph together with its named vertex partitions."""

    graph: Graph
    partitions: Partitions
    spec: FamilySpec


def partition_of(lg: LabeledGraph, name: str) -> frozenset[int]:
    if name not in lg.partitions:
        known = ", ".join(sorted(lg.partitions)) or "none"
        raise UnknownPartition(f"{lg.spec.family} has no partition {name!r} (known: {known})")
    return lg.partitions[name]


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParam(message)


# the integer-list parameters and what each lists; every other parameter is
# an integer, except the adjacency rows of split and bisplit, which their
# builders check
LIST_PARAMS = {"parts": "part sizes", "cliques": "clique sizes", "cycles": "cycle lengths"}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checked_param(params: Mapping[str, object], key: str, owner: str, error=InvalidParam):
    """``params[key]`` after its type check; raises ``error`` naming ``owner``."""
    if key not in params:
        raise error(f"{owner} requires parameter {key}")
    value = params[key]
    if key not in LIST_PARAMS:
        if not _is_int(value):
            raise error(f"{owner}: {key} must be an integer")
        return value
    if not isinstance(value, (list, tuple)) or not value or not all(map(_is_int, value)):
        raise error(f"{owner}: {key} must be a non-empty list of integers")
    return list(value)


def _clique_edges(vertices: Sequence[int]) -> list[Edge]:
    return [(vertices[i], vertices[j]) for i in range(len(vertices)) for j in range(i + 1, len(vertices))]


def _cycle_edges(vertices: Sequence[int]) -> list[Edge]:
    k = len(vertices)
    return [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]


def _path(params) -> tuple[Graph, Partitions]:
    n = params["n"]
    _need(n >= 1, "path requires n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]), {}


def _cycle(params) -> tuple[Graph, Partitions]:
    n = params["n"]
    _need(n >= 3, "cycle requires n >= 3")
    return graph_from_edges(n, _cycle_edges(range(n))), {}


def _complete(params) -> tuple[Graph, Partitions]:
    n = params["n"]
    _need(n >= 1, "complete requires n >= 1")
    return graph_from_edges(n, _clique_edges(range(n))), {}


def _complete_parts(family: str, names: Sequence[str] | None, params) -> tuple[Graph, Partitions]:
    # the complete multipartite graph on params["parts"], one part per size,
    # numbered consecutively in order; ``names`` also fixes the part count,
    # and None names them V1, V2, ...
    sizes = params["parts"]
    if names is not None:
        _need(len(sizes) == len(names), f"{family} requires exactly {len(names)} part sizes")
    _need(all(s >= 1 for s in sizes), f"{family} requires part sizes >= 1")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            edges.extend(
                (u, v)
                for u in range(offsets[i], offsets[i + 1])
                for v in range(offsets[j], offsets[j + 1])
            )
    if names is None:
        names = [f"V{i + 1}" for i in range(len(sizes))]
    parts = {
        name: frozenset(range(offsets[i], offsets[i + 1])) for i, name in enumerate(names)
    }
    return graph_from_edges(offsets[-1], edges), parts


def _bisplit(params) -> tuple[Graph, Partitions]:
    # X vertices first (one per adjacency row), then Y, then Z; the Y-Z
    # biclique is always present, the X rows list neighbors in Y u Z by
    # relative index 0..y+z-1 (0..y-1 lands in Y).
    y = params["y"]
    z = params["z"]
    _need(y >= 1 and z >= 1, "bisplit requires y >= 1 and z >= 1")
    adjacency = params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), "bisplit requires an adjacency list for X")
    x = len(adjacency)
    edges = []
    for i, row in enumerate(adjacency):
        for rel in row:
            _need(isinstance(rel, int) and 0 <= rel < y + z,
                  f"bisplit adjacency entries must lie in 0..{y + z - 1}")
            edges.append((i, x + rel))
    edges.extend((x + i, x + y + j) for i in range(y) for j in range(z))
    parts = {
        "X": frozenset(range(x)),
        "Y": frozenset(range(x, x + y)),
        "Z": frozenset(range(x + y, x + y + z)),
    }
    return graph_from_edges(x + y + z, edges), parts


def _complete_sun(params) -> tuple[Graph, Partitions]:
    n = params["n"]
    _need(n >= 3, "complete_sun requires n >= 3")
    # clique vertices 0..n-1, rim n..2n-1; rim vertex n+j attaches to clique
    # vertices j and (j+1) mod n
    edges = _clique_edges(range(n))
    for j in range(n):
        edges.append((j, n + j))
        edges.append(((j + 1) % n, n + j))
    parts = {"U": frozenset(range(n)), "W": frozenset(range(n, 2 * n))}
    return graph_from_edges(2 * n, edges), parts


def _split(params) -> tuple[Graph, Partitions]:
    # clique vertices 0..r-1, independent vertices r..r+s-1; adjacency rows
    # (one per independent vertex) list that vertex's clique neighbors.
    r = params["r"]
    _need(r >= 1, "split requires r >= 1")
    adjacency = params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), "split requires an adjacency list")
    s = len(adjacency)
    edges = _clique_edges(range(r))
    for j, row in enumerate(adjacency):
        for u in row:
            _need(isinstance(u, int) and 0 <= u < r,
                  f"split adjacency entries must be clique indices 0..{r - 1}")
            edges.append((u, r + j))
    parts = {"clique": frozenset(range(r)), "independent": frozenset(range(r, r + s))}
    return graph_from_edges(r + s, edges), parts


def _complete_split(params) -> tuple[Graph, Partitions]:
    r = params["r"]
    s = params["s"]
    _need(r >= 1, "complete_split requires r >= 1")
    _need(s >= 1, "complete_split requires s >= 1")
    return _split({"r": r, "adjacency": [tuple(range(r))] * s})


def _chain(sizes: Sequence[int], block_edges) -> tuple[Graph, Partitions]:
    # blocks laid along a path; each block reuses the last vertex of the
    # previous one as its cut vertex
    edges = []
    start = 0
    for size in sizes:
        edges.extend(block_edges(range(start, start + size)))
        start += size - 1
    return graph_from_edges(start + 1, edges), {}


def _block_chain(params) -> tuple[Graph, Partitions]:
    sizes = params["cliques"]
    _need(all(s >= 2 for s in sizes), "block_chain requires all clique sizes >= 2")
    return _chain(sizes, _clique_edges)


def _windmill(params) -> tuple[Graph, Partitions]:
    n = params["n"]
    r = params["r"]
    _need(n >= 2, "windmill requires n >= 2")
    _need(r >= 2, "windmill requires r >= 2")
    # shared vertex 0; copy i occupies {0} plus 1+i(n-1) .. i(n-1)+n-1
    edges = []
    for i in range(r):
        block = [0] + list(range(1 + i * (n - 1), 1 + (i + 1) * (n - 1)))
        edges.extend(_clique_edges(block))
    total = r * (n - 1) + 1
    parts = {"hub": frozenset({0}), "blades": frozenset(range(1, total))}
    return graph_from_edges(total, edges), parts


def _friendship(params) -> tuple[Graph, Partitions]:
    r = params["r"]
    _need(r >= 2, "friendship requires r >= 2")
    return _windmill({"n": 3, "r": r})


def _wheel(params) -> tuple[Graph, Partitions]:
    m = params["m"]
    _need(m >= 3, "wheel requires m >= 3")
    # rim cycle 0..m-1, hub m
    edges = _cycle_edges(range(m)) + [(i, m) for i in range(m)]
    parts = {"rim": frozenset(range(m)), "hub": frozenset({m})}
    return graph_from_edges(m + 1, edges), parts


def _cone(params) -> tuple[Graph, Partitions]:
    m = params["m"]
    n = params["n"]
    _need(m >= 3, "cone requires m >= 3")
    _need(n >= 1, "cone requires n >= 1")
    # cycle 0..m-1, apex vertices m..m+n-1 each joined to the whole cycle
    edges = _cycle_edges(range(m))
    edges.extend((i, m + j) for j in range(n) for i in range(m))
    parts = {"cycle": frozenset(range(m)), "apex": frozenset(range(m, m + n))}
    return graph_from_edges(m + n, edges), parts


def _cactus_chain(params) -> tuple[Graph, Partitions]:
    lengths = params["cycles"]
    _need(all(l >= 3 for l in lengths), "cactus_chain requires all cycle lengths >= 3")
    return _chain(lengths, _cycle_edges)


# each family's builder and its parameter names, in report order
_FAMILIES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "path": (_path, ("n",)),
    "cycle": (_cycle, ("n",)),
    "complete": (_complete, ("n",)),
    "complete_bipartite": (partial(_complete_parts, "complete_bipartite", ("X", "Y")), ("parts",)),
    "complete_multipartite": (partial(_complete_parts, "complete_multipartite", None), ("parts",)),
    "complete_sun": (_complete_sun, ("n",)),
    "split": (_split, ("r", "adjacency")),
    "complete_split": (_complete_split, ("r", "s")),
    "bisplit": (_bisplit, ("y", "z", "adjacency")),
    # a complete bisplit graph is the complete tripartite graph K_{x,y,z}
    "complete_bisplit": (
        partial(_complete_parts, "complete_bisplit", ("X", "Y", "Z")), ("parts",)
    ),
    "block_chain": (_block_chain, ("cliques",)),
    "windmill": (_windmill, ("n", "r")),
    "friendship": (_friendship, ("r",)),
    "wheel": (_wheel, ("m",)),
    "cone": (_cone, ("m", "n")),
    "cactus_chain": (_cactus_chain, ("cycles",)),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))
FAMILY_PARAMS = {name: _FAMILIES[name][1] for name in FAMILY_NAMES}


def generate(spec: FamilySpec) -> LabeledGraph:
    """Build the family instance described by ``spec``.

    Raises InvalidParam naming the violated domain constraint.
    """
    if spec.family not in _FAMILIES:
        raise InvalidParam(f"unknown family {spec.family!r}")
    build, order = _FAMILIES[spec.family]
    for key in order:
        if key != "adjacency":
            checked_param(spec.params, key, spec.family)
    graph, parts = build(spec.params)
    return LabeledGraph(graph, parts, spec)


def make(family: str, **params) -> LabeledGraph:
    """Shorthand for generate(FamilySpec(family, params))."""
    return generate(FamilySpec(family, params))


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p) graph; used by the test corpus and `corpus` command."""
    if n < 0:
        raise InvalidParam("random_graph requires n >= 0")
    if not 0.0 <= density <= 1.0:
        raise InvalidParam("random_graph requires density in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return graph_from_edges(n, edges)
