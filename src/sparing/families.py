"""Deterministic generators for the named graph families.

Every family documents its vertex numbering so the named partitions are
addressable: clique/cycle vertices come first (0-based, consecutive), then
independent/apex/rim-attachment vertices. A family derived from another
documents it through the builder it calls: ``_attach`` builds every core with
one attached vertex per row (split, complete split, complete sun, cone, wheel).
Partitions are returned alongside the graph and satisfy their defining
structural property (independent sets are independent, cliques are
complete, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidParam
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
        return render_params(self.params, order) or "-"


def render_params(params: Mapping[str, object], order: Iterable[str]) -> str:
    """The parameters named in ``order`` as ``k=v,...``; names not in ``params``
    are skipped. A list renders as ``3,4``, adjacency rows as ``[0,1;2]``, and a
    FamilySpec as its family followed by its own parameters (``base=cycle,n=5``)."""
    return ",".join(f"{key}={_rendered(params[key])}" for key in order if key in params)


def _rendered(value: object) -> str:
    if isinstance(value, FamilySpec):
        return f"{value.family},{value.param_string()}"
    if not isinstance(value, (list, tuple)):
        return str(value)
    if value and all(isinstance(row, (list, tuple)) for row in value):  # adjacency rows
        return "[" + ";".join(",".join(map(str, row)) for row in value) + "]"
    return ",".join(map(str, value))


@dataclass(frozen=True)
class LabeledGraph:
    """A generated graph together with its named vertex partitions."""

    graph: Graph
    partitions: Partitions


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


def check_range(values: Mapping[str, object], least: Mapping[str, int | None], owner: str,
                error=InvalidParam) -> None:
    """Raise ``error`` naming ``owner`` and every least value unless each
    ``values[key]`` (each item, for a list) is at least ``least[key]``;
    a least value of None bounds nothing."""
    for key, lo in least.items():
        if lo is not None and (min(values[key]) if key in LIST_PARAMS else values[key]) < lo:
            condition = " and ".join(
                f"all {LIST_PARAMS[k]} >= {v}" if k in LIST_PARAMS else f"{k} >= {v}"
                for k, v in least.items() if v is not None
            )
            raise error(f"{owner} requires {condition}")


def _clique_edges(vertices: Sequence[int]) -> list[Edge]:
    return [(vertices[i], vertices[j]) for i in range(len(vertices)) for j in range(i + 1, len(vertices))]


def _cycle_edges(vertices: Sequence[int]) -> list[Edge]:
    k = len(vertices)
    return [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]


def _path(params) -> tuple[Graph, Partitions]:
    # built directly: 2-5x faster than a chain of n - 1 two-vertex blocks
    n = params["n"]
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]), {}


def _multipartite(family: str, names: Sequence[str] | None, params) -> tuple[Graph, Partitions]:
    # the complete multipartite graph on params["parts"], one part per size,
    # numbered consecutively in order; ``names`` also fixes the part count,
    # and None names them V1, V2, ...
    sizes = params["parts"]
    if names is not None:
        _need(len(sizes) == len(names), f"{family} requires exactly {len(names)} part sizes")
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
    # X vertices first (one per adjacency row; _attach numbers its core
    # first), then Y, then Z; the Y-Z biclique is always present, the X rows
    # list neighbors in Y u Z by relative index 0..y+z-1 (0..y-1 lands in Y).
    y = params["y"]
    z = params["z"]
    adjacency = params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), "bisplit requires an adjacency list for X")
    x = len(adjacency)
    edges = []
    for i, row in enumerate(adjacency):
        _need(isinstance(row, (list, tuple)), "bisplit adjacency rows must be lists")
        _need(all(_is_int(rel) and 0 <= rel < y + z for rel in row),
              f"bisplit adjacency entries must lie in 0..{y + z - 1}")
        edges.extend((i, x + rel) for rel in row)
    edges.extend((x + i, x + y + j) for i in range(y) for j in range(z))
    parts = {
        "X": frozenset(range(x)),
        "Y": frozenset(range(x, x + y)),
        "Z": frozenset(range(x + y, x + y + z)),
    }
    return graph_from_edges(x + y + z, edges), parts


def _attach(r: int, core_edges, rows: Sequence[Iterable[int]], core: str,
            attached: str) -> tuple[Graph, Partitions]:
    # core vertices 0..r-1 joined by core_edges, then attached vertex r+j
    # joined to the core vertices that row j lists
    edges = core_edges(range(r))
    edges.extend((u, r + j) for j, row in enumerate(rows) for u in row)
    n = r + len(rows)
    return graph_from_edges(n, edges), {core: frozenset(range(r)), attached: frozenset(range(r, n))}


def _split(params) -> tuple[Graph, Partitions]:
    # adjacency rows, one per independent vertex, list its clique neighbors
    r, adjacency = params["r"], params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), "split requires an adjacency list")
    for row in adjacency:
        _need(isinstance(row, (list, tuple)), "split adjacency rows must be lists")
        _need(all(_is_int(u) and 0 <= u < r for u in row),
              f"split adjacency entries must be clique indices 0..{r - 1}")
    return _attach(r, _clique_edges, adjacency, "clique", "independent")


def _chain(sizes: Sequence[int], block_edges) -> tuple[Graph, Partitions]:
    # blocks of the given sizes laid along a path, numbered in order; each
    # block reuses the last vertex of the previous one as its cut vertex
    edges = []
    start = 0
    for size in sizes:
        edges.extend(block_edges(range(start, start + size)))
        start += size - 1
    return graph_from_edges(start + 1, edges), {}


def _windmill(n: int, r: int) -> tuple[Graph, Partitions]:
    # shared vertex 0; copy i occupies {0} plus 1+i(n-1) .. i(n-1)+n-1
    edges = []
    for i in range(r):
        block = [0] + list(range(1 + i * (n - 1), 1 + (i + 1) * (n - 1)))
        edges.extend(_clique_edges(block))
    total = r * (n - 1) + 1
    parts = {"hub": frozenset({0}), "blades": frozenset(range(1, total))}
    return graph_from_edges(total, edges), parts


# each family's builder and the least value of each of its parameters, in
# report order; a list parameter's least value bounds every item, and None
# marks the adjacency rows of split and bisplit, which their builders check;
# a derived family calls the builder it derives from, whose comment gives its
# numbering (a cycle or K_n is one block on 0..n-1; _attach numbers its core
# first, so a wheel's rim is 0..m-1 and its hub m)
_FAMILIES: dict[str, tuple[Callable, dict[str, int | None]]] = {
    "path": (_path, {"n": 1}),
    "cycle": (lambda p: _chain([p["n"]], _cycle_edges), {"n": 3}),
    "complete": (lambda p: _chain([p["n"]], _clique_edges), {"n": 1}),
    "complete_bipartite": (partial(_multipartite, "complete_bipartite", ("X", "Y")), {"parts": 1}),
    "complete_multipartite": (partial(_multipartite, "complete_multipartite", None), {"parts": 1}),
    # rim vertex n+j of a complete sun sits on edge j of the cycle 0..n-1
    "complete_sun": (lambda p: _attach(p["n"], _clique_edges, _cycle_edges(range(p["n"])), "U", "W"),
                     {"n": 3}),
    "split": (_split, {"r": 1, "adjacency": None}),
    "complete_split": (lambda p: _attach(p["r"], _clique_edges, [range(p["r"])] * p["s"],
                                         "clique", "independent"), {"r": 1, "s": 1}),
    "bisplit": (_bisplit, {"y": 1, "z": 1, "adjacency": None}),
    # a complete bisplit graph is the complete tripartite graph K_{x,y,z}
    "complete_bisplit": (partial(_multipartite, "complete_bisplit", ("X", "Y", "Z")), {"parts": 1}),
    "block_chain": (lambda p: _chain(p["cliques"], _clique_edges), {"cliques": 2}),
    "windmill": (lambda p: _windmill(p["n"], p["r"]), {"n": 2, "r": 2}),
    "friendship": (lambda p: _windmill(3, p["r"]), {"r": 2}),
    "wheel": (lambda p: _attach(p["m"], _cycle_edges, [range(p["m"])], "rim", "hub"), {"m": 3}),
    "cone": (lambda p: _attach(p["m"], _cycle_edges, [range(p["m"])] * p["n"], "cycle", "apex"),
             {"m": 3, "n": 1}),
    "cactus_chain": (lambda p: _chain(p["cycles"], _cycle_edges), {"cycles": 3}),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))
FAMILY_PARAMS = {name: _FAMILIES[name][1] for name in FAMILY_NAMES}


def generate(spec: FamilySpec) -> LabeledGraph:
    """Build the family instance described by ``spec``.

    Raises InvalidParam naming the bad parameter, or the family's whole range.
    """
    if spec.family not in _FAMILIES:
        raise InvalidParam(f"unknown family {spec.family!r}")
    build, least = _FAMILIES[spec.family]
    for key, lo in least.items():
        if lo is not None:
            checked_param(spec.params, key, spec.family)
    check_range(spec.params, least, spec.family)
    graph, parts = build(spec.params)
    return LabeledGraph(graph, parts)


def make(family: str, **params) -> LabeledGraph:
    """Shorthand for generate(FamilySpec(family, params))."""
    return generate(FamilySpec(family, params))


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p) graph; used by the test corpus and `corpus` command.

    The draw contract, which every seeded corpus, the solver digest and the
    benchmark inputs rely on: ``random.Random(seed)`` makes one ``random()``
    draw per vertex pair (u, v) with u < v, row by row (u rising, then v
    rising), and uv is an edge exactly when that draw is below ``density``.
    A change to this order or count changes every seeded graph.
    """
    _need(_is_int(n), "random_graph: n must be an integer")
    _need(isinstance(density, (int, float)) and not isinstance(density, bool),
          "random_graph: density must be a number")
    _need(n >= 0, "random_graph requires n >= 0")
    _need(0.0 <= density <= 1.0, "random_graph requires density in [0, 1]")
    draw = random.Random(seed).random
    bits = [1 << v for v in range(n)]
    adj = [0] * n
    for u in range(n):
        bit = bits[u]
        row = 0
        for v in range(u + 1, n):
            if draw() < density:
                row |= bits[v]
                adj[v] |= bit
        adj[u] |= row
    return Graph(n, tuple(adj))
