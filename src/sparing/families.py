"""Deterministic generators for the named graph families.

A builder joins blocks of vertices as cliques, paths, cycles or stars (the
multipartite builder sets each row outright). Every family documents its
vertex numbering so the named partitions are addressable: clique/cycle
vertices come first (0-based, consecutive), then independent/apex/rim
vertices. A derived family documents it through the builder it calls:
``_attach`` builds every core with one attached vertex per row (split,
complete split, complete sun, cone, wheel). The partitions returned with the
graph satisfy their defining property (independent sets are independent, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidParam, TooLarge
from .graphs import SOLVE_MAX_VERTICES, Graph

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
# counts check
LIST_PARAMS = {"parts": "part sizes", "cliques": "clique sizes", "cycles": "cycle lengths"}


def checked_param(params: Mapping[str, object], key: str, owner: str, error=InvalidParam):
    """``params[key]`` after its type check (an exact int, or a non-empty list or
    tuple of exact ints, returned as a list); raises ``error`` naming ``owner``."""
    if key not in params:
        raise error(f"{owner} requires parameter {key}")
    value = params[key]
    if key not in LIST_PARAMS:
        if type(value) is not int:
            raise error(f"{owner}: {key} must be an integer")
        return value
    if not isinstance(value, (list, tuple)) or not value or any(type(x) is not int for x in value):
        raise error(f"{owner}: {key} must be a non-empty list of integers")
    return list(value)


def below_least(values: Mapping[str, object], least: Mapping[str, int | None]) -> bool:
    """Whether some ``values[key]`` (some item, for a list) is below
    ``least[key]``; a least value of None bounds nothing."""
    return any(
        lo is not None and (min(values[key]) if key in LIST_PARAMS else values[key]) < lo
        for key, lo in least.items()
    )


def check_range(values: Mapping[str, object], least: Mapping[str, int | None], owner: str,
                error=InvalidParam) -> None:
    """Raise ``error`` naming ``owner`` and every least value if `below_least`."""
    if below_least(values, least):
        condition = " and ".join(
            f"all {LIST_PARAMS[k]} >= {v}" if k in LIST_PARAMS else f"{k} >= {v}"
            for k, v in least.items() if v is not None
        )
        raise error(f"{owner} requires {condition}")


def _graph(n: int, blocks: Iterable[tuple[Callable, Sequence[int]]]) -> Graph:
    # each (join, vertices) block's join sets bits on both rows, never a vertex's own
    adj = [0] * n
    for join, block in blocks:
        join(adj, block)
    return Graph(n, tuple(adj))


def _join_clique(adj: list[int], block: Sequence[int]) -> None:
    # every pair in the block (whose vertices are distinct)
    mask = sum(1 << v for v in block)
    for v in block:
        adj[v] |= mask ^ 1 << v


def _join_path(adj: list[int], block: Sequence[int]) -> None:
    # consecutive vertices
    for u, v in zip(block, block[1:]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u


def _join_cycle(adj: list[int], block: Sequence[int]) -> None:
    # a path closed back to its first vertex
    _join_path(adj, (*block, block[0]))


def _join_star(adj: list[int], block: Sequence[int]) -> None:
    # the first vertex joined to each of the others
    hub, bit = block[0], 1 << block[0]
    for v in block[1:]:
        adj[hub] |= 1 << v
        adj[v] |= bit


def _multipartite(names: Sequence[str] | None, params) -> tuple[Graph, Partitions]:
    # the complete multipartite graph on params["parts"]: one part per size,
    # numbered in order and named by ``names`` (whose length the count checked;
    # None names them V1, V2, ...), each vertex adjacent to all outside its part
    adj, parts, n = [], {}, sum(params["parts"])
    for i, size in enumerate(params["parts"]):
        start = len(adj)
        adj += [((1 << n) - 1) ^ ((1 << size) - 1) << start] * size
        parts[names[i] if names else f"V{i + 1}"] = frozenset(range(start, start + size))
    return Graph(n, tuple(adj)), parts


def _bisplit(params) -> tuple[Graph, Partitions]:
    # X vertices first (one per adjacency row; _attach numbers its core
    # first), then Y, then Z; the Y-Z biclique is always present, the X rows
    # list neighbors in Y u Z by relative index 0..y+z-1 (0..y-1 lands in Y).
    y, z, adjacency = params["y"], params["z"], params["adjacency"]
    x = len(adjacency)
    n = x + y + z
    blocks = [(_join_star, (i, *(x + rel for rel in row))) for i, row in enumerate(adjacency)]
    blocks += [(_join_star, (v, *range(x + y, n))) for v in range(x, x + y)]
    parts = {"X": frozenset(range(x)), "Y": frozenset(range(x, x + y)),
             "Z": frozenset(range(x + y, n))}
    return _graph(n, blocks), parts


def _attach(r: int, core_join, rows: Sequence[Iterable[int]], core: str,
            attached: str) -> tuple[Graph, Partitions]:
    # core vertices 0..r-1 joined by core_join, then attached vertex r+j
    # joined to the core vertices that row j lists
    blocks = [(core_join, range(r))] + [(_join_star, (r + j, *row)) for j, row in enumerate(rows)]
    n = r + len(rows)
    return _graph(n, blocks), {core: frozenset(range(r)), attached: frozenset(range(r, n))}


def _chain(sizes: Sequence[int], join) -> tuple[Graph, Partitions]:
    # blocks of the given sizes laid along a path, numbered in order; each
    # block reuses the last vertex of the previous one as its cut vertex
    blocks, start = [], 0
    for size in sizes:
        blocks.append((join, range(start, start + size)))
        start += size - 1
    return _graph(start + 1, blocks), {}


def _windmill(n: int, r: int) -> tuple[Graph, Partitions]:
    # shared vertex 0; copy i occupies {0} plus 1+i(n-1) .. i(n-1)+n-1
    total = r * (n - 1) + 1
    blocks = [(_join_clique, (0, *range(1 + i * (n - 1), 1 + (i + 1) * (n - 1)))) for i in range(r)]
    return _graph(total, blocks), {"hub": frozenset({0}), "blades": frozenset(range(1, total))}


def _rows(params, family: str, end: int, listed: str, entries: str) -> int:
    # the number of adjacency rows of split or bisplit, each a list of integers in 0..end-1
    adjacency = params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), f"{family} {listed}")
    for row in adjacency:
        _need(isinstance(row, (list, tuple)), f"{family} adjacency rows must be lists")
        _need(all(type(u) is int and 0 <= u < end for u in row),
              f"{family} adjacency entries {entries} 0..{end - 1}")
    return len(adjacency)


def _parts(params, family: str, k: int) -> int:
    # the vertex count of a multipartite family that names its k parts
    _need(len(params["parts"]) == k, f"{family} requires exactly {k} part sizes")
    return sum(params["parts"])


# each family's builder, the least value of each of its parameters, in report
# order (a list parameter's least value bounds every item; None marks the
# adjacency rows of split and bisplit), and its vertex count, which only grows
# with each parameter above its least and first refuses what the least values
# leave open (a named multipartite family's part count, the adjacency rows), so
# a builder only joins blocks; a derived family calls the builder it derives
# from, whose comment gives its numbering (a path, cycle or K_n is one block on
# 0..n-1; _attach numbers its core first, so a wheel's rim is 0..m-1 and its hub m)
_FAMILIES: dict[str, tuple[Callable, dict[str, int | None], Callable]] = {
    "path": (lambda p: _chain([p["n"]], _join_path), {"n": 1}, lambda p: p["n"]),
    "cycle": (lambda p: _chain([p["n"]], _join_cycle), {"n": 3}, lambda p: p["n"]),
    "complete": (lambda p: _chain([p["n"]], _join_clique), {"n": 1}, lambda p: p["n"]),
    "complete_bipartite": (partial(_multipartite, ("X", "Y")), {"parts": 1},
                           lambda p: _parts(p, "complete_bipartite", 2)),
    "complete_multipartite": (partial(_multipartite, None), {"parts": 1},
                              lambda p: sum(p["parts"])),
    # rim vertex n+j of a complete sun sits on edge j of the cycle 0..n-1
    "complete_sun": (lambda p: _attach(p["n"], _join_clique, [(j, (j + 1) % p["n"]) for j in range(p["n"])],
                                       "U", "W"), {"n": 3}, lambda p: 2 * p["n"]),
    "split": (lambda p: _attach(p["r"], _join_clique, p["adjacency"], "clique", "independent"),
              {"r": 1, "adjacency": None},
              lambda p: p["r"] + _rows(p, "split", p["r"], "requires an adjacency list",
                                       "must be clique indices")),
    "complete_split": (lambda p: _attach(p["r"], _join_clique, [range(p["r"])] * p["s"],
                                         "clique", "independent"), {"r": 1, "s": 1},
                       lambda p: p["r"] + p["s"]),
    "bisplit": (_bisplit, {"y": 1, "z": 1, "adjacency": None},
                lambda p: _rows(p, "bisplit", p["y"] + p["z"], "requires an adjacency list for X",
                                "must lie in") + p["y"] + p["z"]),
    # a complete bisplit graph is the complete tripartite graph K_{x,y,z}
    "complete_bisplit": (partial(_multipartite, ("X", "Y", "Z")), {"parts": 1},
                         lambda p: _parts(p, "complete_bisplit", 3)),
    "block_chain": (lambda p: _chain(p["cliques"], _join_clique), {"cliques": 2},
                    lambda p: sum(p["cliques"]) - len(p["cliques"]) + 1),
    "windmill": (lambda p: _windmill(p["n"], p["r"]), {"n": 2, "r": 2},
                 lambda p: p["r"] * (p["n"] - 1) + 1),
    "friendship": (lambda p: _windmill(3, p["r"]), {"r": 2}, lambda p: 2 * p["r"] + 1),
    "wheel": (lambda p: _attach(p["m"], _join_cycle, [range(p["m"])], "rim", "hub"), {"m": 3},
              lambda p: p["m"] + 1),
    "cone": (lambda p: _attach(p["m"], _join_cycle, [range(p["m"])] * p["n"], "cycle", "apex"),
             {"m": 3, "n": 1}, lambda p: p["m"] + p["n"]),
    "cactus_chain": (lambda p: _chain(p["cycles"], _join_cycle), {"cycles": 3},
                     lambda p: sum(p["cycles"]) - len(p["cycles"]) + 1),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))
FAMILY_PARAMS = {name: _FAMILIES[name][1] for name in FAMILY_NAMES}


def vertex_count(family: str, params: Mapping[str, object], named: bool = False) -> int:
    """``family``'s vertex count at checked ``params``; raises InvalidParam for a
    part count or adjacency row it refuses, then TooLarge over 64, naming the
    point (``params`` as `render_params` words them) when ``named``."""
    n = _FAMILIES[family][2](params)
    if n > SOLVE_MAX_VERTICES:
        at = f" at {render_params(params, FAMILY_PARAMS[family])}" if named else ""
        raise TooLarge(f"{family} needs {n} vertices{at}; graphs are limited to {SOLVE_MAX_VERTICES}")
    return n


def generate(spec: FamilySpec) -> LabeledGraph:
    """Build the family instance described by ``spec``.

    Raises InvalidParam naming the bad parameter, range, part count or row,
    then TooLarge for an instance over 64 vertices, before any edge is made.
    """
    if spec.family not in _FAMILIES:
        raise InvalidParam(f"unknown family {spec.family!r}")
    build, least, _ = _FAMILIES[spec.family]
    for key, lo in least.items():
        if lo is not None:
            checked_param(spec.params, key, spec.family)
    check_range(spec.params, least, spec.family)
    vertex_count(spec.family, spec.params)
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
    _need(type(n) is int, "random_graph: n must be an integer")
    _need(isinstance(density, (int, float)) and not isinstance(density, bool),
          "random_graph: density must be a number")
    _need(type(seed) is int, "random_graph: seed must be an integer")
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
