"""Shared test utilities: seeded random trees, independent-set enumeration,
disjoint unions, a graph's structural check, a witness labeling that
disagrees with its solve, a reference odd-cycle packing, reference
readers for both file formats, a reference family generator and an int
subclass."""

import enum
import json
import random

from sparing import solver
from sparing.errors import GraphFormatError, IndexOutOfRange, InvalidParam, TooLarge
from sparing.families import LabeledGraph, check_range, checked_param
from sparing.graphs import MAX_GRAPH_TEXT, SOLVE_MAX_VERTICES, Graph, graph_from_edges, is_independent
from sparing.labels import MAX_LABELING_TEXT, make_label


class Small(enum.IntEnum):
    """Ints of a subclass, which every integer input refuses as it refuses a bool."""

    ONE = 1
    TWO = 2
    FIVE = 5


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree on n vertices from a random Pruefer sequence."""
    if n == 1:
        return graph_from_edges(1, [])
    if n == 2:
        return graph_from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = [v for v in range(n) if degree[v] == 1]
    assert len(last) == 2
    edges.append((last[0], last[1]))
    return graph_from_edges(n, edges)


def independent_sets(g: Graph):
    """Every independent set of g as a sorted tuple (exhaustive; small n only)."""
    for mask in range(1 << g.n):
        members = tuple(v for v in range(g.n) if mask >> v & 1)
        if is_independent(g, members):
            yield members


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """G1 with G2's vertices appended, shifted by |V(G1)|."""
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return graph_from_edges(g1.n + g2.n, g1.edges() + shifted)


def validate(g: Graph) -> None:
    """Assert that g's adjacency is symmetric, loopless and inside 0..n-1.

    Rebuilding a graph from the edges it lists changes it exactly when it
    has a loop, a one-sided adjacency bit or a bit at index n or above."""
    assert graph_from_edges(g.n, g.edges()) == g


def disagreeing_witness(monkeypatch) -> None:
    """Patch ``solver.construct_witness`` to add a second element, twice the
    first, to the label of the lowest vertex outside the independent set, so
    that on a graph where that vertex has an edge, the labeling's verdict
    disagrees with the solve. (An extra element on a vertex of the set leaves
    the verdict as it was.)"""
    construct = solver.construct_witness

    def extra(g, independent):
        f = construct(g, independent)
        v = min(set(range(g.n)) - set(independent))
        f[v] = (*f[v], 2 * f[v][0])
        return f

    monkeypatch.setattr(solver, "construct_witness", extra)


def reference_odd_cycle_packing(adj: tuple[int, ...], need: int) -> int:
    """The straightforward form of `solver._odd_cycle_packing`: the same start
    order, breadth-first levels and lowest-bit choices, with each cut made by
    a nested function and the levels walked back over a reversed copy. The
    solver's packer must return the same count for every ``need``."""
    if need <= 0:
        return 0
    n = len(adj)
    rest = list(adj)
    packed = 0

    def cut(u: int, v: int) -> None:
        rest[u] &= ~(1 << v)
        rest[v] &= ~(1 << u)

    bipartite = 0
    for s in range(n):
        while rest[s] and not bipartite >> s & 1:
            levels = [1 << s]
            seen = levels[0]
            a = -1
            while a < 0:
                frontier = levels[-1]
                reach = 0
                scan = frontier
                while scan:
                    low = scan & -scan
                    scan ^= low
                    v = low.bit_length() - 1
                    if rest[v] & frontier:
                        a = v
                        break
                    reach |= rest[v]
                else:
                    reach &= ~seen
                    if not reach:
                        break
                    seen |= reach
                    levels.append(reach)
            if a < 0:
                bipartite |= seen
                continue
            bbit = rest[a] & frontier
            b = (bbit & -bbit).bit_length() - 1
            cut(a, b)
            for level in reversed(levels[:-1]):
                common = rest[a] & rest[b] & level
                if common:
                    c = (common & -common).bit_length() - 1
                    cut(a, c)
                    cut(b, c)
                    break
                pa, pb = rest[a] & level, rest[b] & level
                pa = (pa & -pa).bit_length() - 1
                pb = (pb & -pb).bit_length() - 1
                cut(a, pa)
                cut(b, pb)
                a, b = pa, pb
            packed += 1
            if packed == need:
                return need
    return packed


# Reference readers: the straightforward form of `read_graph` and
# `read_labeling`, which collect every edge or label first and check them
# afterwards. The library's readers must return what these return, or raise
# GraphFormatError with the same message.


def _decimal(token: str) -> int:
    if token.isascii() and "_" not in token and "+" not in token:
        return int(token)
    raise ValueError(token)


def reference_read_graph(text: str) -> Graph:
    if len(text) > MAX_GRAPH_TEXT:
        raise GraphFormatError(f"graph text is longer than {MAX_GRAPH_TEXT} characters")
    parse = int if text.isascii() and "_" not in text and "+" not in text else _decimal
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e" and len(fields) == 3 and n is not None:
            try:
                u, v = parse(fields[1]), parse(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
            if u >= v:
                raise GraphFormatError(f"line {lineno}: endpoints must satisfy u < v")
            edges.append((u, v))
        elif head[0] == "#":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: comment after header")
        elif head == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate header")
            if len(fields) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = parse(fields[1]), parse(fields[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if n > SOLVE_MAX_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: header declares {n} vertices; "
                    f"graphs are limited to {SOLVE_MAX_VERTICES}"
                )
        elif head == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {head!r}")
    if n is None or m is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge")
    try:
        return graph_from_edges(n, edges)
    except IndexOutOfRange as exc:
        raise GraphFormatError(str(exc)) from None


def reference_read_labeling(text: str):
    if len(text) > MAX_LABELING_TEXT:
        raise GraphFormatError(f"labeling text is longer than {MAX_LABELING_TEXT} characters")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"labeling is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"vertices", "labels"}:
        raise GraphFormatError("labeling must have exactly the keys 'vertices' and 'labels'")
    n = doc["vertices"]
    labels = doc["labels"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0 or not isinstance(labels, dict):
        raise GraphFormatError("malformed labeling document")
    if n > SOLVE_MAX_VERTICES:
        raise GraphFormatError(
            f"labeling declares {n} vertices; graphs are limited to {SOLVE_MAX_VERTICES}"
        )
    if set(labels) != {str(v) for v in range(n)}:
        raise GraphFormatError(f"labels must cover exactly the indices 0..{n - 1}")
    out = {}
    for key, values in labels.items():
        if type(values) is not list or not all(type(x) is int for x in values):
            raise GraphFormatError(f"label of vertex {key} is not a list of integers")
        if values != sorted(set(values)):
            raise GraphFormatError(f"label of vertex {key} is not strictly increasing")
        try:
            # strictly increasing already, so make_label changes nothing
            out[int(key)] = make_label(values)
        except ValueError as exc:
            raise GraphFormatError(f"label of vertex {key}: {exc}") from None
    return n, out


# Reference family generator: the edge-list form of `families.generate`, whose
# builders list each edge for `graph_from_edges` to check, with its own copy of
# the shape checks and counts. The library's generator must return the same
# graph and partitions, or raise the same error class and message, on every
# point; it shares only the type and least-value checks.


def _need(cond, message):
    if not cond:
        raise InvalidParam(message)


def _clique_edges(vertices):
    return [(vertices[i], vertices[j]) for i in range(len(vertices)) for j in range(i + 1, len(vertices))]


def _cycle_edges(vertices):
    k = len(vertices)
    return [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]


def _multipartite(names, params):
    sizes = params["parts"]
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
    parts = {name: frozenset(range(offsets[i], offsets[i + 1])) for i, name in enumerate(names)}
    return graph_from_edges(offsets[-1], edges), parts


def _bisplit(params):
    y, z, adjacency = params["y"], params["z"], params["adjacency"]
    x = len(adjacency)
    edges = [(i, x + rel) for i, row in enumerate(adjacency) for rel in row]
    edges.extend((x + i, x + y + j) for i in range(y) for j in range(z))
    parts = {
        "X": frozenset(range(x)),
        "Y": frozenset(range(x, x + y)),
        "Z": frozenset(range(x + y, x + y + z)),
    }
    return graph_from_edges(x + y + z, edges), parts


def _attach(r, core_edges, rows, core, attached):
    edges = core_edges(range(r))
    edges.extend((u, r + j) for j, row in enumerate(rows) for u in row)
    n = r + len(rows)
    return graph_from_edges(n, edges), {core: frozenset(range(r)), attached: frozenset(range(r, n))}


def _chain(sizes, block_edges):
    edges = []
    start = 0
    for size in sizes:
        edges.extend(block_edges(range(start, start + size)))
        start += size - 1
    return graph_from_edges(start + 1, edges), {}


def _windmill(n, r):
    edges = []
    for i in range(r):
        block = [0] + list(range(1 + i * (n - 1), 1 + (i + 1) * (n - 1)))
        edges.extend(_clique_edges(block))
    total = r * (n - 1) + 1
    return graph_from_edges(total, edges), {"hub": frozenset({0}), "blades": frozenset(range(1, total))}


def _rows(params, family, end, listed, entries):
    adjacency = params.get("adjacency")
    _need(isinstance(adjacency, (list, tuple)), f"{family} {listed}")
    for row in adjacency:
        _need(isinstance(row, (list, tuple)), f"{family} adjacency rows must be lists")
        _need(all(isinstance(u, int) and not isinstance(u, bool) and 0 <= u < end for u in row),
              f"{family} adjacency entries {entries} 0..{end - 1}")
    return len(adjacency)


def _parts(params, family, k):
    _need(len(params["parts"]) == k, f"{family} requires exactly {k} part sizes")
    return sum(params["parts"])


_REFERENCE_FAMILIES = {
    "path": (lambda p: (graph_from_edges(p["n"], [(i, i + 1) for i in range(p["n"] - 1)]), {}),
             {"n": 1}, lambda p: p["n"]),
    "cycle": (lambda p: _chain([p["n"]], _cycle_edges), {"n": 3}, lambda p: p["n"]),
    "complete": (lambda p: _chain([p["n"]], _clique_edges), {"n": 1}, lambda p: p["n"]),
    "complete_bipartite": (lambda p: _multipartite(("X", "Y"), p), {"parts": 1},
                           lambda p: _parts(p, "complete_bipartite", 2)),
    "complete_multipartite": (lambda p: _multipartite(None, p), {"parts": 1},
                              lambda p: sum(p["parts"])),
    "complete_sun": (lambda p: _attach(p["n"], _clique_edges, _cycle_edges(range(p["n"])), "U", "W"),
                     {"n": 3}, lambda p: 2 * p["n"]),
    "split": (lambda p: _attach(p["r"], _clique_edges, p["adjacency"], "clique", "independent"),
              {"r": 1, "adjacency": None},
              lambda p: p["r"] + _rows(p, "split", p["r"], "requires an adjacency list",
                                       "must be clique indices")),
    "complete_split": (lambda p: _attach(p["r"], _clique_edges, [range(p["r"])] * p["s"],
                                         "clique", "independent"), {"r": 1, "s": 1},
                       lambda p: p["r"] + p["s"]),
    "bisplit": (_bisplit, {"y": 1, "z": 1, "adjacency": None},
                lambda p: _rows(p, "bisplit", p["y"] + p["z"], "requires an adjacency list for X",
                                "must lie in") + p["y"] + p["z"]),
    "complete_bisplit": (lambda p: _multipartite(("X", "Y", "Z"), p), {"parts": 1},
                         lambda p: _parts(p, "complete_bisplit", 3)),
    "block_chain": (lambda p: _chain(p["cliques"], _clique_edges), {"cliques": 2},
                    lambda p: sum(p["cliques"]) - len(p["cliques"]) + 1),
    "windmill": (lambda p: _windmill(p["n"], p["r"]), {"n": 2, "r": 2},
                 lambda p: p["r"] * (p["n"] - 1) + 1),
    "friendship": (lambda p: _windmill(3, p["r"]), {"r": 2}, lambda p: 2 * p["r"] + 1),
    "wheel": (lambda p: _attach(p["m"], _cycle_edges, [range(p["m"])], "rim", "hub"), {"m": 3},
              lambda p: p["m"] + 1),
    "cone": (lambda p: _attach(p["m"], _cycle_edges, [range(p["m"])] * p["n"], "cycle", "apex"),
             {"m": 3, "n": 1}, lambda p: p["m"] + p["n"]),
    "cactus_chain": (lambda p: _chain(p["cycles"], _cycle_edges), {"cycles": 3},
                     lambda p: sum(p["cycles"]) - len(p["cycles"]) + 1),
}


def reference_generate(spec) -> LabeledGraph:
    if spec.family not in _REFERENCE_FAMILIES:
        raise InvalidParam(f"unknown family {spec.family!r}")
    build, least, count = _REFERENCE_FAMILIES[spec.family]
    for key, lo in least.items():
        if lo is not None:
            checked_param(spec.params, key, spec.family)
    check_range(spec.params, least, spec.family)
    n = count(spec.params)
    if n > SOLVE_MAX_VERTICES:
        raise TooLarge(f"{spec.family} needs {n} vertices; graphs are limited to {SOLVE_MAX_VERTICES}")
    return LabeledGraph(*build(spec.params))
