"""Shared test utilities: seeded random trees, independent-set enumeration,
disjoint unions, a graph's structural check, a witness labeling that
disagrees with its solve, a reference odd-cycle packing, and reference
readers for both file formats."""

import json
import random

from sparing import solver
from sparing.errors import GraphFormatError, IndexOutOfRange
from sparing.graphs import MAX_GRAPH_TEXT, SOLVE_MAX_VERTICES, Graph, graph_from_edges, is_independent
from sparing.labels import MAX_LABELING_TEXT, _checked_label


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
            out[int(key)] = _checked_label(tuple(values))
        except ValueError as exc:
            raise GraphFormatError(f"label of vertex {key}: {exc}") from None
    return n, out
