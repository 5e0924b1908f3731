"""Immutable simple graphs over dense 0-based vertex indices.

Adjacency is stored as one Python-int bitset per vertex, which keeps the
structural operations (independence tests, induced edge counts, shadows,
subdivisions) branch-free and cheap to share across solver branches.

Edge lists hold canonical ``(u, v)`` tuples, ``u < v``. In a graph of at most
64 vertices these tuples are shared: every edge list (``Graph.edges()``, a
solve's ``mono``, a verdict's edge keys) holds the same immutable tuple for the
same edge, taken from one table of at most 2,016 tuples, so a kept list costs
one reference per edge. Larger graphs get fresh tuples.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from .errors import EdgeNotFound, GraphFormatError, IndexOutOfRange, SelfLoop

Edge = tuple[int, int]

SOLVE_MAX_VERTICES = 64  # the largest graph any command or graph file may have
MAX_GRAPH_TEXT = 1_000_000  # characters; a complete 64-vertex graph file has about 16,000


# Row u holds the shared tuple (u, v) at index v for every u < v < len(_ROWS),
# and None at and below the diagonal. The table grows in place, and only up to
# SOLVE_MAX_VERTICES, to the largest graph listed so far: old rows are
# extended before new full-length rows are appended, so every row is at least
# len(_ROWS) long whenever another thread reads it.
_ROWS: list[list[Edge | None]] = []
_ROWS_LOCK = threading.Lock()


def _grow_rows(n: int) -> None:
    with _ROWS_LOCK:
        old = len(_ROWS)  # read under the lock: another thread may have grown it
        if n <= old:
            return
        for u, row in enumerate(_ROWS):
            row.extend([(u, v) for v in range(old, n)])
        for u in range(old, n):
            _ROWS.append([None] * (u + 1) + [(u, v) for v in range(u + 1, n)])


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """A finite simple undirected loopless graph, immutable after construction."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        # internal: the builders that hand over symmetric loopless bitsets call it
        # directly (graph_from_edges, shadow, subdivide_edges, families.random_graph);
        # everyone else goes through them
        self.n = n
        self._adj = adj

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def adjacency_mask(self, v: int) -> int:
        """Bitset of the neighbors of ``v``."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self.adjacency_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges in canonical (min, max) lexicographic order."""
        return edges_within_mask(self, (1 << self.n) - 1)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def graph_from_edges(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph on vertices 0..n-1 from an (unordered, possibly repeated) edge list."""
    if n < 0:
        raise IndexOutOfRange(f"vertex count {n} is negative")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u},{v}) is a loop")
        if not 0 <= u < n:
            raise IndexOutOfRange(f"vertex {u} not in 0..{n - 1}")
        if not 0 <= v < n:
            raise IndexOutOfRange(f"vertex {v} not in 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The bitset of ``vertices``, each checked to be a vertex of ``g``."""
    m = 0
    for v in vertices:
        g._check_vertex(v)
        m |= 1 << v
    return m


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``vertices``."""
    m = _vertex_mask(g, vertices)
    return all(not (g._adj[v] & m) for v in iter_bits(m))


def edges_within(g: Graph, vertices: Iterable[int]) -> list[Edge]:
    """Edges with both endpoints in ``vertices``, canonically ordered."""
    return edges_within_mask(g, _vertex_mask(g, vertices))


def edges_within_mask(g: Graph, m: int) -> list[Edge]:
    """Edges with both endpoints in the vertex bitset ``m``, canonically ordered.

    In a graph of at most 64 vertices each edge is the shared, immutable
    ``(u, v)`` tuple of the module's table, the same object in every list;
    a larger graph's edges are fresh tuples."""
    shared = g.n <= SOLVE_MAX_VERTICES
    if shared and g.n > len(_ROWS):
        _grow_rows(g.n)
    out = []
    while m:
        low = m & -m
        m ^= low  # now the members above u
        u = low.bit_length() - 1
        row = _ROWS[u] if shared else None
        inside = g._adj[u] & m
        while inside:
            vbit = inside & -inside
            v = vbit.bit_length() - 1
            out.append(row[v] if shared else (u, v))
            inside ^= vbit
    return out


def count_edges_within_mask(g: Graph, m: int) -> int:
    """Fast edge count inside the vertex bitset ``m`` (solver hot path)."""
    total = 0
    for u in iter_bits(m):
        total += (g._adj[u] & m).bit_count()
    return total // 2


def shadow(g: Graph) -> Graph:
    """Add a twin n+i for each vertex i, joined to i's neighbors (not to i itself):
    vertex v gains its neighbors' twins, and twin n+v gets v's neighbors."""
    return Graph(2 * g.n, tuple([m | m << g.n for m in g._adj] + list(g._adj)))


def subdivide_edges(g: Graph, targets: Iterable[Edge]) -> Graph:
    """Replace each edge in ``targets`` by a length-2 path through a fresh vertex.

    Fresh vertices are numbered in ``targets`` order starting at |V(G)|.
    """
    targets = list(targets)
    seen: set[Edge] = set()
    for u, v in targets:
        e = _canon(u, v)
        if not g.has_edge(u, v):
            raise EdgeNotFound(f"({u},{v}) is not an edge")
        if e in seen:
            raise EdgeNotFound(f"({u},{v}) listed twice")
        seen.add(e)
    n = g.n
    adj = list(g._adj) + [0] * len(targets)
    for i, (u, v) in enumerate(targets):
        w = n + i
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        adj[u] |= 1 << w
        adj[v] |= 1 << w
        adj[w] = (1 << u) | (1 << v)
    return Graph(n + len(targets), tuple(adj))


def triangles_through(g: Graph, v: int) -> int:
    """Number of triangles containing ``v`` = edges between v's neighbors."""
    nbrs = g.adjacency_mask(v)
    return count_edges_within_mask(g, nbrs)


# Text graph format: optional '#' comment lines, then 'p <n> <m>', then m
# lines 'e <u> <v>' with 0-based endpoints, u < v. The writer lists the edges
# sorted lexicographically; the reader accepts them in any order.


def write_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int:
    """``token`` as an integer if it is ASCII digits after an optional '-';
    int() alone would also take '_', '+' and non-ASCII digits."""
    if token.isascii() and "_" not in token and "+" not in token:
        return int(token)
    raise ValueError(token)


def read_graph(text: str) -> Graph:
    if len(text) > MAX_GRAPH_TEXT:
        raise GraphFormatError(f"graph text is longer than {MAX_GRAPH_TEXT} characters")
    # a text with no non-ASCII character, '_' or '+' has no token that
    # int() reads and _decimal refuses
    parse = int if text.isascii() and "_" not in text and "+" not in text else _decimal
    n = m = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        head = fields[0]
        if head == "e" and len(fields) == 3 and n is not None:
            # a well-formed edge line; the other edge lines fail below
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
