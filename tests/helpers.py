"""Shared test utilities: seeded random trees, independent-set enumeration,
disjoint unions, a graph's structural check and a witness labeling that
disagrees with its solve."""

import random

from sparing import solver
from sparing.graphs import Graph, graph_from_edges, is_independent


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
