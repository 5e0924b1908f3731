"""Exact sparing-number computation.

A weak labeling forces a singleton on at least one endpoint of every edge, so
the non-singleton vertices always form an independent set I, and the
singleton-labeled ("mono") edges are exactly the edges with both endpoints
outside I. Conversely, `construct_witness` realizes any independent set I as
a valid weak labeling whose mono edges are exactly the edges outside I. The
sparing number is therefore

    min over independent sets I of |edges inside V minus I|

and, because every edge has at most one endpoint in an independent set, the
count inside the complement equals |E| minus the total degree of I. One
branch-and-bound search maximizes that covered degree sum and stops once it
reaches a goal, and keeps the included set of its best node: the value
phase's goal is |E| less a greedy packing of edge-disjoint shortest odd
cycles (each keeps a mono edge), and it ends with an optimal set W. Each
packed cycle has three or more edges, so the goal is never below
|E| - |E| // 3: the value phase starts with that floor as its goal and packs
only at the first exclude branch where the incumbent has reached it, so the
dense graphs whose optimum lies below the floor never pack, while bipartite
graphs and chains of odd cycles still stop at their first optimum. The
packing itself stops once it holds |E| - best cycles for the incumbent best:
the goal is then best, the search stops just as it would at any lower goal,
and the witness phase sets its own goal to the optimum either way. The
lexicographically least optimal witness is then read off in one pass over
the open vertices (not yet passed, not blocked by the prefix), lowest
first: W's vertices are kept untested, and the pass stops once the prefix
is optimal. Before any other vertex j is tested, the lexicographically
first extension of the prefix and j is tried: the lowest open vertex above
j that no taken vertex blocks is taken, over and over. It is an
independent set, so if it reaches the optimum, j is kept and the set
becomes W with no search; falling short proves nothing, and j is then kept
only if a search with the optimum as its goal reaches it (the set that
search finds becomes W). The search branches in descending original degree (ties
to the lower index). Two dominance rules cut it, and each keeps some best
extension of a node, so both hold in the value phase and in every witness
test. The pendant rule takes a free vertex v with at most one free neighbor
u and deg v >= deg u, and decides u out: in any extension, u can be traded
for v (or v added) without covering less. The simplicial rule skips the
exclude child of the branching vertex, which has the largest degree of all
free vertices, when its free neighbors form a clique: an extension holds at
most one of them, and trading it for the branching vertex covers no less.
A branch is pruned by a clique-cover bound: the free vertices are split
greedily into cliques, and a branch dies when the covered degree sum plus
the largest degree of each clique cannot beat the incumbent. The scan
visits each free vertex once, either as a clique's seed or inside the
clique that claims it, and tests the pendant rule on each seed.
The brute-force oracle scores complements by counting their edges directly,
so the two routes stay independent.

When the root's own cover bound lies below the floor, no node can reach the
floor, so nothing packs, and the value search keeps the lexmin set itself
("lex mode", decided once, at the root). Of two masks, a beats b when the
lowest vertex of a ^ b is in a: the lexicographic order of sorted sequences,
except that a proper superset beats its prefix. In lex mode a node whose
bound equals the incumbent's cover replaces the incumbent's set when it
covers as much and its included set beats that set, and it goes on only
while its included and free vertices together beat it, since every extension
lies between the two. The pendant rule keeps v free when its one free
neighbor u has v's degree and a lower index. The simplicial rule needs no
change: the stable degree order puts every free neighbor of the branching
vertex's degree above it. The set kept then beats every other optimal set,
so it is the lexmin witness with every isolated vertex added. The witness
pass takes it as W and walks W's vertices alone, testing none, and its stop
drops the isolated vertices above W's last vertex of positive degree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import CertificationFailed, NotIndependent, TooLarge
from .graphs import (
    SOLVE_MAX_VERTICES,
    Edge,
    Graph,
    count_edges_within_mask,
    edges_within_mask,
    iter_bits,
    mask_of,
)
from .labels import Labeling, verify_weak

BRUTEFORCE_MAX_VERTICES = 24
WITNESS_MAX_VERTICES = 30  # exclusive bound: 2 * 4**29 < 2**63
# vertex v's witness labels, outside and inside the independent set
_WITNESS_LABELS = [((4**v,), (4**v, 2 * 4**v)) for v in range(WITNESS_MAX_VERTICES)]


@dataclass(frozen=True)
class SearchStats:
    """``nodes`` counts every search node; ``value_nodes`` those of the value
    phase, before the witness pass. In lex mode (the root's bound below the
    floor) the value search also finds the witness, and ``value_nodes ==
    nodes``."""

    nodes: int
    value_nodes: int
    elapsed_s: float


@dataclass(frozen=True)
class SparingResult:
    """Optimal sparing value with its canonical certificate.

    ``witness`` is the lexicographically least (as a sorted index sequence)
    independent set among all optimal ones; ``mono`` is the canonical list of
    edges with both endpoints outside the witness, and len(mono) == value.
    """

    value: int
    witness: tuple[int, ...]
    mono: tuple[Edge, ...]
    stats: SearchStats


def _finish(
    g: Graph,
    witness: tuple[int, ...],
    witness_mask: int,
    nodes: int,
    value_nodes: int,
    t0: float,
) -> SparingResult:
    mono = tuple(edges_within_mask(g, ((1 << g.n) - 1) & ~witness_mask))
    stats = SearchStats(nodes, value_nodes, time.perf_counter() - t0)
    return SparingResult(len(mono), witness, mono, stats)


def sparing_bruteforce(g: Graph) -> SparingResult:
    """Reference oracle: minimum over ALL independent sets by exhaustive enumeration.

    Every independent subset is visited and scored by counting the edges
    inside its complement; ties fall to the lexicographically least sorted
    index sequence. Capped at 24 vertices.
    """
    if g.n > BRUTEFORCE_MAX_VERTICES:
        raise TooLarge(f"brute force is capped at {BRUTEFORCE_MAX_VERTICES} vertices")
    t0 = time.perf_counter()
    n = g.n
    adj = [g.adjacency_mask(v) for v in range(n)]
    full = (1 << n) - 1
    best_val = count_edges_within_mask(g, full)  # I = empty set
    best_mask = 0
    nodes = 0

    def visit(v: int, mask: int) -> None:
        nonlocal nodes, best_val, best_mask
        nodes += 1
        if v == n:
            if mask == 0:
                return  # scored as the initial incumbent
            val = count_edges_within_mask(g, full ^ mask)
            if val < best_val or (
                val == best_val and tuple(iter_bits(mask)) < tuple(iter_bits(best_mask))
            ):
                best_val, best_mask = val, mask
            return
        visit(v + 1, mask)
        if not adj[v] & mask:
            visit(v + 1, mask | (1 << v))

    visit(0, 0)
    del visit  # it refers to itself through its cell; a cycle would wait for the GC
    # one pass finds both
    return _finish(g, tuple(iter_bits(best_mask)), best_mask, nodes, nodes, t0)


def _odd_cycle_packing(adj: tuple[int, ...], need: int) -> int:
    """The size of a greedy packing of edge-disjoint odd cycles, or ``need``
    once it has packed that many.

    An independent set holds at most (k - 1) / 2 vertices of a k-cycle with k
    odd, so each packed cycle keeps a mono edge, and no independent set covers
    more than |E| minus this count. From each start vertex s in turn, a
    breadth-first search in the edges left stops at its first level d that
    holds an edge ab; walking a and b back to a shared predecessor gives an
    odd cycle of length at most 2d + 1 (a triangle when d = 1), which is
    packed before the search from s runs again. A search that finds no such
    edge has 2-colored its component by level parity, so the component is
    never searched again, and a start vertex with no edge left is skipped.

    The solver passes ``need = |E| - best`` for its incumbent ``best``:
    ``need`` cycles already prove the incumbent optimal, and a longer
    packing would only lower a goal that the incumbent already meets, so
    the greedy stops there. With ``need <= 0`` the incumbent covers every
    edge and nothing is searched.
    """
    if need <= 0:
        return 0
    n = len(adj)
    rest = list(adj)  # the edges no packed cycle uses yet
    packed = 0
    bipartite = 0  # vertices whose component in rest has no odd cycle
    for s in range(n):
        while rest[s] and not bipartite >> s & 1:
            frontier = seen = 1 << s
            levels = [frontier]  # breadth-first levels from s, as masks
            a = -1
            while a < 0:
                reach = 0
                scan = frontier
                while scan:
                    low = scan & -scan
                    scan ^= low
                    v = low.bit_length() - 1
                    near = rest[v]
                    if near & frontier:
                        a = v
                        break
                    reach |= near
                else:
                    reach &= ~seen
                    if not reach:
                        break
                    seen |= reach
                    levels.append(reach)
                    frontier = reach
            if a < 0:
                bipartite |= seen
                continue
            # cut ab, then walk a and b back one level at a time, on distinct
            # vertices, cutting each edge walked, until they share a
            # predecessor c; a cut clears one bit on each end
            abit = 1 << a
            bbit = rest[a] & frontier
            bbit &= -bbit
            b = bbit.bit_length() - 1
            rest[a] ^= bbit
            rest[b] ^= abit
            for d in range(len(levels) - 2, -1, -1):
                level = levels[d]
                ra, rb = rest[a], rest[b]
                common = ra & rb & level
                if common:
                    cbit = common & -common
                    rest[a] = ra ^ cbit
                    rest[b] = rb ^ cbit
                    rest[cbit.bit_length() - 1] ^= abit | bbit
                    break
                pabit = ra & level
                pabit &= -pabit
                pbbit = rb & level
                pbbit &= -pbbit
                rest[a] = ra ^ pabit
                rest[b] = rb ^ pbbit
                a = pabit.bit_length() - 1
                b = pbbit.bit_length() - 1
                rest[a] ^= abit
                rest[b] ^= bbit
                abit, bbit = pabit, pbbit
            packed += 1
            if packed == need:
                return need
    return packed


def sparing_exact(g: Graph, threads: int | None = None) -> SparingResult:
    """Exact solve by branch and bound over independent sets (the search is
    described in the module docstring).

    Returns the same value/witness/mono as `sparing_bruteforce` on every
    input where both run: the sparing number, the lexicographically least
    optimal independent set and the edges outside it.
    ``stats.nodes`` counts the nodes of both phases and ``stats.value_nodes``
    those of the value phase. A graph whose root clique-cover bound lies
    below the floor |E| - |E| // 3 is solved in lex mode: the value search
    keeps the lexmin optimal set, the witness pass tests no vertex, and
    ``stats.value_nodes == stats.nodes``.

    ``threads`` is validated for interface compatibility (a positive exact
    int: no bool); branch evaluation is sequential, which makes the result
    trivially identical at any thread count. A graph over 64 vertices raises
    TooLarge, naming its vertex count, before any search.
    """
    if threads is not None and (type(threads) is not int or threads < 1):
        raise ValueError("threads must be a positive integer")
    if g.n > SOLVE_MAX_VERTICES:
        raise TooLarge(f"graph has {g.n} vertices; solve is limited to {SOLVE_MAX_VERTICES}")
    t0 = time.perf_counter()
    n = g.n
    adj = g._adj  # the neighbor bitsets, read once
    deg = [m.bit_count() for m in adj]
    order = sorted(range(n), key=deg.__getitem__, reverse=True)  # stable: ties keep index order
    full = (1 << n) - 1
    nodes = 0
    best = -1  # the root raises it, and decides lex mode there
    best_set = 0
    edges = sum(deg) // 2
    goal = edges - edges // 3  # no packing's goal lies below this floor
    packed = False
    lex = False

    def search(i: int, free: int, cov: int, inc: int) -> None:
        """Raise ``best`` with independent subsets of ``free`` added to ``inc``.

        ``inc`` is the included set and ``cov`` its covered degree sum;
        ``order[:i]`` holds no free vertex. The included vertices are
        independent at every node, so any node's ``inc`` is a valid incumbent,
        kept in ``best_set``; nothing is searched once ``best`` reaches
        ``goal``.
        """
        nonlocal nodes, best, best_set, goal, packed, lex
        nodes += 1
        # cap: cov plus the largest degree of each clique of a greedy clique
        # cover of the free vertices; an independent set takes at most one
        # vertex of each clique, so no extension covers more than cap. Each
        # free vertex is visited once: the lowest unclaimed one seeds the next
        # clique, and the members a clique claims are never visited. A seed v
        # with at most one free neighbor u, and deg[v] >= deg[u], is a
        # pendant instead: v is taken and u leaves free (the module docstring
        # says why); a clique that counted u before still bounds the rest.
        cap = cov
        unclaimed = free  # free vertices in no clique yet
        while unclaimed:
            low = unclaimed & -unclaimed
            unclaimed ^= low
            v = low.bit_length() - 1
            near = adj[v] & free
            top = deg[v]
            if near.bit_count() > 1 or near and (
                deg[near.bit_length() - 1] > top
                # lex mode keeps a lower neighbor of equal degree free
                or lex and near < low and deg[near.bit_length() - 1] == top
            ):
                # a clique from v, grown greedily over the unclaimed vertices
                extend = near & unclaimed
                while extend:
                    ubit = extend & -extend
                    u = ubit.bit_length() - 1
                    unclaimed ^= ubit
                    extend &= adj[u]
                    if deg[u] > top:
                        top = deg[u]
                cap += top
            else:
                # pendant: take v, and drop its free neighbor u if it has one
                free ^= low | near
                unclaimed &= ~near
                inc |= low
                cov += top
                cap += top
        if cov > best:
            if nodes == 1:
                # the root's cap bounds every node: below the floor, nothing
                # packs, and the search keeps the lexmin set (lex mode). The
                # root's scan is the same in both modes: its only pendants
                # with a neighbor are the lower ends of isolated edges
                lex = cap < goal
            best = cov
            best_set = inc
        if not free or cap <= best:
            if not lex or cap < best:
                return
            # lex mode: a tie beats best_set or not, and a node goes on
            # while some extension could beat it
            if cov == best:
                d = inc ^ best_set
                if inc & d & -d:
                    best_set = inc
            if not free:
                return
            top = inc | free
            d = top ^ best_set
            if not top & d & -d:
                return
        while not free >> order[i] & 1:
            i += 1
        v = order[i]
        vbit = 1 << v
        search(i + 1, free & ~(adj[v] | vbit), cov + deg[v], inc | vbit)
        if best >= goal:
            if packed:
                return
            # the incumbent reached the floor; the packing's goal decides,
            # and the packing stops once it proves the incumbent
            packed = True
            goal = edges - _odd_cycle_packing(adj, edges - best)
            if best >= goal:
                return
        # the simplicial rule: skip the exclude child when v's free
        # neighbors form a clique; a non-adjacent pair usually shows at once
        near = adj[v] & free
        while near:
            u = near.bit_length() - 1
            near ^= 1 << u
            if near & adj[u] != near:
                break
        else:
            return
        search(i + 1, free & ~vbit, cov, inc)

    search(0, full, 0, 0)
    value_nodes = nodes
    goal = best
    packed = True  # the witness phase's goal is the optimum itself

    # the lexmin witness; ``known`` is an optimal set W that contains the
    # prefix, so W's vertices need no test. ``open_`` holds the vertices not
    # yet passed that the prefix does not block, and the pass takes its
    # lowest. Stop once the prefix is optimal: a prefix precedes its
    # extensions. In lex mode W is already the lexmin witness (module
    # docstring), so the pass walks W alone and tests no vertex.
    known = best_set
    witness = []
    c_mask = 0
    cov_c = 0
    open_ = known if lex else full
    while open_ and cov_c != goal:
        jbit = open_ & -open_
        open_ ^= jbit
        j = jbit.bit_length() - 1
        if not known & jbit:
            free = open_ & ~adj[j]  # unblocked, above j, not adjacent to j
            # the lexicographically first extension: take the lowest free
            # vertex and drop its neighbors, until none is left. Reaching
            # the optimum settles the test; falling short settles nothing
            inc = c_mask | jbit
            cov = cov_c + deg[j]
            ext, ext_cov, rest = inc, cov, free
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest &= ~(adj[v] | low)
                ext |= low
                ext_cov += deg[v]
            if ext_cov == goal:
                known = ext
            else:
                best = goal - 1
                search(0, free, cov, inc)
                if best < goal:
                    continue
                known = best_set
        witness.append(j)
        c_mask |= jbit
        open_ &= ~adj[j]
        cov_c += deg[j]
    del search  # it refers to itself through its cell; a cycle would wait for the GC
    if cov_c != goal:
        raise AssertionError("witness reconstruction ended below the optimum")

    return _finish(g, tuple(witness), c_mask, nodes, value_nodes, t0)


def construct_witness(g: Graph, independent: tuple[int, ...] | frozenset[int]) -> Labeling:
    """A weak labeling whose non-singleton vertices are exactly ``independent``.

    Vertex i receives {4**i}, or {4**i, 2*4**i} inside the independent set,
    both read from a table built at import. Every element encodes its vertex
    (or edge) in base-4 digits without carries, so vertex labels and edge sum
    sets are automatically pairwise distinct, and the mono edges are exactly
    the edges avoiding the set. A member of ``independent`` that is not an
    exact int vertex of ``g``, such as a bool, raises NotIndependent.
    """
    if g.n >= WITNESS_MAX_VERTICES:
        raise TooLarge(
            f"witness labels need {WITNESS_MAX_VERTICES - 1} or fewer vertices to fit 64 bits"
        )
    independent = tuple(independent)
    if any(type(v) is not int or not 0 <= v < g.n for v in independent):
        raise NotIndependent(f"vertex set {independent} is not valid for this graph")
    chosen = mask_of(independent)
    if any(g._adj[v] & chosen for v in independent):
        raise NotIndependent(f"vertex set {sorted(independent)} spans an edge")
    return {v: _WITNESS_LABELS[v][chosen >> v & 1] for v in range(g.n)}


def solve_and_certify(g: Graph) -> tuple[SparingResult, Labeling]:
    """Solve exactly, then prove the value with an explicit verified labeling."""
    if g.n >= WITNESS_MAX_VERTICES:
        raise TooLarge(
            f"certification needs {WITNESS_MAX_VERTICES - 1} or fewer vertices"
        )
    result = sparing_exact(g)
    labeling = construct_witness(g, result.witness)
    verdict = verify_weak(g, labeling)
    if not verdict.ok or verdict.mono != result.mono:
        raise CertificationFailed(
            f"witness labeling disagrees with the solve (value {result.value}, "
            f"labeled mono count {len(verdict.mono)})"
        )
    return result, labeling
