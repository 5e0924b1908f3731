import gc
import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest

from helpers import Small, disagreeing_witness, disjoint_union, reference_odd_cycle_packing
from sparing import solver
from sparing.errors import CertificationFailed, NotIndependent, TooLarge
from sparing.families import FAMILY_NAMES, make, random_graph
from sparing.graphs import (
    SOLVE_MAX_VERTICES,
    edges_within,
    graph_from_edges,
    is_independent,
    shadow,
)
from sparing.labels import induced_edge_labels, mono_edges, verify_weak
from sparing.solver import (
    construct_witness,
    solve_and_certify,
    sparing_bruteforce,
    sparing_exact,
)


def shuffled(g, seed):
    """``g`` with its vertices renumbered by a permutation from ``random.Random(seed)``."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cycle_union(count, length):
    """``count`` disjoint copies of the cycle C_length."""
    cycle = make("cycle", n=length).graph
    union = cycle
    for _ in range(count - 1):
        union = disjoint_union(union, cycle)
    return union


def cycle_ring(count, length, join):
    """``count`` disjoint cycles C_length in a ring: vertex 0 of each cycle is
    joined by one edge to vertex ``join`` of the next."""
    edges = cycle_union(count, length).edges()
    edges += [(i * length, (i + 1) % count * length + join) for i in range(count)]
    return graph_from_edges(count * length, edges)


def assert_result_consistent(g, result):
    assert is_independent(g, result.witness)
    complement = [v for v in range(g.n) if v not in result.witness]
    assert list(result.mono) == edges_within(g, complement)
    assert len(result.mono) == result.value


def adjacency(g):
    return tuple(g.adjacency_mask(v) for v in range(g.n))


@pytest.fixture
def packings(monkeypatch):
    """The size of each odd-cycle packing the solver computes, in call order."""
    sizes = []
    pack = solver._odd_cycle_packing

    def counted(*args):
        sizes.append(pack(*args))
        return sizes[-1]

    monkeypatch.setattr(solver, "_odd_cycle_packing", counted)
    return sizes


class TestBruteforce:
    def test_complete_graph(self):
        r = sparing_bruteforce(make("complete", n=4).graph)
        assert r.value == 3
        assert r.witness == (0,)

    def test_odd_cycle(self):
        assert sparing_bruteforce(make("cycle", n=5).graph).value == 1

    def test_even_cycle_witness(self):
        r = sparing_bruteforce(make("cycle", n=4).graph)
        assert (r.value, r.witness) == (0, (0, 2))
        assert r.mono == ()

    def test_complete_sun_four(self):
        r = sparing_bruteforce(make("complete_sun", n=4).graph)
        assert r.value == 5
        assert r.witness == (0, 5, 6)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            sparing_bruteforce(graph_from_edges(25, []))

    def test_edgeless_prefers_empty_witness(self):
        r = sparing_bruteforce(graph_from_edges(4, []))
        assert (r.value, r.witness) == (0, ())

    def test_postconditions(self):
        for lg in (make("wheel", m=6), make("cone", m=5, n=2), make("complete_sun", n=5)):
            assert_result_consistent(lg.graph, sparing_bruteforce(lg.graph))


class TestExact:
    def test_wheel_even_rim(self):
        r = sparing_exact(make("wheel", m=4).graph)
        assert (r.value, r.witness) == (2, (0, 2))

    def test_wheel_odd_rim(self):
        # rim-based optimum beats the claimed ceil((m-1)/2) for odd rims
        assert sparing_exact(make("wheel", m=5).graph).value == 4

    def test_cone(self):
        assert sparing_exact(make("cone", m=4, n=2).graph).value == 4

    def test_agrees_with_bruteforce_on_families(self):
        cases = [
            make("complete", n=7),
            make("cycle", n=11),
            make("complete_sun", n=5),
            make("complete_split", r=4, s=3),
            make("complete_bisplit", parts=[2, 3, 3]),
            make("block_chain", cliques=[3, 2, 4]),
            make("windmill", n=4, r=3),
            make("wheel", m=7),
            make("cone", m=5, n=3),
            make("cactus_chain", cycles=[3, 4, 5]),
            make("path", n=9),
            # triangle-rich: each packed triangle lowers the value phase's goal
            make("cactus_chain", cycles=[3] * 11),
            make("friendship", r=7),
            # bridges between the triangles: block_chain [3]*11 is the cactus above
            make("block_chain", cliques=[3, 3, 2] * 3 + [3]),
        ]
        graphs = [lg.graph for lg in cases]
        # odd cycles longer than 3, each of which lowers the goal too; joined
        # at adjacent vertices, the ring's first descent often misses the
        # optimum, which a goal below it would return
        graphs += [cycle_union(4, 5), cycle_ring(4, 5, 1)]
        graphs.append(make("cactus_chain", cycles=[5, 7, 9]).graph)
        rng = random.Random(5)
        for graph in graphs:
            # each case also in a seeded vertex numbering, which changes the
            # branch order and the lexmin witness
            perm = list(range(graph.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in graph.edges()]
            relabeled = graph_from_edges(graph.n, edges)
            for g in (graph, relabeled):
                b = sparing_bruteforce(g)
                e = sparing_exact(g)
                assert (b.value, b.witness, b.mono) == (e.value, e.witness, e.mono)
                assert_result_consistent(g, e)

    def test_agrees_with_bruteforce_on_random_graphs(self):
        graphs = [random_graph(1 + seed % 10, (seed % 4 + 1) * 0.2, seed) for seed in range(60)]
        # and 18..24 vertices, up to the oracle's cap
        graphs += [random_graph(18 + seed % 7, 0.2 + 0.15 * (seed % 2), seed) for seed in range(14)]
        for g in graphs:
            b = sparing_bruteforce(g)
            e = sparing_exact(g)
            assert (b.value, b.witness, b.mono) == (e.value, e.witness, e.mono)

    @pytest.mark.parametrize("family,n", [("path", 32), ("path", 33), ("cycle", 32)])
    def test_bipartite_search_stops_at_the_edge_count(self, family, n):
        # no independent set covers more than |E|, so reaching it ends the search
        r = sparing_exact(make(family, n=n).graph)
        assert r.value == 0
        assert r.stats.nodes < 1000

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_bipartite_at_the_vertex_cap(self, family):
        assert sparing_exact(make(family, n=SOLVE_MAX_VERTICES).graph).value == 0

    def test_over_the_vertex_cap_is_refused_before_any_search(self, monkeypatch):
        clock = []  # the solve's clock starts before its first node

        def tick():
            clock.append(0)
            return 0.0

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=tick))
        n = SOLVE_MAX_VERTICES + 1  # built directly: generate refuses it first
        with pytest.raises(TooLarge) as exc:
            sparing_exact(graph_from_edges(n, [(i, i + 1) for i in range(n - 1)]))
        assert str(exc.value) == "graph has 65 vertices; solve is limited to 64"
        assert clock == []
        assert sparing_exact(make("path", n=SOLVE_MAX_VERTICES).graph).value == 0

    @pytest.mark.parametrize(
        "family,params,phi",
        [
            ("wheel", {"m": 63}, 33),  # odd rim: (m + 3) / 2
            ("cycle", {"n": 63}, 1),
            ("cactus_chain", {"cycles": [3] * 31}, 31),  # one per odd cycle
            ("block_chain", {"cliques": [3] * 31}, 31),  # one per triangle
            ("friendship", {"r": 31}, 31),
        ],
    )
    def test_structured_graphs_at_the_vertex_cap(self, family, params, phi):
        # the clique-cover bound and the triangle-packing goal keep these small;
        # the plain degree-sum bound takes about 2^(n/2) nodes
        r = sparing_exact(make(family, **params).graph)
        assert r.value == phi
        assert r.stats.nodes < 2000

    @pytest.mark.parametrize(
        "build,phi",
        [
            (lambda: cycle_union(10, 5), 10),
            (lambda: shuffled(cycle_union(12, 5), 0), 12),
            (lambda: shuffled(make("cactus_chain", cycles=[5] * 15).graph, 0), 15),
            (lambda: shuffled(make("cactus_chain", cycles=[7] * 10).graph, 0), 10),
            (lambda: shuffled(cycle_ring(9, 7, 3), 0), 9),
        ],
        ids=["C5x10", "C5x12-shuffled", "cactus-C5x15-shuffled", "cactus-C7x10-shuffled",
             "C7-ring-x9-shuffled"],
    )
    def test_odd_cycles_at_the_vertex_cap(self, build, phi):
        # phi is one per C5 or C7, and the packing of shortest odd cycles
        # finds them all, so the value phase stops at its first optimum; with
        # triangles alone, 12 shuffled C5 take about 2.7 million nodes
        r = sparing_exact(build())
        assert r.value == phi
        assert r.stats.value_nodes < 100
        assert r.stats.nodes < 10_000

    @pytest.mark.parametrize(
        "build,phi",
        [
            (lambda: make("block_chain", cliques=[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8]).graph, 186),
            (lambda: make("block_chain", cliques=[12, 11, 10, 9, 8, 7, 6, 5, 4]).graph, 219),
            (lambda: shuffled(cycle_ring(9, 7, 1), 0), 9),
        ],
        ids=["block-chain-2..11,8", "block-chain-12..4", "C7-ring-x9-offset-1-shuffled"],
    )
    def test_dominance_rules_at_the_vertex_cap(self, build, phi):
        # without the pendant and simplicial rules these take 8,847,186 /
        # 312,187 / 540,136 nodes, and 481 / 183 / 424 with both; the
        # simplicial rule alone settles the block chains, the pendant rule
        # alone takes the ring to 698
        r = sparing_exact(build())
        assert r.value == phi
        assert r.stats.nodes < 1000

    @pytest.mark.parametrize(
        "p,seed,phi,ceiling",
        [
            (0.05, 2024, 8, 2_399),
            (0.1, 1, 71, 7_738),
            (0.2, 1, 201, 3_467),
            (0.3, 1, 375, 2_082),
            (0.5, 1, 748, 772),
        ],
    )
    def test_clique_cover_node_ceilings(self, p, seed, phi, ceiling):
        # the ceilings are the node counts of the greedy clique cover over the
        # unclaimed free vertices, with the pendant and simplicial rules; a
        # weaker cover goes over them (one whose members stay unclaimed takes
        # G(64,0.1,1) to 655,357 nodes), and so does a search without either
        # rule (7,186 / 10,907 / 3,782 / 2,308 / 1,010); a tighter bound
        # stays under. The dense case runs in lex mode (its root bound lies
        # below the floor), where the value search keeps the lexmin witness:
        # with witness tests it took 967 nodes. Lex mode on every graph,
        # until the incumbent reaches the floor, takes G(64,0.05,2024) to
        # 2,404 nodes and G(64,0.2,1) to 3,584
        r = sparing_exact(random_graph(64, p, seed))
        assert r.value == phi
        assert r.stats.nodes <= ceiling

    @pytest.mark.parametrize("family,params", [("cycle", {"n": 63}), ("wheel", {"m": 63})])
    def test_witness_phase_reuses_the_value_phase_optimum(self, family, params):
        g = make(family, **params).graph
        # as generated, the value phase ends on the lexmin witness, and every
        # candidate below each of its elements is a neighbor of the prefix
        r = sparing_exact(g)
        assert r.stats.nodes == r.stats.value_nodes
        # relabeled, only the candidates below the known optimum are searched
        perm = list(range(g.n))
        random.Random(0).shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges()]
        relabeled = sparing_exact(graph_from_edges(g.n, edges))
        assert relabeled.value == r.value
        # the failing prefix tests alone take 2,989 (cycle) and 3,318 (wheel)
        assert relabeled.stats.nodes - relabeled.stats.value_nodes < 4000

    def test_witness_below_the_value_phase_optimum(self):
        # the value phase branches on high degrees first and stops at its
        # first optimum; on these inputs a lower candidate's test succeeds
        # at least once, and the set it finds replaces the known optimum
        star = graph_from_edges(4, [(0, 3), (1, 3), (2, 3)])  # center last
        assert sparing_exact(star).witness == (0, 1, 2)
        graphs = [star, disjoint_union(star, star), random_graph(20, 0.1, 3)]
        graphs += [random_graph(22, 0.15, 3), random_graph(24, 0.15, 4)]
        # an isolated vertex joins the witness only below its largest element
        isolated_low = graph_from_edges(4, [(1, 2)])
        isolated_between = graph_from_edges(5, [(0, 1), (3, 4)])
        assert sparing_exact(isolated_low).witness == (0, 1)
        assert sparing_exact(isolated_between).witness == (0, 2, 3)
        graphs += [isolated_low, isolated_between]
        for g in graphs:
            b = sparing_bruteforce(g)
            e = sparing_exact(g)
            assert (b.value, b.witness, b.mono) == (e.value, e.witness, e.mono)

    def test_first_extension_settles_the_witness_pass(self):
        # the value phase ends on an optimum without vertex 0; the
        # lexicographically first extension of {0}, the even vertices,
        # covers every edge, so vertex 0's test runs no search
        r = sparing_exact(make("path", n=SOLVE_MAX_VERTICES).graph)
        assert r.value == 0
        assert r.stats.nodes == r.stats.value_nodes

    @pytest.mark.parametrize(
        "n,p,seed,witness", [(8, 0.3, 12, (0, 1, 3, 6)), (9, 0.2, 6, (0, 1, 2, 6, 7, 8))]
    )
    def test_a_short_first_extension_still_searches(self, n, p, seed, witness):
        # one witness test here succeeds although the lexicographically first
        # extension of its prefix falls short of the optimum: the search,
        # not the extension, decides it
        g = random_graph(n, p, seed)
        e, b = sparing_exact(g), sparing_bruteforce(g)
        assert (e.value, e.witness, e.mono) == (b.value, b.witness, b.mono)
        assert e.witness == witness
        assert e.stats.nodes > e.stats.value_nodes

    def test_thread_count_does_not_change_anything(self):
        g = random_graph(16, 0.3, 99)
        r1 = sparing_exact(g, threads=1)
        r8 = sparing_exact(g, threads=8)
        assert (r1.value, r1.witness, r1.mono) == (r8.value, r8.witness, r8.mono)
        assert r1.stats.nodes == r8.stats.nodes

    def test_bad_threads(self):
        g = make("complete", n=3).graph
        for threads in (0, -1, 2.0, "2", True, False, Small.TWO):
            with pytest.raises(ValueError, match="^threads must be a positive integer$"):
                sparing_exact(g, threads=threads)

    def test_disjoint_union_additivity(self):
        pairs = [
            (make("cycle", n=5).graph, make("complete", n=4).graph),
            (make("wheel", m=4).graph, make("cycle", n=7).graph),
            (make("complete_sun", n=3).graph, make("path", n=4).graph),
        ]
        for g1, g2 in pairs:
            combined = sparing_exact(disjoint_union(g1, g2)).value
            assert combined == sparing_exact(g1).value + sparing_exact(g2).value

    def test_adding_an_edge_never_helps(self):
        for seed in range(25):
            g = random_graph(8, 0.35, 1000 + seed)
            non_edges = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            extra = non_edges[seed % len(non_edges)]
            bigger = graph_from_edges(g.n, g.edges() + [extra])
            assert sparing_bruteforce(bigger).value >= sparing_bruteforce(g).value


class TestOddCyclePacking:
    # a small instance of every family
    FAMILY_CASES = [
        ("path", {"n": 6}),
        ("cycle", {"n": 7}),
        ("complete", {"n": 6}),
        ("complete_bipartite", {"parts": [2, 3]}),
        ("complete_multipartite", {"parts": [1, 2, 3]}),
        ("complete_sun", {"n": 4}),
        ("split", {"r": 4, "adjacency": [[0, 1], [2], [0, 1, 2, 3]]}),
        ("complete_split", {"r": 4, "s": 2}),
        ("bisplit", {"y": 2, "z": 3, "adjacency": [[0, 2], [1, 3, 4]]}),
        ("complete_bisplit", {"parts": [1, 2, 3]}),
        ("block_chain", {"cliques": [3, 4, 2]}),
        ("windmill", {"n": 4, "r": 3}),
        ("friendship", {"r": 4}),
        ("wheel", {"m": 7}),
        ("cone", {"m": 5, "n": 2}),
        ("cactus_chain", {"cycles": [3, 5, 4, 7]}),
    ]

    def test_never_packs_more_than_a_third_of_the_edges(self):
        # every packed cycle has 3 or more edges of its own, which is what
        # lets the solver start its value phase at |E| - |E| // 3; and each
        # keeps a mono edge, so no packing exceeds phi and the goal
        # |E| - packing never lies below the optimum
        assert sorted(family for family, _ in self.FAMILY_CASES) == list(FAMILY_NAMES)
        graphs = [make(family, **params).graph for family, params in self.FAMILY_CASES]
        graphs += [random_graph(4 + seed % 40, 0.05 + 0.1 * (seed % 9), seed) for seed in range(90)]
        for g in graphs:
            packed = solver._odd_cycle_packing(adjacency(g), g.edge_count)
            assert packed <= g.edge_count // 3
            if g.n <= solver.BRUTEFORCE_MAX_VERTICES:
                assert packed <= sparing_bruteforce(g).value

    @pytest.mark.parametrize("count", [1, 2, 21])
    def test_disjoint_triangles_meet_the_third(self, count):
        g = shuffled(cycle_union(count, 3), count)
        assert solver._odd_cycle_packing(adjacency(g), g.edge_count) == count == g.edge_count // 3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: shuffled(cycle_union(12, 5), 0),
            lambda: cycle_union(4, 7),
            lambda: make("windmill", n=3, r=21).graph,
            lambda: make("windmill", n=4, r=3).graph,
            lambda: make("cactus_chain", cycles=[3, 5, 4, 7]).graph,
            lambda: shuffled(make("cactus_chain", cycles=[5] * 15).graph, 0),
        ],
        ids=["12xC5", "4xC7", "friendship21", "windmill4x3", "cactus3547", "cactus15xC5"],
    )
    def test_stops_once_it_has_packed_need_cycles(self, build):
        # the greedy order does not depend on need, so the packing returns
        # need once the full packing reaches it, the full count otherwise,
        # and 0 for need <= 0
        g = build()
        adj = adjacency(g)
        full = solver._odd_cycle_packing(adj, g.edge_count)
        assert full > 0
        for need in range(-2, full + 3):
            assert solver._odd_cycle_packing(adj, need) == min(max(need, 0), full)

    def test_matches_the_reference_packing(self):
        # the same start order, levels and lowest-bit choices pack the same
        # cycles, so every goal the solver sets stays as it was
        rng = random.Random(37)
        graphs = [shadow(make("cycle", n=k).graph) for k in (5, 21, 31)]
        for _ in range(40):
            n, p = rng.randint(1, 30), rng.choice((0.1, 0.2, 0.3, 0.5))
            graphs.append(random_graph(n, p, rng.randrange(2**31)))
        for g in graphs:
            adj = adjacency(g)
            for need in range(g.edge_count + 1):
                assert solver._odd_cycle_packing(adj, need) == reference_odd_cycle_packing(adj, need)


class TestLazyPacking:
    # the value phase starts at the floor |E| - |E| // 3 and packs odd cycles
    # only once the incumbent reaches it

    @pytest.mark.parametrize(
        "build,phi",
        [(lambda: make("complete", n=64).graph, 1953), (lambda: random_graph(64, 0.5, 1), 748)],
        ids=["K64", "G(64,0.5)"],
    )
    def test_dense_graphs_never_pack(self, packings, build, phi):
        assert sparing_exact(build()).value == phi
        assert packings == []

    def test_odd_cycles_pack_once(self, packings):
        r = sparing_exact(shuffled(cycle_union(12, 5), 0))
        assert packings == [12]
        assert r.value == 12
        assert r.stats.value_nodes < 100

    def test_packing_that_meets_the_floor(self, packings):
        # 21 triangles on one center: the packing is |E| / 3, so its goal is
        # the floor itself, and the first incumbent reaches it
        r = sparing_exact(make("windmill", n=3, r=21).graph)
        assert packings == [21]
        assert r.value == 21
        assert r.stats.nodes == 2


class TestLexMode:
    # a graph whose root clique-cover bound lies below the floor
    # |E| - |E| // 3 never packs, and its value search keeps the lexmin
    # optimal set: the witness pass tests no vertex

    @staticmethod
    def lex_witness(g):
        e, b = sparing_exact(g), sparing_bruteforce(g)
        assert (e.value, e.witness, e.mono) == (b.value, b.witness, b.mono)
        assert e.stats.nodes == e.stats.value_nodes
        return e.witness

    @pytest.mark.parametrize(
        "n,seed,witness", [(11, 394, (0, 1, 3)), (18, 916203555, (0, 11, 12, 15))]
    )
    def test_pendant_ties_keep_the_lower_neighbor_free(self, n, seed, witness):
        # taking every pendant over a neighbor of its degree gives (1, 3, 6)
        # and (11, 12, 15, 16)
        assert self.lex_witness(random_graph(n, 0.7, seed)) == witness

    def test_isolated_vertices_above_the_last_positive_degree_go(self):
        two_k4 = graph_from_edges(10, [*combinations(range(4), 2), *combinations(range(5, 9), 2)])
        assert self.lex_witness(two_k4) == (0, 4, 5)
        k6 = graph_from_edges(8, list(combinations(range(1, 7), 2)))
        assert self.lex_witness(k6) == (0, 1)

    def test_dense_sweep_matches_the_oracle(self):
        rng = random.Random(32)
        passless = 0
        for _ in range(300):
            n, p = rng.randint(4, 20), rng.choice((0.4, 0.5, 0.6, 0.7, 0.8))
            g = random_graph(n, p, rng.randrange(2**31))
            e, b = sparing_exact(g), sparing_bruteforce(g)
            assert (e.value, e.witness, e.mono) == (b.value, b.witness, b.mono)
            passless += e.stats.nodes == e.stats.value_nodes
        assert passless > 100  # 139 of the 300 search no node after the value phase


def test_solves_leave_no_cyclic_garbage():
    # the recursive closures drop their reference to themselves on return,
    # so a solve's frames are freed without the cyclic collector; the dense
    # graph is solved in lex mode, whose witness pass tests no vertex
    exact_graph, brute_graph = random_graph(40, 0.2, 3), random_graph(16, 0.3, 4)
    dense_graph = random_graph(40, 0.5, 3)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            sparing_exact(exact_graph)
            sparing_exact(dense_graph)
            sparing_bruteforce(brute_graph)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kept_results_share_their_edge_tuples():
    # mono lists hold the shared canonical tuples, so a kept result costs about
    # one reference per mono edge; one new tuple per edge would retain about 61 B
    sparing_exact(random_graph(64, 0.5, 100))  # one-time allocations fall before the measure
    gc.collect()  # a full collection also empties the tuple free lists
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [sparing_exact(random_graph(64, 0.5, s)) for s in range(20)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mono = sum(len(r.mono) for r in kept)
    assert mono > 10_000
    assert retained / mono <= 16


class TestConstructWitness:
    def test_triangle_with_one_doubleton(self):
        g = make("complete", n=3).graph
        f = construct_witness(g, (2,))
        assert f == {0: (1,), 1: (4,), 2: (16, 32)}
        assert induced_edge_labels(g, f) == {
            (0, 1): (5,),
            (0, 2): (17, 33),
            (1, 2): (20, 36),
        }
        assert verify_weak(g, f).ok
        assert mono_edges(g, f) == [(0, 1)]

    def test_four_cycle_no_mono(self):
        g = make("cycle", n=4).graph
        f = construct_witness(g, (0, 2))
        assert f == {0: (1, 2), 1: (4,), 2: (16, 32), 3: (64,)}
        assert verify_weak(g, f).ok
        assert mono_edges(g, f) == []

    def test_not_independent(self):
        with pytest.raises(NotIndependent):
            construct_witness(make("complete", n=3).graph, (0, 1))

    def test_vertex_out_of_range(self):
        with pytest.raises(NotIndependent):
            construct_witness(make("complete", n=3).graph, (7,))

    # a bool is not read as the vertex 0 or 1, and a mixed set is named unsorted
    @pytest.mark.parametrize(
        "chosen",
        [(True,), (0, False), (1.0,), ("1",), (0, "1"), (Small.ONE,), frozenset({True, 3})],
        ids=repr,
    )
    def test_vertex_must_be_an_exact_int(self, chosen):
        with pytest.raises(NotIndependent, match="is not valid for this graph$"):
            construct_witness(make("cycle", n=4).graph, chosen)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            construct_witness(graph_from_edges(30, []), ())

    def test_realizes_any_independent_set(self):
        g = make("complete_sun", n=4).graph
        for chosen in [(), (0,), (4,), (0, 5), (0, 5, 6), (4, 5, 6, 7)]:
            assert is_independent(g, chosen)
            f = construct_witness(g, chosen)
            assert verify_weak(g, f).ok
            complement = [v for v in range(g.n) if v not in chosen]
            assert mono_edges(g, f) == edges_within(g, complement)


class TestSolveAndCertify:
    def test_complete(self):
        result, labeling = solve_and_certify(make("complete", n=4).graph)
        assert result.value == 3
        assert len(mono_edges(make("complete", n=4).graph, labeling)) == 3

    def test_friendship(self):
        result, labeling = solve_and_certify(make("friendship", r=2).graph)
        assert result.value == 2
        assert len(labeling) == 5

    def test_tripartite(self):
        result, _ = solve_and_certify(make("complete_multipartite", parts=[1, 2, 3]).graph)
        assert result.value == 2

    def test_too_large(self):
        with pytest.raises(TooLarge):
            solve_and_certify(make("complete", n=30).graph)

    def test_a_labeling_that_disagrees_with_the_solve_is_refused(self, monkeypatch):
        disagreeing_witness(monkeypatch)
        with pytest.raises(CertificationFailed) as exc:
            solve_and_certify(make("cycle", n=5).graph)
        assert str(exc.value) == (
            "witness labeling disagrees with the solve (value 1, labeled mono count 1)"
        )

    def test_never_raises_certification_failed_on_families(self):
        for lg in (
            make("wheel", m=5),
            make("cone", m=3, n=2),
            make("cactus_chain", cycles=[5, 3]),
            make("block_chain", cliques=[4, 4]),
        ):
            try:
                result, labeling = solve_and_certify(lg.graph)
            except CertificationFailed as exc:  # pragma: no cover
                pytest.fail(f"certification failed: {exc}")
            assert verify_weak(lg.graph, labeling).ok
            assert len(mono_edges(lg.graph, labeling)) == result.value
