import random

import pytest

from helpers import Small, reference_generate, validate
from sparing import families
from sparing.claims import check_claim, claim_by_id
from sparing.errors import InvalidParam, SparingError, TooLarge
from sparing.families import (
    FAMILY_NAMES, FAMILY_PARAMS, LIST_PARAMS, FamilySpec, generate, make, random_graph, vertex_count,
)
from sparing.graphs import edges_within, graph_from_edges, is_independent
from sparing.solver import sparing_exact


class TestCounting:
    def test_complete_sun(self):
        g = make("complete_sun", n=3).graph
        assert (g.n, g.edge_count) == (6, 9)

    def test_windmill(self):
        lg = make("windmill", n=3, r=2)
        assert (lg.graph.n, lg.graph.edge_count) == (5, 6)
        assert lg.partitions["hub"] == frozenset({0})
        # the shared vertex touches everything
        assert lg.graph.degree(0) == 4

    def test_cone(self):
        g = make("cone", m=4, n=2).graph
        assert (g.n, g.edge_count) == (6, 12)

    def test_complete_split(self):
        g = make("complete_split", r=3, s=2).graph
        assert (g.n, g.edge_count) == (5, 9)

    def test_cycle_too_small(self):
        with pytest.raises(InvalidParam):
            make("cycle", n=2)

    @pytest.mark.parametrize(
        "n,r", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    )
    def test_windmill_counts(self, n, r):
        g = make("windmill", n=n, r=r).graph
        assert g.n == r * (n - 1) + 1
        assert g.edge_count == r * n * (n - 1) // 2

    @pytest.mark.parametrize("sizes", [[2], [3, 4], [2, 2, 2], [4, 3, 2], [3, 3, 3, 3]])
    def test_block_chain_counts(self, sizes):
        g = make("block_chain", cliques=sizes).graph
        assert g.n == 1 + sum(s - 1 for s in sizes)
        assert g.edge_count == sum(s * (s - 1) // 2 for s in sizes)

    @pytest.mark.parametrize("lengths", [[3], [3, 4], [5, 3, 4], [3, 3, 3]])
    def test_cactus_chain_counts(self, lengths):
        g = make("cactus_chain", cycles=lengths).graph
        assert g.n == 1 + sum(l - 1 for l in lengths)
        assert g.edge_count == sum(lengths)
        assert all(g.degree(v) in (2, 4) for v in range(g.n))


def low_and_top(lo: int, hi: int) -> list[int]:
    """The two least and the two top values of lo..hi."""
    return sorted({lo, lo + 1, hi - 1, hi} & set(range(lo, hi + 1)))


def points_up_to_the_cap():
    """Points of every family with at most 64 vertices: each one-parameter
    range whole, a second parameter at its low and top values, lists of one to
    three items and of many least items; split and bisplit get sample rows."""
    for n in range(1, 65):
        yield "path", {"n": n}
        yield "complete", {"n": n}
        yield "complete_multipartite", {"parts": [n]}
    for n in range(3, 65):
        yield "cycle", {"n": n}
        yield "cactus_chain", {"cycles": [n]}
    for m in range(3, 64):
        yield "wheel", {"m": m}
    for n in range(3, 33):
        yield "complete_sun", {"n": n}
    for r in range(2, 32):
        yield "friendship", {"r": r}
    for n in range(2, 64):
        yield "block_chain", {"cliques": [n, 65 - n]}
        for r in low_and_top(2, 63 // (n - 1)):
            yield "windmill", {"n": n, "r": r}
    for n in range(3, 63):
        yield "cactus_chain", {"cycles": [n, 65 - n]}
        for k in low_and_top(1, 64 - n):
            yield "cone", {"m": n, "n": k}
    for a in range(1, 63):
        yield "complete_bipartite", {"parts": [a, 64 - a]}
        yield "complete_multipartite", {"parts": [a, 64 - a]}
        for b in low_and_top(1, 63 - a):
            yield "complete_bisplit", {"parts": [a, b, 64 - a - b]}
            yield "complete_multipartite", {"parts": [a, b, 64 - a - b]}
            yield "complete_split", {"r": a, "s": b}
            yield "split", {"r": a, "adjacency": [[j % a] for j in range(b)]}
            rows = [[j % (a + b)] for j in range(63 - a - b)]
            yield "bisplit", {"y": a, "z": b, "adjacency": rows}
            yield "block_chain", {"cliques": [a + 1, b + 1]}
    yield "complete_multipartite", {"parts": [1] * 64}
    yield "block_chain", {"cliques": [2] * 63}
    yield "cactus_chain", {"cycles": [3] * 31}
    yield "split", {"r": 1, "adjacency": []}
    yield "bisplit", {"y": 1, "z": 1, "adjacency": []}


# a point of each family just over the cap, with its vertex count
OVER_THE_CAP = [
    ("path", {"n": 65}, 65),
    ("cycle", {"n": 65}, 65),
    ("complete", {"n": 65}, 65),
    ("complete_bipartite", {"parts": [33, 32]}, 65),
    ("complete_multipartite", {"parts": [1] * 65}, 65),
    ("complete_bisplit", {"parts": [20, 20, 25]}, 65),
    ("complete_sun", {"n": 33}, 66),
    ("split", {"r": 60, "adjacency": [[0]] * 5}, 65),
    ("complete_split", {"r": 60, "s": 5}, 65),
    ("bisplit", {"y": 30, "z": 30, "adjacency": [[0]] * 5}, 65),
    ("block_chain", {"cliques": [33, 33]}, 65),
    ("windmill", {"n": 33, "r": 2}, 65),
    ("friendship", {"r": 32}, 65),
    ("wheel", {"m": 64}, 65),
    ("cone", {"m": 60, "n": 5}, 65),
    ("cactus_chain", {"cycles": [33, 33]}, 65),
]


@pytest.fixture
def no_edges(monkeypatch):
    """Fail the test if a builder joins a block or makes a graph (every
    builder ends in ``Graph``)."""

    def refuse(*args):
        raise AssertionError("built edges")

    for name in ("Graph", "_join_clique", "_join_path", "_join_cycle", "_join_star"):
        monkeypatch.setattr(families, name, refuse)


class TestVertexCount:
    def test_count_is_the_built_vertex_count(self):
        seen = set()
        for family, params in points_up_to_the_cap():
            count = vertex_count(family, params)
            assert count == generate(FamilySpec(family, params)).graph.n <= 64, (family, params)
            seen.add(family)
        assert seen == set(FAMILY_NAMES)

    def test_every_family_has_a_point_over_the_cap(self):
        assert sorted(family for family, _, _ in OVER_THE_CAP) == sorted(FAMILY_NAMES)

    @pytest.mark.parametrize("family,params,count", OVER_THE_CAP)
    def test_over_the_cap_is_refused_before_any_edge(self, no_edges, family, params, count):
        with pytest.raises(TooLarge) as exc:
            generate(FamilySpec(family, params))
        assert str(exc.value) == f"{family} needs {count} vertices; graphs are limited to 64"

    def test_a_point_over_the_cap_is_named_after_the_count(self):
        with pytest.raises(TooLarge) as exc:
            vertex_count("windmill", {"n": 64, "r": 64}, named=True)
        assert str(exc.value) == (
            "windmill needs 4033 vertices at n=64,r=64; graphs are limited to 64"
        )
        assert vertex_count("windmill", {"n": 3, "r": 2}, named=True) == 5

    def test_a_large_instance_is_refused_before_any_edge(self, no_edges):
        with pytest.raises(TooLarge, match="^complete needs 3000 vertices; "):
            make("complete", n=3000)
        with pytest.raises(TooLarge) as exc:
            check_claim(claim_by_id("C1"), {"n": 3000})
        assert str(exc.value) == (
            "claim C1 at n=3000: complete needs 3000 vertices; graphs are limited to 64"
        )

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("complete_bipartite", {"parts": [40, 40, 1]},
             "complete_bipartite requires exactly 2 part sizes"),
            ("complete_bisplit", {"parts": [40, 40]}, "complete_bisplit requires exactly 3 part sizes"),
            ("split", {"r": 64, "adjacency": [[99]]},
             "split adjacency entries must be clique indices 0..63"),
            ("bisplit", {"y": 40, "z": 40, "adjacency": [[0], 5]},
             "bisplit adjacency rows must be lists"),
        ],
    )
    def test_a_malformed_point_over_the_cap_is_invalid(self, no_edges, family, params, err):
        # the count refuses the shape before it compares the count with the cap
        for refuse in (lambda: generate(FamilySpec(family, params)),
                       lambda: vertex_count(family, params)):
            with pytest.raises(InvalidParam) as exc:
                refuse()
            assert str(exc.value) == err

    def test_range_and_type_checks_come_first(self, no_edges):
        with pytest.raises(InvalidParam, match="^windmill requires n >= 2 and r >= 2$"):
            make("windmill", n=1, r=1000)
        with pytest.raises(InvalidParam, match="^split requires an adjacency list$"):
            make("split", r=1000)


def seeded_points(count: int, seed: int):
    """``count`` points cycling through every family, drawn from
    ``random.Random(seed)``: values mostly small but reaching under the least
    values and over the cap, lists of one to five items, split and bisplit rows
    of up to four entries that may repeat, and now and then a malformed value,
    entry or row or a missing parameter."""
    rng = random.Random(seed)

    def value(lo):
        return lo - 2 + min(int(rng.expovariate(0.1)), 80)

    for i in range(count):
        family = FAMILY_NAMES[i % len(FAMILY_NAMES)]
        params: dict = {}
        for key, lo in FAMILY_PARAMS[family].items():
            if key in LIST_PARAMS:
                params[key] = [value(lo + 1) for _ in range(rng.randint(1, 5))]
            elif lo is not None:
                params[key] = value(lo)
        if "adjacency" in FAMILY_PARAMS[family]:
            end = params["r"] if family == "split" else params["y"] + params["z"]
            params["adjacency"] = [
                [rng.randrange(max(end, 1)) for _ in range(rng.randint(0, 4))]
                for _ in range(rng.randint(0, 8))
            ]
            if rng.random() < 0.1:
                params["adjacency"].append(rng.choice([[end], [-1], 3, ["0"], (0, True)]))
        if rng.random() < 0.05:
            key = rng.choice(list(params))
            if rng.random() < 0.5:
                del params[key]
            else:
                params[key] = rng.choice(["3", True, 2.0, [], [3, "4"], None])
        yield family, params


def outcome(build, family, params):
    """What ``build`` makes of the point: its graph and partitions, or the class
    and message of the error it refused the point with."""
    try:
        lg = build(FamilySpec(family, params))
    except SparingError as exc:
        return type(exc), str(exc)
    return lg.graph, lg.partitions


class TestReferenceGenerator:
    def test_every_point_up_to_the_cap(self):
        for family, params in points_up_to_the_cap():
            assert outcome(generate, family, params) == outcome(reference_generate, family, params), (
                family, params)

    def test_seeded_points(self):
        built = dict.fromkeys(FAMILY_NAMES, 0)
        refused = set()
        for family, params in seeded_points(4096, 7):
            got = outcome(generate, family, params)
            assert got == outcome(reference_generate, family, params), (family, params)
            if isinstance(got[0], type):
                refused.add(got[0])
            else:
                built[family] += 1
        assert min(built.values()) >= 25, built
        assert refused == {InvalidParam, TooLarge}


class TestPartitions:
    def test_sun_rim(self):
        assert make("complete_sun", n=3).partitions["W"] == frozenset({3, 4, 5})

    def test_wheel_hub(self):
        assert make("wheel", m=4).partitions["hub"] == frozenset({4})

    def test_partitions_cover_and_are_disjoint(self):
        for lg in (
            make("complete_sun", n=5),
            make("complete_split", r=4, s=3),
            make("complete_bisplit", parts=[2, 3, 4]),
            make("wheel", m=6),
            make("cone", m=5, n=2),
            make("windmill", n=4, r=3),
            make("complete_bipartite", parts=[3, 2]),
        ):
            union = set()
            total = 0
            for part in lg.partitions.values():
                total += len(part)
                union |= part
            assert union == set(range(lg.graph.n))
            assert total == lg.graph.n


class TestStructure:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_sun_rim_independent_with_degree_two(self, n):
        lg = make("complete_sun", n=n)
        rim = lg.partitions["W"]
        assert is_independent(lg.graph, rim)
        assert all(lg.graph.degree(w) == 2 for w in rim)
        clique = lg.partitions["U"]
        assert len(edges_within(lg.graph, clique)) == n * (n - 1) // 2

    @pytest.mark.parametrize("r,s", [(2, 1), (3, 2), (4, 3), (5, 2)])
    def test_complete_split_structure(self, r, s):
        lg = make("complete_split", r=r, s=s)
        clique = lg.partitions["clique"]
        indep = lg.partitions["independent"]
        assert len(edges_within(lg.graph, clique)) == r * (r - 1) // 2
        assert is_independent(lg.graph, indep)
        assert all(lg.graph.degree(v) == r for v in indep)

    def test_complete_bisplit_is_complete_tripartite(self):
        lg = make("complete_bisplit", parts=[2, 3, 4])
        parts = [lg.partitions[name] for name in ("X", "Y", "Z")]
        for part in parts:
            assert is_independent(lg.graph, part)
        for i in range(3):
            for j in range(i + 1, 3):
                for u in parts[i]:
                    for v in parts[j]:
                        assert lg.graph.has_edge(u, v)

    def test_general_split_adjacency(self):
        lg = make("split", r=3, adjacency=[(0, 1), (2,)])
        g = lg.graph
        assert g.n == 5
        assert g.has_edge(0, 3) and g.has_edge(1, 3) and g.has_edge(2, 4)
        assert not g.has_edge(2, 3) and not g.has_edge(0, 4)
        assert is_independent(g, lg.partitions["independent"])

    def test_general_bisplit(self):
        # X = {0}, Y = {1, 2}, Z = {3}; the lone X vertex sees one Y and one Z vertex
        lg = make("bisplit", y=2, z=1, adjacency=[(0, 2)])
        g = lg.graph
        assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(0, 2)
        # Y-Z biclique is always present
        assert g.has_edge(1, 3) and g.has_edge(2, 3)
        for name in ("X", "Y", "Z"):
            assert is_independent(g, lg.partitions[name])

    @pytest.mark.parametrize(
        "family,params,base,base_params,renamed",
        [
            pytest.param(*case, id=f"{case[0]}-{FamilySpec(case[0], case[1]).param_string()}")
            for case in [
                *[("friendship", {"r": r}, "windmill", {"n": 3, "r": r}, {}) for r in (2, 3, 5)],
                *[("wheel", {"m": m}, "cone", {"m": m, "n": 1}, {"cycle": "rim", "apex": "hub"})
                  for m in (3, 4, 7)],
                *[("cycle", {"n": n}, "cactus_chain", {"cycles": [n]}, {}) for n in (3, 4, 9)],
                *[("complete", {"n": n}, "block_chain", {"cliques": [n]}, {}) for n in (2, 3, 6)],
                *[("complete_split", {"r": r, "s": s}, "split",
                   {"r": r, "adjacency": [list(range(r))] * s}, {}) for r, s in ((1, 1), (3, 2), (4, 3))],
                *[("complete_sun", {"n": n}, "split", {"r": n, "adjacency": [[j, (j + 1) % n] for j in range(n)]},
                   {"clique": "U", "independent": "W"}) for n in (3, 4, 7)],
            ]
        ],
    )
    def test_derived_family_is_its_base(self, family, params, base, base_params, renamed):
        # a derived family is the family it derives from: the same graph, and
        # the same partitions under the derived family's part names
        lg, base_lg = make(family, **params), make(base, **base_params)
        assert lg.graph == base_lg.graph
        assert lg.partitions == {renamed.get(k, k): v for k, v in base_lg.partitions.items()}

    def test_block_chain_cliques_share_at_most_one_vertex(self):
        sizes = [3, 4, 2, 3]
        g = make("block_chain", cliques=sizes).graph
        start = 0
        blocks = []
        for size in sizes:
            blocks.append(set(range(start, start + size)))
            start += size - 1
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert len(blocks[i] & blocks[j]) <= 1

    def test_cactus_cycles_edge_disjoint(self):
        lengths = [3, 4, 5]
        g = make("cactus_chain", cycles=lengths).graph
        start = 0
        rings = []
        for length in lengths:
            ring = set(range(start, start + length))
            rings.append(set(edges_within(g, ring)))
            start += length - 1
        assert sum(len(r) for r in rings) == g.edge_count
        for i in range(len(rings)):
            for j in range(i + 1, len(rings)):
                assert not rings[i] & rings[j]

    def test_bipartite_families_are_bipartite(self):
        for lg in (
            make("path", n=6),
            make("cycle", n=8),
            make("complete_bipartite", parts=[3, 4]),
        ):
            assert sparing_exact(lg.graph).value == 0  # phi is 0 exactly on bipartite graphs

    def test_all_generated_graphs_validate(self):
        for lg in (
            make("path", n=1),
            make("complete", n=1),
            make("complete_multipartite", parts=[1, 1, 2, 3]),
            make("cactus_chain", cycles=[3, 3]),
            make("block_chain", cliques=[2, 4]),
        ):
            validate(lg.graph)


class TestSpecStrings:
    def test_param_string_order(self):
        spec = FamilySpec("cone", {"m": 4, "n": 2})
        assert spec.param_string() == "m=4,n=2"

    def test_list_params(self):
        assert FamilySpec("block_chain", {"cliques": [3, 4]}).param_string() == "cliques=3,4"

    def test_adjacency_rows_render_in_brackets(self):
        spec = FamilySpec("split", {"r": 3, "adjacency": [[0, 1], [2]]})
        assert spec.param_string() == "r=3,adjacency=[0,1;2]"
        verdict = check_claim(claim_by_id("C12"), {"base": spec})
        assert verdict.where == "base=split,r=3,adjacency=[0,1;2]"

    def test_mixed_rows_render_before_the_build_refuses_them(self):
        # only a list of lists renders as rows; a bad row then gets the
        # family's own row message instead of a TypeError from the renderer
        spec = FamilySpec("split", {"r": 3, "adjacency": [[0], 5]})
        assert spec.param_string() == "r=3,adjacency=[0],5"
        with pytest.raises(InvalidParam, match="^split adjacency rows must be lists$"):
            check_claim(claim_by_id("C12"), {"base": spec})

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParam):
            generate(FamilySpec("hypercube", {"n": 3}))

    @pytest.mark.parametrize(
        "family,params",
        [
            ("cycle", {"n": 2}),
            ("complete", {"n": 0}),
            ("complete_sun", {"n": 2}),
            ("windmill", {"n": 1, "r": 2}),
            ("windmill", {"n": 3, "r": 1}),
            ("friendship", {"r": 1}),
            ("wheel", {"m": 2}),
            ("cone", {"m": 2, "n": 1}),
            ("cone", {"m": 3, "n": 0}),
            ("block_chain", {"cliques": [1, 3]}),
            ("cactus_chain", {"cycles": [2]}),
            ("complete_split", {"r": 0, "s": 1}),
            ("complete_bipartite", {"parts": [0, 2]}),
            ("complete_bipartite", {"parts": [1, 2, 3]}),
            ("complete_bisplit", {"parts": [1, 2]}),
        ],
    )
    def test_domain_violations(self, family, params):
        with pytest.raises(InvalidParam):
            generate(FamilySpec(family, params))

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("path", {"n": 0}, "path requires n >= 1"),
            ("cycle", {"n": 2}, "cycle requires n >= 3"),
            ("complete", {"n": 0}, "complete requires n >= 1"),
            (
                "complete_bipartite",
                {"parts": [1, 0]},
                "complete_bipartite requires all part sizes >= 1",
            ),
            (
                "complete_multipartite",
                {"parts": [2, 0, 1]},
                "complete_multipartite requires all part sizes >= 1",
            ),
            ("complete_sun", {"n": 2}, "complete_sun requires n >= 3"),
            ("split", {"r": 0, "adjacency": []}, "split requires r >= 1"),
            ("complete_split", {"r": 2, "s": 0}, "complete_split requires r >= 1 and s >= 1"),
            ("bisplit", {"y": 1, "z": 0, "adjacency": []}, "bisplit requires y >= 1 and z >= 1"),
            (
                "complete_bisplit",
                {"parts": [1, 1, 0]},
                "complete_bisplit requires all part sizes >= 1",
            ),
            ("block_chain", {"cliques": [3, 1]}, "block_chain requires all clique sizes >= 2"),
            ("windmill", {"n": 3, "r": 1}, "windmill requires n >= 2 and r >= 2"),
            ("friendship", {"r": 1}, "friendship requires r >= 2"),
            ("wheel", {"m": 2}, "wheel requires m >= 3"),
            ("cone", {"m": 3, "n": 0}, "cone requires m >= 3 and n >= 1"),
            ("cactus_chain", {"cycles": [3, 2]}, "cactus_chain requires all cycle lengths >= 3"),
        ],
    )
    def test_range_messages(self, family, params, err):
        with pytest.raises(InvalidParam) as exc:
            generate(FamilySpec(family, params))
        assert str(exc.value) == err

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("cycle", {"n": "5"}, "cycle: n must be an integer"),
            ("cycle", {"n": True}, "cycle: n must be an integer"),
            ("cycle", {"n": Small.FIVE}, "cycle: n must be an integer"),
            (
                "cactus_chain",
                {"cycles": [3, Small.FIVE]},
                "cactus_chain: cycles must be a non-empty list of integers",
            ),
            ("windmill", {"n": 3}, "windmill requires parameter r"),
            (
                "block_chain",
                {"cliques": []},
                "block_chain: cliques must be a non-empty list of integers",
            ),
            (
                "cactus_chain",
                {"cycles": [3, "4"]},
                "cactus_chain: cycles must be a non-empty list of integers",
            ),
            (
                "complete_bipartite",
                {"parts": 3},
                "complete_bipartite: parts must be a non-empty list of integers",
            ),
            ("bisplit", {"y": 1, "z": 1}, "bisplit requires an adjacency list for X"),
            ("split", {"r": "3", "adjacency": []}, "split: r must be an integer"),
        ],
    )
    def test_type_errors(self, family, params, err):
        with pytest.raises(InvalidParam, match=f"^{err}$"):
            generate(FamilySpec(family, params))

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("split", {"r": 3, "adjacency": [5]}, "split adjacency rows must be lists"),
            ("split", {"r": 3, "adjacency": [[0], 1]}, "split adjacency rows must be lists"),
            (
                "split",
                {"r": 3, "adjacency": [[True]]},
                "split adjacency entries must be clique indices 0..2",
            ),
            (
                "split",
                {"r": 3, "adjacency": [[Small.ONE]]},
                "split adjacency entries must be clique indices 0..2",
            ),
            ("bisplit", {"y": 1, "z": 1, "adjacency": [7]}, "bisplit adjacency rows must be lists"),
            (
                "bisplit",
                {"y": 1, "z": 1, "adjacency": [[0, False]]},
                "bisplit adjacency entries must lie in 0..1",
            ),
            ("split", {"r": 3, "adjacency": [[3]]}, "split adjacency entries must be clique indices 0..2"),
            ("bisplit", {"y": 1, "z": 1, "adjacency": [[2]]}, "bisplit adjacency entries must lie in 0..1"),
        ],
    )
    def test_adjacency_rows(self, family, params, err):
        # a row that is not a list, or a bool entry, is refused like any other bad value
        with pytest.raises(InvalidParam, match=f"^{err}$"):
            generate(FamilySpec(family, params))

    def test_missing_param_names_flag(self):
        with pytest.raises(InvalidParam, match="requires parameter n"):
            make("cycle")


class TestRandomGraph:
    def test_deterministic(self):
        assert random_graph(8, 0.4, 11) == random_graph(8, 0.4, 11)

    def test_density_extremes(self):
        assert random_graph(6, 0.0, 1).edge_count == 0
        assert random_graph(6, 1.0, 1).edge_count == 15

    def test_validates(self):
        validate(random_graph(12, 0.5, 3))

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.5, 1.0, 0, 1])
    def test_matches_the_edge_list_reference(self, density):
        # the draw contract: one random() per pair u < v, row by row, and an
        # edge wherever the draw is below density; above 64 vertices the
        # edges are listed as fresh tuples
        for n in [*range(65), 65, 70]:
            for seed in (0, 7, 2**31 - 1):
                rng = random.Random(seed)
                edges = [
                    (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
                ]
                want, got = graph_from_edges(n, edges), random_graph(n, density, seed)
                assert (got.n, got._adj, got.edges()) == (want.n, want._adj, want.edges())

    @pytest.mark.parametrize(
        "n,density,err",
        [
            (True, 0.5, "random_graph: n must be an integer"),
            (5.0, 0.5, "random_graph: n must be an integer"),
            ("5", 0.5, "random_graph: n must be an integer"),
            (Small.FIVE, 0.5, "random_graph: n must be an integer"),
            (5, True, "random_graph: density must be a number"),
            (5, "0.5", "random_graph: density must be a number"),
            (5, None, "random_graph: density must be a number"),
            (-1, 0.5, "random_graph requires n >= 0"),
            (5, 1.5, r"random_graph requires density in \[0, 1\]"),
            (5, float("nan"), r"random_graph requires density in \[0, 1\]"),
        ],
    )
    def test_refuses_bad_arguments(self, n, density, err):
        with pytest.raises(InvalidParam, match=f"^{err}$"):
            random_graph(n, density, 1)

    # random.Random(None) seeds from the clock, and a list seed is unhashable
    @pytest.mark.parametrize("seed", [None, [1], True, 1.0, "1", Small.ONE])
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(InvalidParam, match="^random_graph: seed must be an integer$"):
            random_graph(12, 0.5, seed)
