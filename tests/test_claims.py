import pytest

from sparing.claims import (
    catalog,
    check_claim,
    claim_by_id,
    predicted_value,
)
from sparing.errors import DomainError, InvalidParam, MissingGraph, TooLarge
from sparing.families import FAMILY_PARAMS, LIST_PARAMS, FamilySpec, generate, make
from sparing.solver import sparing_exact


@pytest.fixture
def solver_calls(monkeypatch):
    """The graphs handed to the exact solver, from claims and certification alike."""
    import sparing.claims
    import sparing.solver

    calls = []

    def counted(g, threads=None):
        calls.append(g)
        return sparing_exact(g, threads)

    # solve_and_certify looks the solver up in its own module
    monkeypatch.setattr(sparing.claims, "sparing_exact", counted)
    monkeypatch.setattr(sparing.solver, "sparing_exact", counted)
    return calls


class TestCatalog:
    def test_sixteen_claims(self):
        cat = catalog()
        assert len(cat) == 16
        assert [c.id for c in cat] == [f"C{i}" for i in range(1, 17)]

    def test_lookup(self):
        assert claim_by_id("C9").family == "block_chain"
        with pytest.raises(KeyError):
            claim_by_id("C17")

    def test_param_orders(self):
        assert {c.id: c.param_order for c in catalog()} == {
            "C1": ("n",),
            "C2": ("n",),
            "C3": ("a", "b"),
            "C4": ("n",),
            "C5": ("r", "s"),
            "C6": ("r", "s"),
            "C7": ("x", "y", "z"),
            "C8": ("a", "b", "c"),
            "C9": ("cliques",),
            "C10": ("n", "r"),
            "C11": ("r",),
            "C12": ("base",),
            "C13": ("base", "mode"),
            "C14": ("cycles",),
            "C15": ("m",),
            "C16": ("m", "n"),
        }

    def test_item_lists(self):
        # a claim that names its own parameters on a registry family names the
        # items of the family's one list; C12 and C13 are on no registry family
        lists = {c.id: c.item_list() for c in catalog() if c.item_list() is not None}
        assert lists == {"C3": "parts", "C7": "parts", "C8": "parts"}


class TestPredicted:
    def test_complete(self):
        assert predicted_value(claim_by_id("C1"), {"n": 5}) == 6

    def test_cone(self):
        assert predicted_value(claim_by_id("C16"), {"m": 7, "n": 3}) == 7

    def test_blocks(self):
        assert predicted_value(claim_by_id("C9"), {"cliques": [3, 4]}) == 4

    def test_tripartite(self):
        assert predicted_value(claim_by_id("C8"), {"a": 2, "b": 2, "c": 5}) == 4

    def test_sun(self):
        assert predicted_value(claim_by_id("C4"), {"n": 4}) == 5

    def test_wheel_rounding(self):
        claim = claim_by_id("C15")
        assert [predicted_value(claim, {"m": m}) for m in (3, 4, 5, 6, 7)] == [1, 2, 2, 3, 3]

    def test_odd_cycle_domain(self):
        with pytest.raises(DomainError):
            predicted_value(claim_by_id("C2"), {"n": 6})

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            predicted_value(claim_by_id("C16"), {"m": 4})

    @pytest.mark.parametrize(
        "claim_id,params",
        [("C5", {"r": 3, "s": 2}), ("C7", {"x": 1, "y": 2, "z": 3})],
        ids=["C5", "C7"],
    )
    def test_graph_dependent_needs_instance(self, claim_id, params):
        with pytest.raises(MissingGraph):
            predicted_value(claim_by_id(claim_id), params)

    def test_split_counts_triangles_through_best_vertex(self):
        claim = claim_by_id("C5")
        lg = make("complete_split", r=3, s=2)
        # each clique vertex sits in 1 clique triangle plus 2 apex triangles
        assert predicted_value(claim, {"r": 3, "s": 2}, lg) == 5

    def test_general_split_instance(self):
        claim = claim_by_id("C5")
        lg = make("split", r=3, adjacency=[(0, 1)])
        # vertex 2 sees only the clique triangle
        assert predicted_value(claim, {"r": 3, "s": 1}, lg) == 1

    def test_bisplit_cross_paths(self):
        claim = claim_by_id("C7")
        lg = make("complete_bisplit", parts=[1, 2, 3])
        assert predicted_value(claim, {"x": 1, "y": 2, "z": 3}, lg) == 6

    def test_bisplit_on_general_instance(self):
        claim = claim_by_id("C7")
        # lone X vertex adjacent to one Y vertex and one Z vertex: one cross path
        lg = make("bisplit", y=2, z=2, adjacency=[(0, 2)])
        assert predicted_value(claim, {"x": 1, "y": 2, "z": 2}, lg) == 1

    def test_cactus_counts_odd_cycles_without_instance(self):
        assert predicted_value(claim_by_id("C14"), {"cycles": [3, 4, 5, 7]}) == 3

    def test_shadow_doubles_base(self):
        base = FamilySpec("cycle", {"n": 5})
        assert predicted_value(claim_by_id("C12"), {"base": base}) == 2


class TestCheckClaim:
    def test_complete_matches(self):
        v = check_claim(claim_by_id("C1"), {"n": 5})
        assert (v.predicted, v.exact, v.verdict) == (6, 6, "MATCH")
        assert v.exact == v.mono_count

    def test_cone_matches(self):
        v = check_claim(claim_by_id("C16"), {"m": 4, "n": 2})
        assert (v.predicted, v.exact, v.verdict) == (4, 4, "MATCH")

    def test_wheel_odd_rim_mismatch(self):
        v = check_claim(claim_by_id("C15"), {"m": 5})
        assert (v.predicted, v.exact, v.verdict) == (2, 4, "MISMATCH")

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sun_statement_value_matches(self, n):
        v = check_claim(claim_by_id("C4"), {"n": n})
        assert v.verdict == "MATCH"
        assert v.predicted == (n * n - 3 * n + 6) // 2

    @pytest.mark.parametrize("r,s", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
    def test_complete_split_proof_value_matches(self, r, s):
        v = check_claim(claim_by_id("C6"), {"r": r, "s": s})
        assert v.verdict == "MATCH"
        assert v.predicted == r * (r - 1) // 2

    def test_shadow_of_triangle_disagrees(self):
        v = check_claim(claim_by_id("C12"), {"base": FamilySpec("complete", {"n": 3})})
        assert (v.predicted, v.exact, v.verdict) == (2, 3, "MISMATCH")

    def test_shadow_of_bipartite_matches_at_zero(self):
        for base in (
            FamilySpec("path", {"n": 6}),
            FamilySpec("cycle", {"n": 8}),
            FamilySpec("complete_bipartite", {"parts": [2, 3]}),
        ):
            v = check_claim(claim_by_id("C12"), {"base": base})
            assert (v.predicted, v.exact, v.verdict) == (0, 0, "MATCH")

    def test_shadow_of_trees_matches_at_zero(self):
        import random

        from helpers import random_tree
        from sparing.claims import predicted_value
        from sparing.graphs import shadow
        from sparing.solver import sparing_exact as solve

        rng = random.Random(5)
        for _ in range(8):
            tree = random_tree(rng.randint(2, 8), rng)
            assert solve(shadow(tree)).value == 0 == 2 * solve(tree).value

    def test_subdivision_modes(self):
        base = FamilySpec("complete", {"n": 3})
        fresh = check_claim(claim_by_id("C13"), {"base": base, "mode": "fresh"})
        induced = check_claim(claim_by_id("C13"), {"base": base, "mode": "induced"})
        assert fresh.predicted == induced.predicted == 2
        # subdividing the lone mono edge of a triangle leaves an even cycle
        assert (fresh.exact, fresh.verdict) == (0, "MISMATCH")
        assert (induced.exact, induced.verdict) == (2, "MATCH")

    @pytest.mark.parametrize("mode,solves", [("fresh", 2), ("induced", 1)])
    def test_subdivision_solves_its_base_once(self, solver_calls, mode, solves):
        check_claim(claim_by_id("C13"), {"base": FamilySpec("cycle", {"n": 7}), "mode": mode})
        # fresh: the base, then the subdivided graph; induced: the base only
        assert len(solver_calls) == solves

    @pytest.mark.parametrize("n,value", [(12, 110), (29, 756)])
    def test_induced_subdivision_has_no_solve_cap(self, solver_calls, n, value):
        # K12's subdivision has 67 vertices and K29's, the largest base
        # certification accepts, 407; induced mode only verifies a labeling
        params = {"base": FamilySpec("complete", {"n": n}), "mode": "induced"}
        v = check_claim(claim_by_id("C13"), params)
        assert (v.where, v.predicted, v.exact, v.verdict) == (
            f"base=complete,n={n},mode=induced", value, value, "MATCH"
        )
        assert len(solver_calls) == 1

    def test_fresh_subdivision_over_the_cap_is_refused_after_its_base(self, solver_calls):
        params = {"base": FamilySpec("complete", {"n": 12}), "mode": "fresh"}
        with pytest.raises(TooLarge) as exc:
            check_claim(claim_by_id("C13"), params)
        assert str(exc.value) == (
            "claim C13 at base=complete,n=12,mode=fresh: graph has 67 vertices; "
            "solve is limited to 64"
        )
        # the solver's own cap refuses the subdivision, before any search
        assert [g.n for g in solver_calls] == [12, 67]

    def test_cactus(self):
        v = check_claim(claim_by_id("C14"), {"cycles": [3, 4, 5]})
        assert (v.predicted, v.verdict) == (2, "MATCH")

    def test_verdict_definition(self):
        v = check_claim(claim_by_id("C11"), {"r": 3})
        assert (v.verdict == "MATCH") == (v.predicted == v.exact)

    def test_exact_value_comes_from_solver(self):
        lg = generate(FamilySpec("windmill", {"n": 3, "r": 4}))
        v = check_claim(claim_by_id("C10"), {"n": 3, "r": 4})
        assert v.exact == sparing_exact(lg.graph).value

    def test_instance_over_the_cap_is_refused_before_any_solve(self, monkeypatch):
        import sparing.claims

        calls = []
        monkeypatch.setattr(sparing.claims, "sparing_exact", calls.append)
        with pytest.raises(TooLarge) as exc:
            check_claim(claim_by_id("C3"), {"a": 35, "b": 30})
        assert str(exc.value) == (
            "claim C3 at a=35,b=30: complete_bipartite needs 65 vertices; graphs are limited to 64"
        )
        assert calls == []

    def test_build_refusal_names_the_claim_and_point(self):
        params = {"base": FamilySpec("cycle", {"n": 30}), "mode": "fresh"}
        with pytest.raises(TooLarge) as exc:
            check_claim(claim_by_id("C13"), params)
        assert str(exc.value) == (
            "claim C13 at base=cycle,n=30,mode=fresh: certification needs 29 or fewer vertices"
        )

    def test_domain_violation_raises(self):
        with pytest.raises(DomainError):
            check_claim(claim_by_id("C16"), {"m": 4, "n": 1})

    @pytest.mark.parametrize(
        "claim_id,params,err",
        [
            ("C1", {"n": 4.0}, "C1: n must be an integer"),
            ("C3", {"a": 1}, "C3 requires parameter b"),
            ("C9", {"cliques": [3, "4"]}, "C9: cliques must be a non-empty list of integers"),
            ("C14", {"cycles": ()}, "C14: cycles must be a non-empty list of integers"),
        ],
    )
    def test_parameter_types_are_the_family_checks(self, claim_id, params, err):
        with pytest.raises(DomainError, match=f"^{err}$"):
            check_claim(claim_by_id(claim_id), params)

    @pytest.mark.parametrize(
        "claim_id,params,err",
        [
            ("C1", {"n": 0}, "C1 requires n >= 1"),
            ("C2", {"n": 4}, "C2 requires odd n >= 3"),
            ("C3", {"a": 1, "b": 0}, "C3 requires a >= 1 and b >= 1"),
            ("C4", {"n": 2}, "C4 requires n >= 3"),
            ("C5", {"r": 0, "s": 1}, "C5 requires r >= 1 and s >= 1"),
            ("C6", {"r": 1, "s": 0}, "C6 requires r >= 1 and s >= 1"),
            ("C7", {"x": 1, "y": 0, "z": 1}, "C7 requires x >= 1 and y >= 1 and z >= 1"),
            ("C8", {"a": 0, "b": 1, "c": 1}, "C8 requires a >= 1 and b >= 1 and c >= 1"),
            ("C9", {"cliques": [2, 1]}, "C9 requires all clique sizes >= 2"),
            ("C10", {"n": 1, "r": 2}, "C10 requires n >= 2 and r >= 2"),
            ("C11", {"r": 1}, "C11 requires r >= 2"),
            ("C12", {"base": "cycle"}, "C12 requires a 'base' FamilySpec parameter"),
            (
                "C13",
                {"base": FamilySpec("cycle", {"n": 3}), "mode": "both"},
                "C13 requires mode in {fresh, induced}",
            ),
            ("C14", {"cycles": [2]}, "C14 requires all cycle lengths >= 3"),
            ("C15", {"m": 2}, "C15 requires m >= 3"),
            ("C16", {"m": 3, "n": 1}, "C16 requires m >= 3 and n >= 2"),
        ],
    )
    def test_range_messages(self, claim_id, params, err):
        with pytest.raises(DomainError) as exc:
            check_claim(claim_by_id(claim_id), params)
        assert str(exc.value) == err


# the least value of each parameter of every claim that states no range of
# its own: its family's, or its family's list's for each item it names
CLAIM_LEAST = {
    "C1": {"n": 1},
    "C3": {"a": 1, "b": 1},
    "C4": {"n": 3},
    "C5": {"r": 1, "s": 1},
    "C6": {"r": 1, "s": 1},
    "C7": {"x": 1, "y": 1, "z": 1},
    "C8": {"a": 1, "b": 1, "c": 1},
    "C9": {"cliques": 2},
    "C10": {"n": 2, "r": 2},
    "C11": {"r": 2},
    "C14": {"cycles": 3},
    "C15": {"m": 3},
}


class TestClaimDomainIsFamilyDomain:
    def test_every_claim_on_a_family_is_listed(self):
        # C2 and C16 narrow their family's range; C12 and C13 have no family
        on_a_family = {c.id for c in catalog() if c.family in FAMILY_PARAMS}
        assert on_a_family - {"C2", "C16"} == set(CLAIM_LEAST)

    @pytest.mark.parametrize(
        "claim_id,key", [(cid, key) for cid, least in CLAIM_LEAST.items() for key in least]
    )
    def test_least_value_is_the_edge(self, claim_id, key):
        claim = claim_by_id(claim_id)
        least = CLAIM_LEAST[claim_id]

        def point(value):
            p = {**least, key: value}
            return {k: [v] if k in LIST_PARAMS else v for k, v in p.items()}

        at, below = point(least[key]), point(least[key] - 1)
        assert claim._point(at) == at
        assert claim.build(claim, at).graph.n >= 1
        with pytest.raises(DomainError):
            claim._point(below)
        with pytest.raises(InvalidParam):
            claim.build(claim, below)


class TestClaimSoundnessSweep:
    """Claims with sound proofs match the solver across their desk-scale domains."""

    def test_complete_graphs(self):
        for n in range(3, 9):
            assert check_claim(claim_by_id("C1"), {"n": n}).verdict == "MATCH"

    def test_odd_cycles(self):
        for n in range(3, 14, 2):
            assert check_claim(claim_by_id("C2"), {"n": n}).verdict == "MATCH"

    def test_bipartite(self):
        for a in range(1, 5):
            for b in range(a, 5):
                assert check_claim(claim_by_id("C3"), {"a": a, "b": b}).verdict == "MATCH"

    def test_tripartite(self):
        for a in range(1, 4):
            for b in range(a, 4):
                for c in range(b, 4):
                    v = check_claim(claim_by_id("C8"), {"a": a, "b": b, "c": c})
                    assert v.verdict == "MATCH"

    def test_windmills_and_friendship(self):
        for n in (3, 4):
            for r in (2, 3):
                assert check_claim(claim_by_id("C10"), {"n": n, "r": r}).verdict == "MATCH"
        for r in (2, 3, 4):
            assert check_claim(claim_by_id("C11"), {"r": r}).verdict == "MATCH"

    def test_cones(self):
        for m in (3, 4, 5):
            for n in (2, 3):
                assert check_claim(claim_by_id("C16"), {"m": m, "n": n}).verdict == "MATCH"

    def test_block_chains(self):
        for sizes in ([2], [3], [4, 2], [3, 3, 3], [4, 4], [2, 3, 4]):
            assert check_claim(claim_by_id("C9"), {"cliques": sizes}).verdict == "MATCH"

    def test_cacti(self):
        for lengths in ([3], [4], [5, 5], [3, 4], [3, 3, 5], [4, 4, 4]):
            assert check_claim(claim_by_id("C14"), {"cycles": lengths}).verdict == "MATCH"
