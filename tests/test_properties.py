import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import independent_sets, validate
from sparing.families import make, random_graph
from sparing.graphs import (
    edges_within,
    graph_from_edges,
    is_independent,
    shadow,
    subdivide_edges,
)
from sparing.labels import (
    MAX_LABEL_VALUE,
    Failure,
    FailureKind,
    mono_edges,
    read_labeling,
    sumset,
    verify_weak,
    write_labeling,
)
from sparing.solver import construct_witness, sparing_bruteforce, sparing_exact

label_sets = st.frozensets(st.integers(min_value=0, max_value=100), min_size=1, max_size=5).map(
    lambda s: tuple(sorted(s))
)


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return graph_from_edges(n, edges)


@given(label_sets, label_sets)
def test_sumset_commutative(a, b):
    assert sumset(a, b) == sumset(b, a)


@given(label_sets)
def test_sumset_zero_identity(a):
    assert sumset(a, (0,)) == a


@given(label_sets, label_sets)
def test_sumset_size_bounds(a, b):
    size = len(sumset(a, b))
    assert max(len(a), len(b)) <= size <= len(a) * len(b)


@given(label_sets, label_sets)
def test_sumset_size_hits_max_exactly_when_one_side_is_singleton(a, b):
    # the lemma forcing one singleton endpoint on every weakly labeled edge
    assert (len(sumset(a, b)) == max(len(a), len(b))) == (min(len(a), len(b)) == 1)


@given(small_graphs())
def test_generated_graphs_stay_symmetric_and_loopless(g):
    validate(g)


@given(small_graphs(), st.data())
def test_edges_within_monotone_under_inclusion(g, data):
    vertices = list(range(g.n))
    small = set(data.draw(st.sets(st.sampled_from(vertices))) if vertices else set())
    big = small | set(data.draw(st.sets(st.sampled_from(vertices))) if vertices else set())
    assert len(edges_within(g, big)) >= len(edges_within(g, small))


def pairwise_edges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


@given(small_graphs(), st.data())
def test_edge_listing_matches_the_pairwise_definition(g, data):
    inside = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    assert g.edges() == pairwise_edges(g)
    assert edges_within(g, inside) == [(u, v) for u, v in pairwise_edges(g) if {u, v} <= inside]


def collision_pairs(kind, items, label_of):
    """Every pair of ``items`` sharing a label: labels in order of first use,
    then the pair's positions in ``items``."""
    first = {}
    for i, item in enumerate(items):
        first.setdefault(label_of(item), i)
    found = [
        ((first[label_of(a)], i, j), Failure(kind, (a, b)))
        for i, a in enumerate(items)
        for j, b in enumerate(items)
        if i < j and label_of(a) == label_of(b)
    ]
    return [failure for _, failure in sorted(found, key=lambda x: x[0])]


# labels drawn from a small pool, so that vertex and edge labels repeat and
# edges join two non-singletons
label_pools = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=3,
    max_size=4,
)


@given(small_graphs(max_n=7), label_pools, st.data())
def test_verify_weak_matches_the_pairwise_definition(g, pool, data):
    f = {v: data.draw(st.sampled_from(pool)) for v in range(g.n)}
    edges = pairwise_edges(g)
    sums = {e: sumset(f[e[0]], f[e[1]]) for e in edges}
    failures = collision_pairs(FailureKind.VERTEX_COLLISION, list(range(g.n)), f.get)
    failures += collision_pairs(FailureKind.EDGE_COLLISION, edges, sums.get)
    failures += [
        Failure(FailureKind.WEAK_CONDITION_VIOLATED, (e,))
        for e in edges
        if len(sums[e]) != max(len(f[e[0]]), len(f[e[1]]))
    ]
    verdict = verify_weak(g, f)
    assert verdict.failures == tuple(failures)
    assert verdict.ok == (not failures)
    assert verdict.mono == tuple(e for e in edges if len(sums[e]) == 1)


# values that are not labels, each made from a label
non_labels = st.one_of(
    st.just(()),
    label_sets.map(list),
    label_sets.filter(lambda lab: len(lab) > 1).map(lambda lab: lab[::-1]),
    label_sets.map(lambda lab: lab[:1] + lab),
    label_sets.map(lambda lab: (-1, *lab)),
    label_sets.map(lambda lab: (*lab, MAX_LABEL_VALUE + 1)),
    label_sets.map(lambda lab: (*lab[:-1], float(lab[-1]))),
    label_sets.map(lambda lab: (*lab[:-1], bool(lab[-1] % 2))),
)


@given(small_graphs(max_n=7), label_pools, non_labels, st.data())
def test_a_labeling_with_one_non_label_is_refused(g, pool, bad, data):
    f = {v: data.draw(st.sampled_from(pool)) for v in range(g.n)}
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    f[v] = bad
    with pytest.raises(ValueError, match=f"^label of vertex {v}: "):
        verify_weak(g, f)
    with pytest.raises(ValueError, match=f"^label of vertex {v}: "):
        write_labeling(g.n, f)


wide_labels = st.frozensets(
    st.integers(min_value=0, max_value=MAX_LABEL_VALUE), min_size=1, max_size=5
).map(lambda s: tuple(sorted(s)))


@given(st.lists(wide_labels, max_size=9))
def test_a_written_labeling_reads_back(items):
    f = dict(enumerate(items))
    assert read_labeling(write_labeling(len(f), f)) == (len(f), f)


@given(small_graphs())
def test_shadow_edge_count_is_base_plus_degree_sum(g):
    degree_sum = sum(g.degree(v) for v in range(g.n))
    s = shadow(g)
    validate(s)
    assert s.edge_count == g.edge_count + degree_sum == 3 * g.edge_count


@given(small_graphs())
def test_shadow_matches_its_definition(g):
    n = g.n
    twins = [(u, n + v) for u, v in g.edges()] + [(v, n + u) for u, v in g.edges()]
    assert shadow(g) == graph_from_edges(2 * n, g.edges() + twins)


@given(small_graphs(max_n=10))
def test_phi_is_zero_exactly_on_two_colorable_graphs(g):
    # phi is 0 exactly on the graphs that have a proper 2-coloring
    colorable = any(
        all(color[u] != color[v] for u, v in g.edges())
        for color in product((0, 1), repeat=g.n)
    )
    assert (sparing_exact(g).value == 0) == colorable


@given(small_graphs(), st.data())
def test_subdivision_counts(g, data):
    edges = g.edges()
    chosen = list(data.draw(st.sets(st.sampled_from(edges))) if edges else set())
    h = subdivide_edges(g, chosen)
    validate(h)
    assert h.n == g.n + len(chosen)
    assert h.edge_count == g.edge_count + len(chosen)


@settings(deadline=None)
@given(small_graphs(max_n=8))
def test_exact_solver_matches_oracle(g):
    b = sparing_bruteforce(g)
    e = sparing_exact(g)
    assert (b.value, b.witness, b.mono) == (e.value, e.witness, e.mono)


@settings(deadline=None)
@given(small_graphs(max_n=8), st.data())
def test_any_independent_set_is_realizable(g, data):
    candidates = [s for s in independent_sets(g)]
    chosen = data.draw(st.sampled_from(candidates))
    labeling = construct_witness(g, chosen)
    assert verify_weak(g, labeling).ok
    complement = [v for v in range(g.n) if v not in chosen]
    assert mono_edges(g, labeling) == edges_within(g, complement)


def test_weak_labelings_always_have_independent_nonsingleton_set():
    # randomized labelings, filtered through the verifier
    rng = random.Random(20260810)
    passed = 0
    for trial in range(400):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), seed=trial)
        labeling = {}
        used = set()
        for v in range(n):
            base = rng.randrange(1, 500)
            while base in used:
                base = rng.randrange(1, 500)
            used.add(base)
            if rng.random() < 0.35:
                labeling[v] = (base, base + rng.randrange(500, 900))
            else:
                labeling[v] = (base,)
        if verify_weak(g, labeling).ok:
            passed += 1
            non_singletons = [v for v in range(n) if len(labeling[v]) > 1]
            assert is_independent(g, non_singletons)
    assert passed >= 50  # the filter must keep the test meaningful


def test_cycle_parity_over_all_weak_patterns():
    # every weak pattern on a cycle keeps the mono count congruent to n mod 2
    for n in range(3, 11):
        g = make("cycle", n=n).graph
        patterns = 0
        for chosen in independent_sets(g):
            labeling = construct_witness(g, chosen)
            assert verify_weak(g, labeling).ok
            assert len(mono_edges(g, labeling)) % 2 == n % 2
            patterns += 1
        assert patterns >= n + 1
