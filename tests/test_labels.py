import re
from collections.abc import Mapping

import pytest

from helpers import Small
from sparing import labels
from sparing.errors import GraphFormatError, IndexOutOfRange, MissingLabel, TooLarge
from sparing.families import make
from sparing.graphs import graph_from_edges
from sparing.labels import (
    MAX_LABELING_TEXT,
    FailureKind,
    induced_edge_labels,
    make_label,
    mono_edges,
    read_labeling,
    sumset,
    verify_weak,
    write_labeling,
)


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def refused(v, reason):
    """The ValueError a label route raises for vertex ``v``'s label."""
    return pytest.raises(ValueError, match=f"^label of vertex {v}: {re.escape(reason)}$")


class TestMakeLabel:
    def test_sorts_and_dedupes(self):
        assert make_label([3, 1, 3]) == (1, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_label([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_label([-1, 2])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([], "label sets must be non-empty"),
            ([2, -1, 2], "label sets are drawn from the non-negative integers"),
            ([2**64, 1], "label element exceeds 64-bit range"),
        ],
    )
    def test_messages(self, values, message):
        with pytest.raises(ValueError) as exc:
            make_label(values)
        assert str(exc.value) == message

    def test_largest_element(self):
        assert make_label([2**64 - 1, 0, 0]) == (0, 2**64 - 1)

    # a bool is refused before the set would merge True into 1
    @pytest.mark.parametrize(
        "values", [[1.5], [1.5, 2], [True], [1, True], ["1"], [Small.ONE]], ids=repr
    )
    def test_rejects_an_element_that_is_not_an_exact_int(self, values):
        with pytest.raises(ValueError, match="^label elements must be integers$"):
            make_label(values)


# each kind of value that is not a label, with the reason every label route gives
NON_LABELS = [
    ((True,), "label elements must be integers"),
    ((1, True), "label elements must be integers"),
    ((0.5,), "label elements must be integers"),
    ((1, 2.0), "label elements must be integers"),
    ((Small.ONE,), "label elements must be integers"),
    ((-1, 2), "label sets are drawn from the non-negative integers"),
    ((1, 2**64), "label element exceeds 64-bit range"),
    ((), "label sets must be non-empty"),
    ((3, 1), "label elements must strictly increase"),
    ((3, -1), "label elements must strictly increase"),
    ((5, 5), "label elements must strictly increase"),
    ([1, 2], "label sets must be tuples"),
    (5, "label sets must be tuples"),
]
LABEL_ROUTES = {
    "verify_weak": lambda n, f: verify_weak(path(n), f),
    "induced_edge_labels": lambda n, f: induced_edge_labels(path(n), f),
    "mono_edges": lambda n, f: mono_edges(path(n), f),
    "write_labeling": write_labeling,
}


class TestLabelRule:
    """One rule for what a label is, kept by every route that takes labels."""

    @pytest.mark.parametrize("route", LABEL_ROUTES)
    @pytest.mark.parametrize("bad, reason", NON_LABELS, ids=repr)
    def test_every_route_refuses_each_kind_of_non_label(self, route, bad, reason):
        f = {0: (1,), 1: bad, 2: (4, 8)}
        with refused(1, reason):
            LABEL_ROUTES[route](3, f)

    @pytest.mark.parametrize("route", LABEL_ROUTES)
    def test_the_first_vertex_that_breaks_the_rule_is_named(self, route):
        f = {0: (1,), 1: (2,), 2: (3, 3), 3: (0.5,)}
        with refused(2, "label elements must strictly increase"):
            LABEL_ROUTES[route](4, f)

    @pytest.mark.parametrize(
        "f",
        [{0: (0.5,), 1: (True,)}, {0: (-1,), 1: (2,)}, {0: (3, 1), 1: (10,)}],
        ids=repr,
    )
    def test_tuples_that_once_passed_verification_are_refused(self, f):
        with pytest.raises(ValueError, match="^label of vertex 0: "):
            verify_weak(path(2), f)

    def test_the_writer_never_writes_what_its_reader_refuses(self):
        with refused(0, "label elements must be integers"):
            write_labeling(2, {0: (0.5,), 1: (True,)})

    def test_a_missing_label_is_reported_before_a_non_label(self):
        with pytest.raises(MissingLabel):
            verify_weak(path(3), {0: (True,), 1: (1,)})
        with pytest.raises(MissingLabel):
            write_labeling(3, {0: (True,), 1: (1,)})

    def test_a_non_label_is_reported_before_the_sum_pairs_cap(self):
        f = {0: tuple(range(10_000)), 1: tuple(range(0, 10**8, 10**4)) + (-1,)}
        with refused(1, "label elements must strictly increase"):
            verify_weak(path(2), f)

    def test_labels_up_to_the_largest_element_pass(self):
        f = {0: (0,), 1: (1, 2**64 - 1)}
        assert verify_weak(path(2), f).ok
        assert read_labeling(write_labeling(2, f)) == (2, f)


class TestSumset:
    def test_zero_is_identity(self):
        assert sumset((0,), (2, 5)) == (2, 5)

    def test_overlapping_sums_merge(self):
        a, b = (1, 2), (3, 4)
        expected = tuple(sorted({x + y for x in a for y in b}))
        assert expected == (4, 5, 6)
        assert sumset(a, b) == expected

    def test_singletons(self):
        assert sumset((1,), (3,)) == (4,)

    def test_commutative(self):
        assert sumset((1, 5), (2, 3)) == sumset((2, 3), (1, 5))


class TestInducedEdgeLabels:
    def test_single_edge(self):
        g = path(2)
        assert induced_edge_labels(g, {0: (1,), 1: (2, 3)}) == {(0, 1): (3, 4)}

    def test_triangle_singletons(self):
        g = make("complete", n=3).graph
        f = {0: (1,), 1: (2,), 2: (3,)}
        assert induced_edge_labels(g, f) == {(0, 1): (3,), (0, 2): (4,), (1, 2): (5,)}

    def test_edgeless(self):
        g = graph_from_edges(3, [])
        assert induced_edge_labels(g, {0: (1,), 1: (2,), 2: (3,)}) == {}

    def test_an_unsorted_or_repeating_tuple_is_refused(self):
        # neither is a label, so no sum set is built for it
        f = {0: (3, 1), 1: (10,), 2: (2, 2)}
        with refused(0, "label elements must strictly increase"):
            induced_edge_labels(path(3), f)
        f[0] = (1, 3)
        with refused(2, "label elements must strictly increase"):
            verify_weak(path(3), f)

    def test_partial_labeling_rejected(self):
        with pytest.raises(MissingLabel):
            induced_edge_labels(path(3), {0: (1,), 1: (2,)})

    def test_sum_pairs_over_the_cap_refused_before_any_sum_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr(labels, "sumset", lambda a, b: calls.append((a, b)))
        f = {0: tuple(range(10_000)), 1: tuple(range(0, 10**8, 10**4))}
        with pytest.raises(TooLarge, match="need 100000000 pairs .* limited to 1000000$"):
            induced_edge_labels(path(2), f)
        assert calls == []

    def test_sum_pairs_cap_counts_every_edge(self, monkeypatch):
        monkeypatch.setattr(labels, "MAX_SUM_PAIRS", 6)
        f = {0: (1, 2), 1: (4,), 2: (8, 16, 32, 64)}  # 2 + 4 pairs: at the cap
        edge_labels = induced_edge_labels(path(3), f)
        assert edge_labels == {(0, 1): (5, 6), (1, 2): (12, 20, 36, 68)}
        f[0] = (1, 2, 3)  # 3 + 4 pairs, though each edge alone fits
        with pytest.raises(TooLarge, match="need 7 pairs .* limited to 6$"):
            induced_edge_labels(path(3), f)


class TestVerifyIasi:
    """The set-indexer (IASI) half of verify_weak: vertex and edge collisions.
    These labels are singletons, so no cardinality failure joins them."""

    def test_distinct_singletons_ok(self):
        assert verify_weak(path(2), {0: (1,), 1: (2,)}).ok

    def test_edge_collision_on_path(self):
        # both end edges get the sum set {3}
        verdict = verify_weak(path(4), {0: (1,), 1: (2,), 2: (3,), 3: (0,)})
        assert not verdict.ok
        kinds = {f.kind for f in verdict.failures}
        assert kinds == {FailureKind.EDGE_COLLISION}
        assert verdict.failures[0].where == ((0, 1), (2, 3))

    def test_vertex_collision(self):
        verdict = verify_weak(path(2), {0: (1,), 1: (1,)})
        assert not verdict.ok
        assert verdict.failures[0].kind is FailureKind.VERTEX_COLLISION

    def test_all_collisions_enumerated(self):
        g = graph_from_edges(3, [])
        verdict = verify_weak(g, {0: (7,), 1: (7,), 2: (7,)})
        assert len(verdict.failures) == 3

    def test_collision_pairs_over_the_cap_refused_before_any_failure(self, monkeypatch):
        monkeypatch.setattr(labels, "MAX_COLLISION_PAIRS", 3)
        k5 = make("complete", n=5).graph
        f = {v: (v,) for v in range(5)}  # the sums 3, 4 and 5 each label two edges
        assert len(verify_weak(k5, f).failures) == 3  # at the cap
        built = []
        monkeypatch.setattr(labels, "Failure", lambda *args: built.append(args))
        monkeypatch.setattr(labels, "MAX_COLLISION_PAIRS", 2)
        with pytest.raises(TooLarge, match="give 3 EdgeCollision pairs; .* at most 2$"):
            verify_weak(k5, f)
        with pytest.raises(TooLarge, match="give 6 VertexCollision pairs; .* at most 2$"):
            verify_weak(graph_from_edges(4, []), {v: (7,) for v in range(4)})
        assert built == []


class TestVerifyWeak:
    def test_singleton_against_pair_ok(self):
        assert verify_weak(path(2), {0: (1,), 1: (2, 3)}).ok

    def test_two_pairs_violate(self):
        # |{4,5,6}| = 3, but max(|{1,2}|, |{3,4}|) = 2
        verdict = verify_weak(path(2), {0: (1, 2), 1: (3, 4)})
        assert not verdict.ok
        assert verdict.failures[-1].kind is FailureKind.WEAK_CONDITION_VIOLATED
        assert verdict.failures[-1].where == ((0, 1),)

    def test_triangle_all_singletons_ok(self):
        g = make("complete", n=3).graph
        verdict = verify_weak(g, {0: (1,), 1: (2,), 2: (3,)})
        assert verdict.ok

    def test_aligned_pairs_can_collapse_sums(self):
        # {0,1}+{2,3} = {2,3,4} has 3 elements, not max cardinality 2
        verdict = verify_weak(path(2), {0: (0, 1), 1: (2, 3)})
        assert not verdict.ok

    def test_iasi_failures_first_then_weak_ones(self):
        # vertices 0 and 2 collide, edges (0,1) and (1,2) collide, and both
        # edges join two pairs
        f = {0: (1, 2), 1: (3, 4), 2: (1, 2)}
        weak = verify_weak(path(3), f)
        kinds = [failure.kind for failure in weak.failures]
        assert kinds == [
            FailureKind.VERTEX_COLLISION,
            FailureKind.EDGE_COLLISION,
            FailureKind.WEAK_CONDITION_VIOLATED,
            FailureKind.WEAK_CONDITION_VIOLATED,
        ]
        assert [failure.where for failure in weak.failures[2:]] == [((0, 1),), ((1, 2),)]

    def test_failing_labeling_still_reports_mono_edges(self):
        # vertices 0 and 2 collide, so do the mono edges (0,1) and (1,2);
        # edge (3,4) joins two pairs into four sums
        f = {0: (1,), 1: (2,), 2: (1,), 3: (1, 2), 4: (3, 5)}
        weak = verify_weak(path(5), f)
        assert [failure.kind for failure in weak.failures] == [
            FailureKind.VERTEX_COLLISION,
            FailureKind.EDGE_COLLISION,
            FailureKind.WEAK_CONDITION_VIOLATED,
        ]
        assert weak.mono == ((0, 1), (1, 2))
        assert mono_edges(path(5), f) == [(0, 1), (1, 2)]

    def test_a_repeated_element_is_refused_not_judged_mono(self):
        # (5, 5) is no label; its sum set with (1,) would be the singleton {6}
        with refused(1, "label elements must strictly increase"):
            verify_weak(path(2), {0: (1,), 1: (5, 5)})

    @pytest.mark.parametrize("empty", [0, 1])
    def test_an_empty_tuple_is_refused_from_either_endpoint(self, empty):
        labeling = {0: (1,), 1: (1,), empty: ()}
        with refused(empty, "label sets must be non-empty"):
            verify_weak(path(2), labeling)

    def test_two_labels_of_two_or_more_elements_always_violate(self):
        # |A+B| >= |A| + |B| - 1, so even sum sets that overlap most are too large
        for a, b in [((0, 1), (1, 2)), ((0, 2, 4), (0, 2)), ((0, 1, 2), (10, 11, 12))]:
            verdict = verify_weak(path(2), {0: a, 1: b})
            assert verdict.mono == ()
            assert [(f.kind, f.where) for f in verdict.failures] == [
                (FailureKind.WEAK_CONDITION_VIOLATED, ((0, 1),))
            ]


class TestMonoEdges:
    def test_all_singletons(self):
        g = make("complete", n=3).graph
        assert mono_edges(g, {0: (1,), 1: (2,), 2: (3,)}) == [(0, 1), (0, 2), (1, 2)]

    def test_no_mono_edge(self):
        assert mono_edges(path(2), {0: (1,), 1: (2, 3)}) == []

    def test_alternating_cycle(self):
        g = make("cycle", n=4).graph
        f = {0: (1, 2), 1: (4,), 2: (16, 32), 3: (64,)}
        assert mono_edges(g, f) == []

    def test_matches_singleton_vertex_rule_when_weak(self):
        g = make("complete_sun", n=3).graph
        f = {v: (4**v,) for v in range(g.n)}
        f[0] = (1, 2)
        assert verify_weak(g, f).ok
        singletons = {v for v in range(g.n) if len(f[v]) == 1}
        from sparing.graphs import edges_within

        assert mono_edges(g, f) == edges_within(g, singletons)


class TestLabelingFile:
    def test_round_trip(self):
        f = {0: (1, 2), 1: (4,), 2: (16,)}
        text = write_labeling(3, f)
        n, back = read_labeling(text)
        assert n == 3 and back == f
        assert write_labeling(n, back) == text

    def test_missing_vertex(self):
        with pytest.raises(GraphFormatError):
            read_labeling('{"vertices": 3, "labels": {"0": [1], "1": [2]}}')

    def test_unsorted_label(self):
        with pytest.raises(GraphFormatError):
            read_labeling('{"vertices": 1, "labels": {"0": [2, 1]}}')

    def test_empty_label(self):
        with pytest.raises(GraphFormatError):
            read_labeling('{"vertices": 1, "labels": {"0": []}}')

    def test_negative_label(self):
        with pytest.raises(GraphFormatError):
            read_labeling('{"vertices": 1, "labels": {"0": [-4]}}')

    def test_not_json(self):
        with pytest.raises(GraphFormatError):
            read_labeling("p 3 0\n")

    @pytest.mark.parametrize("n", [65, 1000000000000])
    def test_vertex_count_over_the_cap(self, n):
        doc = f'{{"vertices": {n}, "labels": {{}}}}'
        err = f"labeling declares {n} vertices; graphs are limited to 64"
        with pytest.raises(GraphFormatError, match=f"^{err}$"):
            read_labeling(doc)

    @pytest.mark.parametrize("keys", [(0, 1), (0, 1, 3), (0, 1, 2, 3)])
    def test_writer_refuses_keys_other_than_every_vertex(self, keys):
        with pytest.raises(MissingLabel, match=r"^labeling keys must be exactly 0\.\.2$"):
            write_labeling(3, {v: (4**v,) for v in keys})

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_writer_refuses_a_vertex_count_that_is_not_an_exact_int(self, n):
        # True passed the key check of {0: ...} and was written as "vertices": True,
        # which read_labeling refuses; 2.0 raised a bare TypeError from range
        with pytest.raises(IndexOutOfRange, match=f"^vertex count {n!r} is not an integer$"):
            write_labeling(n, {0: (1,), 1: (2,)} if n == 2 else {0: (1,)})

    def test_writer_refuses_a_negative_vertex_count(self):
        with pytest.raises(IndexOutOfRange, match="^vertex count -1 is negative$"):
            write_labeling(-1, {})

    def test_vertex_count_at_the_cap(self):
        f = {v: (v,) for v in range(64)}
        assert read_labeling(write_labeling(64, f)) == (64, f)

    @pytest.mark.parametrize("n", [65, 10**12])
    def test_writer_refuses_a_vertex_count_over_the_cap_before_reading_the_labels(self, n):
        # read_labeling refuses such a file; the mapping is never read
        class Unread(Mapping):
            def _read(self, *args):
                raise AssertionError("the labels were read")

            __getitem__ = __iter__ = __len__ = _read

        err = f"^labeling has {n} vertices; labeling files are limited to 64$"
        with pytest.raises(TooLarge, match=err):
            write_labeling(n, Unread())

    def test_extra_keys(self):
        with pytest.raises(GraphFormatError):
            read_labeling('{"vertices": 1, "labels": {"0": [1]}, "x": 0}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 3 0\n", "labeling is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[]", "labeling must have exactly the keys 'vertices' and 'labels'"),
            ('{"vertices": 1}', "labeling must have exactly the keys 'vertices' and 'labels'"),
            ('{"vertices": true, "labels": {}}', "malformed labeling document"),
            ('{"vertices": -1, "labels": {}}', "malformed labeling document"),
            ('{"vertices": 1.0, "labels": {}}', "malformed labeling document"),
            ('{"vertices": 1, "labels": [[1]]}', "malformed labeling document"),
            ('{"vertices": 65, "labels": {}}',
             "labeling declares 65 vertices; graphs are limited to 64"),
            ('{"vertices": 2, "labels": {"0": [1]}}', "labels must cover exactly the indices 0..1"),
            ('{"vertices": 1, "labels": {"00": [1]}}', "labels must cover exactly the indices 0..0"),
            ('{"vertices": 1, "labels": {"0": 1}}', "label of vertex 0 is not a list of integers"),
            ('{"vertices": 1, "labels": {"0": [1.0]}}', "label of vertex 0 is not a list of integers"),
            ('{"vertices": 1, "labels": {"0": [true]}}', "label of vertex 0 is not a list of integers"),
            ('{"vertices": 1, "labels": {"0": [1, "2"]}}',
             "label of vertex 0 is not a list of integers"),
            ('{"vertices": 1, "labels": {"0": [2, 1]}}', "label of vertex 0 is not strictly increasing"),
            ('{"vertices": 1, "labels": {"0": [1, 1]}}', "label of vertex 0 is not strictly increasing"),
            ('{"vertices": 1, "labels": {"0": [3, -1]}}',
             "label of vertex 0 is not strictly increasing"),
            ('{"vertices": 1, "labels": {"0": []}}', "label of vertex 0: label sets must be non-empty"),
            ('{"vertices": 1, "labels": {"0": [-4, 2]}}',
             "label of vertex 0: label sets are drawn from the non-negative integers"),
            ('{"vertices": 1, "labels": {"0": [1, 18446744073709551616]}}',
             "label of vertex 0: label element exceeds 64-bit range"),
            ('{"vertices": 2, "labels": {"1": [], "0": [2, 1]}}',  # the first label in the file
             "label of vertex 1: label sets must be non-empty"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            read_labeling(text)
        assert str(exc.value) == message

    def test_text_length_cap(self):
        body = '{"vertices": 1, "labels": {"0": [1]}}'
        pad = " " * (MAX_LABELING_TEXT - len(body))  # JSON whitespace
        assert read_labeling(body + pad) == (1, {0: (1,)})
        with pytest.raises(GraphFormatError) as exc:
            read_labeling(body + pad + "\n")
        assert str(exc.value) == f"labeling text is longer than {MAX_LABELING_TEXT} characters"

    def test_largest_label_element(self):
        assert read_labeling('{"vertices": 1, "labels": {"0": [0, 18446744073709551615]}}') == (
            1, {0: (0, 2**64 - 1)}
        )
