import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from helpers import Small, disjoint_union, validate
from sparing import graphs
from sparing.errors import EdgeNotFound, GraphFormatError, IndexOutOfRange, SelfLoop, TooLarge
from sparing.families import make, random_graph
from sparing.graphs import (
    MAX_GRAPH_TEXT,
    SOLVE_MAX_VERTICES,
    edges_within,
    edges_within_mask,
    graph_from_edges,
    is_independent,
    read_graph,
    shadow,
    subdivide_edges,
    triangles_through,
    write_graph,
)
from sparing.labels import verify_weak
from sparing.solver import solve_and_certify, sparing_exact


def cycle(n):
    return make("cycle", n=n).graph


def complete(n):
    return make("complete", n=n).graph


class TestGraphFromEdges:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_edges_collapse(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_endpoint_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            graph_from_edges(4, [(0, 4)])

    @pytest.mark.parametrize(
        "edge,bad",
        [
            ((0, 1.0), "1.0"), ((0, "1"), "'1'"), ((0.0, 2), "0.0"),
            # a bool or other int subclass is refused too, not read as 0 or 1
            ((0, True), "True"), ((False, 2), "False"), ((0, Small.ONE), "<Small.ONE: 1>"),
        ],
    )
    def test_endpoint_must_be_an_int(self, edge, bad):
        message = f"vertex {bad} of edge ({edge[0]!r},{edge[1]!r}) is not an integer"
        with pytest.raises(IndexOutOfRange, match=re.escape(message)):
            graph_from_edges(3, [(0, 2), edge])

    def test_an_edge_that_is_not_a_pair_is_not_named(self):
        with pytest.raises(TypeError, match="cannot unpack"):
            graph_from_edges(3, [(0, 2), 1])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            graph_from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("n", [True, False, 2.5, 2.0, "3", None, -1, Small.ONE])
    def test_vertex_count_must_be_a_non_negative_int(self, n):
        # a bool would pass as an int: Graph(n=True) writes 'p True 0', which read_graph refuses
        with pytest.raises(IndexOutOfRange):
            graph_from_edges(n, [])

    def test_generated_graphs_are_valid(self):
        for g in (complete(5), cycle(7), make("complete_sun", n=4).graph):
            validate(g)


# every route that takes a vertex of a graph, called with the vertex v
VERTEX_ROUTES = {
    "adjacency_mask": lambda g, v: g.adjacency_mask(v),
    "degree": lambda g, v: g.degree(v),
    "has_edge first": lambda g, v: g.has_edge(v, 2),
    "has_edge second": lambda g, v: g.has_edge(0, v),
    "is_independent": lambda g, v: is_independent(g, [v]),
    "edges_within": lambda g, v: edges_within(g, [0, v]),
    "triangles_through": lambda g, v: triangles_through(g, v),
    "subdivide_edges first": lambda g, v: subdivide_edges(g, [(v, 2)]),
    "subdivide_edges second": lambda g, v: subdivide_edges(g, [(0, v)]),
}


@pytest.mark.parametrize("route", VERTEX_ROUTES)
@pytest.mark.parametrize("v", [True, False, 1.0, "1", Small.ONE], ids=repr)
def test_a_vertex_must_be_an_exact_int(route, v):
    # a bool is not read as the vertex 0 or 1, and a float or str is not a TypeError
    with pytest.raises(IndexOutOfRange, match=f"^vertex {re.escape(repr(v))} not in 0..2$"):
        VERTEX_ROUTES[route](complete(3), v)


@pytest.mark.parametrize(
    "text,value",
    [("5", 5), ("-3", -3), ("007", 7), ("-0", 0), (" 5\t", 5), ("\n\x0b-12\x0c\r", -12)],
)
def test_parse_int_takes_ascii_digits_in_ascii_whitespace(text, value):
    assert graphs.parse_int(text) == value


@pytest.mark.parametrize(
    "text",
    ["+5", "1_0", "\uff15", "\u0663", "\u00a05", "5\u2003", "\x1c5", "", "-", "- 5", "5 5", "1.5"],
)
def test_parse_int_refuses_every_other_spelling(text):
    # int() alone takes the first six: a '+', a '_', non-ASCII digits and whitespace
    with pytest.raises(ValueError):
        graphs.parse_int(text)


class TestIsIndependent:
    def test_complete_pair(self):
        assert not is_independent(complete(4), {0, 1})

    def test_cycle_alternating(self):
        assert is_independent(cycle(4), {0, 2})

    def test_empty_set(self):
        assert is_independent(complete(4), set())

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            is_independent(complete(3), {5})


class TestEdgesWithin:
    def test_clique_subset(self):
        assert len(edges_within(complete(4), {1, 2, 3})) == 3

    def test_path_segment(self):
        assert edges_within(cycle(5), {0, 1, 2}) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert edges_within(complete(4), set()) == []

    def test_full_set_gives_all_edges(self):
        g = make("wheel", m=5).graph
        assert edges_within(g, range(g.n)) == g.edges()

    def test_monotone_under_inclusion(self):
        g = make("complete_sun", n=4).graph
        small = {0, 3, 5}
        for extra in range(g.n):
            bigger = small | {extra}
            assert len(edges_within(g, bigger)) >= len(edges_within(g, small))


def listed_directly(g, m):
    """The edges inside the vertex bitset ``m`` by a double loop over the
    adjacency bitsets, bypassing the shared edge table."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if m >> u & 1 and m >> v & 1 and g._adj[u] >> v & 1
    ]


def assert_table_canonical(rows):
    assert len(rows) == SOLVE_MAX_VERTICES
    for u, row in enumerate(rows):
        assert len(row) == SOLVE_MAX_VERTICES
        assert row[: u + 1] == [None] * (u + 1)
        assert row[u + 1:] == [(u, v) for v in range(u + 1, SOLVE_MAX_VERTICES)]


def table_identity():
    """The ids of the shared table's rows and of every tuple in them."""
    return [id(row) for row in graphs._ROWS] + [id(e) for row in graphs._ROWS for e in row]


class TestSharedEdgeTuples:
    def test_equal_edges_of_different_graphs_are_one_object(self):
        g, h = complete(5), random_graph(40, 0.5, 3)
        listed = {e: e for e in h.edges()}
        common = [e for e in g.edges() if e in listed]
        assert common
        assert all(e is listed[e] for e in common)
        r, s = sparing_exact(g), sparing_exact(complete(6))
        kept = {e: e for e in s.mono}
        assert set(r.mono) <= set(kept)
        assert all(e is kept[e] for e in r.mono)
        assert all(e is listed[e] for e in r.mono if e in listed)
        _, labeling = solve_and_certify(g)
        assert all(e is kept[e] for e in verify_weak(g, labeling).mono)

    def test_table_is_full_right_after_import(self):
        # a fresh interpreter, so that no edge list is made before the check
        code = (
            "from sparing.graphs import SOLVE_MAX_VERTICES as N, _ROWS\n"
            "assert _ROWS == [[None] * (u + 1) + [(u, v) for v in range(u + 1, N)]"
            " for u in range(N)]\n"
            "assert len(_ROWS) == N == 64\n"
        )
        src = str(Path(graphs.__file__).resolve().parent.parent)
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert_table_canonical(graphs._ROWS)

    @pytest.mark.parametrize("order", ["rising", "falling"])
    def test_matches_a_direct_double_loop(self, order):
        before = table_identity()
        sizes = range(SOLVE_MAX_VERTICES + 1)
        for n in sizes if order == "rising" else reversed(sizes):
            for g in (complete(n) if n else graph_from_edges(0, []), random_graph(n, 0.3, n)):
                full = (1 << n) - 1
                assert edges_within_mask(g, full) == listed_directly(g, full)
                odd = full & 0xAAAA_AAAA_AAAA_AAAA
                assert edges_within_mask(g, odd) == listed_directly(g, odd)
        assert_table_canonical(graphs._ROWS)
        assert table_identity() == before

    def test_graphs_above_the_cap_list_the_same_edges(self):
        k12 = complete(12)
        big = subdivide_edges(k12, k12.edges())
        assert big.n == 78
        full = (1 << big.n) - 1
        before = big.edges()
        assert before == listed_directly(big, full)
        for n in (5, 40, SOLVE_MAX_VERTICES):
            complete(n).edges()
        assert big.edges() == before
        assert_table_canonical(graphs._ROWS)

    def test_threads_listing_at_once(self):
        # eight threads released together each list a clique of their own
        # size from the one table, which none of them may change
        graphs_by_thread = [complete(8 * (k + 1)) for k in range(8)]
        failures = []
        before = table_identity()

        def work(g, start):
            try:
                start.wait(timeout=60)
                if g.edges() != listed_directly(g, (1 << g.n) - 1):
                    failures.append(g.n)
            except Exception as exc:  # reported by the assert below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                start = threading.Barrier(len(graphs_by_thread))
                workers = [threading.Thread(target=work, args=(g, start)) for g in graphs_by_thread]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in workers)
                assert failures == []
                assert_table_canonical(graphs._ROWS)
                assert table_identity() == before
        finally:
            sys.setswitchinterval(interval)


class TestIdentity:
    def test_equal_graphs_hash_equal(self):
        a, b = cycle(5), graph_from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, complete(5)}) == 2
        assert {a: "C5"}[b] == "C5"

    def test_repr_gives_the_vertex_and_edge_counts(self):
        assert repr(make("path", n=3).graph) == "Graph(n=3, m=2)"


class TestDisjointUnion:
    def test_two_triangles(self):
        g = disjoint_union(complete(3), complete(3))
        assert (g.n, g.edge_count) == (6, 6)
        assert g.has_edge(3, 4) and not g.has_edge(2, 3)

    def test_with_empty_graph(self):
        g = complete(4)
        u = disjoint_union(g, graph_from_edges(0, []))
        assert u == g

    def test_matching(self):
        p2 = graph_from_edges(2, [(0, 1)])
        g = disjoint_union(p2, p2)
        assert g.edges() == [(0, 1), (2, 3)]


class TestShadow:
    def test_single_edge_becomes_path(self):
        g = shadow(graph_from_edges(2, [(0, 1)]))
        assert g.n == 4
        assert g.edges() == [(0, 1), (0, 3), (1, 2)]

    def test_triangle(self):
        g = shadow(complete(3))
        assert (g.n, g.edge_count) == (6, 9)
        assert all(g.degree(v) == 2 for v in (3, 4, 5))

    def test_edgeless(self):
        g = shadow(graph_from_edges(4, []))
        assert (g.n, g.edge_count) == (8, 0)

    def test_edge_count_is_base_plus_degrees(self):
        for base in (cycle(6), make("wheel", m=5).graph, complete(4)):
            s = shadow(base)
            degree_sum = sum(base.degree(v) for v in range(base.n))
            assert s.edge_count == base.edge_count + degree_sum == 3 * base.edge_count
            validate(s)

    def test_twins_not_adjacent_to_original_or_each_other(self):
        base = cycle(5)
        s = shadow(base)
        for v in range(base.n):
            assert not s.has_edge(v, base.n + v)
            for u in range(v):
                assert not s.has_edge(base.n + u, base.n + v)


class TestSubdivideEdges:
    def test_triangle_becomes_four_cycle(self):
        g = subdivide_edges(complete(3), [(0, 1)])
        assert (g.n, g.edge_count) == (4, 4)
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 3) and g.has_edge(1, 3)
        assert sparing_exact(g).value == 0  # phi is 0 exactly on bipartite graphs

    def test_empty_list_is_identity(self):
        g = make("wheel", m=4).graph
        assert subdivide_edges(g, []) == g

    def test_all_cycle_edges(self):
        g = subdivide_edges(cycle(4), cycle(4).edges())
        assert (g.n, g.edge_count) == (8, 8)
        assert all(g.degree(v) == 2 for v in range(8))
        assert sparing_exact(g).value == 0  # phi is 0 exactly on bipartite graphs

    def test_counts(self):
        base = make("complete_sun", n=4).graph
        targets = base.edges()[:3]
        g = subdivide_edges(base, targets)
        assert g.n == base.n + 3
        assert g.edge_count == base.edge_count + 3
        validate(g)

    def test_missing_edge(self):
        with pytest.raises(EdgeNotFound):
            subdivide_edges(cycle(4), [(0, 2)])

    def test_duplicate_target(self):
        with pytest.raises(EdgeNotFound):
            subdivide_edges(cycle(4), [(0, 1), (0, 1)])


class TestIsBipartite:
    """phi is 0 exactly on bipartite graphs, so ``sparing_exact(g).value == 0``
    is how the tests here and elsewhere ask whether ``g`` is bipartite."""

    def test_even_cycle(self):
        assert sparing_exact(cycle(4)).value == 0

    def test_odd_cycle(self):
        assert sparing_exact(cycle(5)).value != 0

    @pytest.mark.parametrize("n", range(3, 21))
    def test_cycle_parity(self, n):
        assert (sparing_exact(cycle(n)).value == 0) == (n % 2 == 0)


class TestTrianglesThrough:
    @pytest.mark.parametrize("v", range(4))
    def test_k4(self, v):
        assert triangles_through(complete(4), v) == 3

    def test_cycle_is_triangle_free(self):
        assert triangles_through(cycle(5), 0) == 0

    def test_k5(self):
        assert triangles_through(complete(5), 2) == 6

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            triangles_through(complete(4), 9)


class TestTextFormat:
    def test_write(self):
        assert write_graph(complete(3)) == "p 3 3\ne 0 1\ne 0 2\ne 1 2\n"

    def test_round_trip_is_bit_exact(self):
        for g in (complete(5), cycle(9), make("cone", m=4, n=2).graph, graph_from_edges(3, [])):
            text = write_graph(g)
            assert read_graph(text) == g
            assert write_graph(read_graph(text)) == text

    def test_writer_refuses_a_graph_over_the_vertex_cap(self):
        # the shadow of C40 has 80 vertices, which read_graph would refuse
        err = "^graph has 80 vertices; graph files are limited to 64$"
        with pytest.raises(TooLarge, match=err):
            write_graph(shadow(cycle(40)))

    def test_header_at_the_vertex_cap(self):
        assert read_graph(f"p {SOLVE_MAX_VERTICES} 0\n") == graph_from_edges(SOLVE_MAX_VERTICES, [])

    def test_comments_before_header(self):
        g = read_graph("# a comment\n# another\np 2 1\ne 0 1\n")
        assert g == graph_from_edges(2, [(0, 1)])

    @pytest.mark.parametrize(
        "text",
        [
            "e 0 1\n",                      # edge before header
            "p 2 1\n",                      # promised edge missing
            "p 2 1\ne 1 0\n",               # u >= v
            "p 2 2\ne 0 1\ne 0 1\n",        # duplicate
            "p 2 1\ne 0 5\n",               # endpoint out of range
            "p two 1\ne 0 1\n",             # junk header
            "p 2 1\nq 0 1\n",               # unknown record
            "p 65 0\n",                     # one vertex over the cap
            "p 1000000000000 0\n",          # refused before anything is allocated
        ],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(GraphFormatError):
            read_graph(text)

    def test_edges_in_any_order(self):
        # the writer sorts the edges; the reader does not require it
        assert read_graph("p 3 2\ne 1 2\ne 0 1\n") == graph_from_edges(3, [(0, 1), (1, 2)])

    def test_zero_padded_endpoints_read_as_their_canonical_text(self):
        # "e 00 02" misses the edge-line table and is split and parsed
        assert read_graph("p 3 1\ne 00 02\n") == read_graph("p 3 1\ne 0 2\n")

    @pytest.mark.parametrize("line", ["e 0  2", " e 0 2", "e 0 2 ", "e\t0 2"])
    def test_edge_lines_spaced_otherwise_read_as_the_canonical_line(self, line):
        assert read_graph(f"p 3 1\n{line}\n") == read_graph("p 3 1\ne 0 2\n")

    def test_edge_line_table_maps_each_canonical_line_to_its_shared_edge(self):
        table = graphs._EDGE_LINES
        assert len(table) == SOLVE_MAX_VERTICES * (SOLVE_MAX_VERTICES - 1) // 2
        for line, edge in table.items():
            u, v = edge
            assert line == f"e {u} {v}" and type(u) is type(v) is int and 0 <= u < v
            assert edge is graphs._ROWS[u][v]
        assert f"e 0 {SOLVE_MAX_VERTICES}" not in table

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 2 0\n# late\n", "line 2: comment after header"),
            ("p 2 0\np 2 0\n", "line 2: duplicate header"),
            ("p 2\n", "line 1: expected 'p <n> <m>'"),
            ("p 2 one\n", "line 1: non-integer header"),
            ("p 65 0\n", "line 1: header declares 65 vertices; graphs are limited to 64"),
            ("# c\n\ne 0 1\n", "line 3: edge before header"),
            ("p 3 1\ne 0 1 2\n", "line 2: expected 'e <u> <v>'"),
            ("p 2 1\ne 0\n", "line 2: expected 'e <u> <v>'"),
            ("p 2 1\ne 0 x\n", "line 2: non-integer endpoint"),
            ("p 2 1\n\n  e 1 0\n", "line 3: endpoints must satisfy u < v"),
            ("p 2 1\ne 1 1\n", "line 2: endpoints must satisfy u < v"),
            ("p 2 1\nq 0 1\n", "line 2: unknown record 'q'"),
            ("p 2 1\nep 0 1\n", "line 2: unknown record 'ep'"),
            ("", "missing 'p <n> <m>' header"),
            ("# only a comment\n", "missing 'p <n> <m>' header"),
            ("p 3 2\ne 0 1\n", "header promises 2 edges, found 1"),
            ("p 3 1\ne 0 1\ne 1 2\n", "header promises 1 edges, found 2"),
            ("p 2 2\ne 0 1\ne 0 1\n", "duplicate edge"),
            ("p 2 1\ne 0 5\n", "vertex 5 not in 0..1"),
            ("p 2 1\ne -1 1\n", "vertex -1 not in 0..1"),
            ("p 2 1\ne x 1\ne 1 0\n", "line 2: non-integer endpoint"),  # the first bad line
            # after the count and the repeats, graph_from_edges words a bad
            # count or names the first endpoint out of range in file order
            ("p -1 1\ne 0 1\n", "vertex count -1 is negative"),
            ("p -1 0\n", "vertex count -1 is negative"),
            ("p 3 2\ne 0 5\ne 0 5\n", "duplicate edge"),
            ("p 3 2\ne 1 7\ne 0 5\n", "vertex 7 not in 0..2"),
            ("p 3 3\ne 0 5\ne 0 1\ne 0 1\n", "duplicate edge"),
            ("p 0 1\ne 0 1\n", "vertex 0 not in 0..-1"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            read_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 1_0 1\ne 0 9\n", "line 1: non-integer header"),
            ("p \uff13 0\n", "line 1: non-integer header"),  # full-width 3
            ("p +3 0\n", "line 1: non-integer header"),
            ("p 10 1\ne 0 +9\n", "line 2: non-integer endpoint"),
            ("p 10 1\ne 0 1_0\n", "line 2: non-integer endpoint"),
            ("p 3 1\ne 0 \u0662\n", "line 2: non-integer endpoint"),  # Arabic-Indic 2
            ("p 3 1\ne - 2\n", "line 2: non-integer endpoint"),
        ],
    )
    def test_integers_are_ascii_digits(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            read_graph(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("comment", ["", "# +_\u0662\n"])
    def test_ascii_digits_read_with_any_comment(self, comment):
        # a comment holding '+', '_' or a non-ASCII digit changes no reading
        assert read_graph(comment + "p 010 1\ne 0 09\n") == graph_from_edges(10, [(0, 9)])
        with pytest.raises(GraphFormatError, match="^vertex -1 not in 0..1$"):
            read_graph(comment + "p 2 1\ne -1 1\n")

    def test_text_length_cap(self):
        body = "p 2 1\ne 0 1\n"
        pad = "#" + "x" * (MAX_GRAPH_TEXT - len(body) - 2) + "\n"
        assert len(pad + body) == MAX_GRAPH_TEXT
        assert read_graph(pad + body) == graph_from_edges(2, [(0, 1)])
        with pytest.raises(GraphFormatError) as exc:
            read_graph("#" + pad + body)
        assert str(exc.value) == f"graph text is longer than {MAX_GRAPH_TEXT} characters"
