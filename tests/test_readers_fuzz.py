"""Fuzzing of the file readers: `read_graph` and `read_labeling` either return
or raise `GraphFormatError`, never any other exception, and on every text
they return what the reference readers of `helpers` return, or raise with
the same message.

Both take whatever a user points the CLI at, so any other exception would
reach the user as a traceback. The runs are derandomized, so the suite draws
the same examples every time.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import reference_read_graph, reference_read_labeling
from sparing.errors import GraphFormatError
from sparing.graphs import graph_from_edges, read_graph, write_graph
from sparing.labels import read_labeling, write_labeling

FUZZ = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def outcome(read, text):
    """What ``read`` makes of ``text``: its result, or its GraphFormatError's message."""
    try:
        return read(text)
    except GraphFormatError as exc:
        return ("GraphFormatError", str(exc))


# small numbers make headers and edges that parse far enough to reach the
# later checks (ranges, order, duplicates, the edge count, the vertex cap);
# canonical lines such as "e 0 1" are looked up in the reader's edge-line
# table, and the other spellings of small integers miss it and are parsed
numbers = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from([63, 64, 65, 10**12]).map(str),
    st.integers().map(str),
    st.sampled_from(["007", "00", "-0", "064", "\uff11", "\u0663"]),
)
tokens = st.one_of(
    st.sampled_from(["p", "e", "#", "c", "p 3", "e 0", "\t", "\x00", "1.5", "0x1"]),
    numbers,
    st.text(max_size=4),
)
graph_lines = st.lists(tokens, max_size=4).map(" ".join)
graph_texts = st.one_of(
    st.lists(graph_lines, max_size=8).map("\n".join),
    st.text(max_size=40),
)


@FUZZ
@given(graph_texts)
@example("p " + "9" * 5000 + " 0")
@example("p 2 1\ne 0 " + "1" * 5000)
def test_read_graph_raises_only_graph_format_error(text):
    assert outcome(read_graph, text) == outcome(reference_read_graph, text)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
label_keys = st.one_of(st.integers(-1, 4).map(str), st.text(max_size=3))
label_values = st.one_of(st.lists(st.integers(-2, 2**64), max_size=4), json_values)
documents = st.fixed_dictionaries(
    {
        "vertices": st.one_of(st.integers(-1, 5), st.sampled_from([64, 65, 10**12]), json_values),
        "labels": st.one_of(st.dictionaries(label_keys, label_values, max_size=5), json_values),
    }
)
labeling_texts = st.one_of(
    documents.map(json.dumps),
    # a document cut short, or its keys renamed or dropped
    st.tuples(documents.map(json.dumps), st.integers(0, 80)).map(lambda p: p[0][: p[1]]),
    st.dictionaries(st.sampled_from(["vertices", "labels", "x"]), json_values).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=40),
)


@FUZZ
@given(labeling_texts)
@example('{"vertices": ' + "1" * 5000 + ', "labels": {}}')  # past int()'s digit limit
@example("[" * 100_000 + "]" * 100_000)  # nested past the recursion limit
@example('{"vertices": true, "labels": {"0": [1]}}')
def test_read_labeling_raises_only_graph_format_error(text):
    assert outcome(read_labeling, text) == outcome(reference_read_labeling, text)


DEFECTS = ("repeated edge", "endpoint out of range", "negative n", "count mismatch", "comment")


@st.composite
def damaged_graph_texts(draw):
    """A written graph, its edge lines shuffled, with one or two defects."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = graph_from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else [])
    _, *lines = write_graph(g).splitlines()
    lines = draw(st.permutations(lines))
    m = len(lines)
    for defect in draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=2, unique=True)):
        at = draw(st.integers(0, len(lines)))
        if defect == "repeated edge" and lines:
            lines.insert(at, draw(st.sampled_from(lines)))
            m += 1
        elif defect == "endpoint out of range":
            u = draw(st.integers(-2, g.n + 1))
            v = draw(st.integers(u + 1, g.n + 1) if u < 0 else st.integers(max(u + 1, g.n), g.n + 3))
            lines.insert(at, f"e {u} {v}")
            m += 1
        elif defect == "negative n":
            n = -draw(st.integers(1, 3))
        elif defect == "count mismatch":
            m += draw(st.sampled_from([-1, 1]))
        elif defect == "comment":
            lines.insert(at, "# a comment after the header")
    return "\n".join([f"p {n} {m}", *lines]) + "\n"


@FUZZ
@given(damaged_graph_texts())
@example("p 3 3\ne 0 5\ne 0 1\ne 0 5\n")  # a repeated edge out of range
@example("p 2 1\ne 3 5\n")  # both endpoints out of range: the lower one is named
def test_read_graph_matches_the_reference_reader_on_damaged_files(text):
    assert outcome(read_graph, text) == outcome(reference_read_graph, text)


@st.composite
def damaged_labeling_texts(draw):
    """A written labeling with one or two labels replaced by lists that may
    be unsorted, repeat an element, leave the range or hold a non-integer."""
    n = draw(st.integers(1, 6))
    doc = json.loads(write_labeling(n, {v: (4**v,) for v in range(n)}))
    element = st.one_of(st.integers(-2, 9), st.just(2**64), st.sampled_from([1.0, True, "1", None]))
    for key in draw(st.lists(st.sampled_from(sorted(doc["labels"])), min_size=1, max_size=2)):
        doc["labels"][key] = draw(st.lists(element, max_size=4))
    return json.dumps(doc)


@FUZZ
@given(damaged_labeling_texts())
def test_read_labeling_matches_the_reference_reader_on_damaged_files(text):
    assert outcome(read_labeling, text) == outcome(reference_read_labeling, text)
