"""Fuzzing of the file readers: `read_graph` and `read_labeling` either return
or raise `GraphFormatError`, never any other exception.

Both take whatever a user points the CLI at, so any other exception would
reach the user as a traceback. The runs are derandomized, so the suite draws
the same examples every time.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparing.errors import GraphFormatError
from sparing.graphs import read_graph
from sparing.labels import read_labeling

FUZZ = settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# small numbers make headers and edges that parse far enough to reach the
# later checks (ranges, order, duplicates, the edge count, the vertex cap)
numbers = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([63, 64, 65, 10**12]),
    st.integers(),
).map(str)
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
    try:
        read_graph(text)
    except GraphFormatError:
        pass


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
    try:
        read_labeling(text)
    except GraphFormatError:
        pass
