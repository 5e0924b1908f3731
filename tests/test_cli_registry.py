"""The CLI against the claim catalog and the family registry.

Each claim and each family is driven through `sparing.cli.main` with flags
derived from its parameter names, and the output is compared with the
library on the same parameters. Input errors are pinned to their exact
message and exit code.
"""

import csv

import pytest

from sparing.claims import MODES, catalog, check_claim
from sparing.cli import main
from sparing.families import FAMILY_NAMES, FamilySpec, generate
from sparing.solver import sparing_exact

ADJACENCY_ERROR = (
    "error: {} needs an explicit adjacency list; build it via the library "
    "or pass a graph file\n"
)
CLI_FAMILIES = (
    "block_chain, cactus_chain, complete, complete_bipartite, complete_bisplit, "
    "complete_multipartite, complete_split, complete_sun, cone, cycle, friendship, "
    "path, wheel, windmill"
)

# one sample point per family; None marks a family built from an adjacency list
FAMILY_SAMPLES = {
    "block_chain": {"cliques": [3, 4]},
    "bisplit": None,
    "cactus_chain": {"cycles": [3, 4, 5]},
    "complete": {"n": 4},
    "complete_bipartite": {"parts": [2, 3]},
    "complete_bisplit": {"parts": [1, 2, 3]},
    "complete_multipartite": {"parts": [1, 2, 2]},
    "complete_split": {"r": 3, "s": 2},
    "complete_sun": {"n": 4},
    "cone": {"m": 4, "n": 2},
    "cycle": {"n": 5},
    "friendship": {"r": 3},
    "path": {"n": 5},
    "split": None,
    "wheel": {"m": 5},
    "windmill": {"n": 3, "r": 2},
}

# one point per claim (C13 in both modes) with its report family and params
CLAIM_POINTS = [
    ("C1", {"n": 4}, "complete", "n=4"),
    ("C2", {"n": 5}, "cycle", "n=5"),
    ("C3", {"a": 2, "b": 3}, "complete_bipartite", "a=2,b=3"),
    ("C4", {"n": 4}, "complete_sun", "n=4"),
    ("C5", {"r": 3, "s": 2}, "complete_split", "r=3,s=2"),
    ("C6", {"r": 4, "s": 2}, "complete_split", "r=4,s=2"),
    ("C7", {"x": 1, "y": 2, "z": 3}, "complete_bisplit", "x=1,y=2,z=3"),
    ("C8", {"a": 2, "b": 2, "c": 3}, "complete_multipartite", "a=2,b=2,c=3"),
    ("C9", {"cliques": [3, 4]}, "block_chain", "cliques=3,4"),
    ("C10", {"n": 3, "r": 3}, "windmill", "n=3,r=3"),
    ("C11", {"r": 3}, "friendship", "r=3"),
    ("C12", {"base": FamilySpec("cycle", {"n": 5})}, "shadow(cycle)", "base=cycle,n=5"),
    (
        "C13",
        {"base": FamilySpec("complete", {"n": 4}), "mode": "fresh"},
        "max_subdivision(complete)",
        "base=complete,n=4,mode=fresh",
    ),
    (
        "C13",
        {"base": FamilySpec("complete", {"n": 4}), "mode": "induced"},
        "max_subdivision(complete)",
        "base=complete,n=4,mode=induced",
    ),
    ("C14", {"cycles": [3, 4, 5]}, "cactus_chain", "cycles=3,4,5"),
    ("C15", {"m": 5}, "wheel", "m=5"),
    ("C16", {"m": 4, "n": 2}, "cone", "m=4,n=2"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_flags(params: dict) -> list[str]:
    argv = []
    for key, value in params.items():
        rendered = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [f"--{key}", rendered]
    return argv


def claim_flags(claim, params: dict) -> list[str]:
    """Flags for one claim point, one per name in the claim's param_order.

    The items a claim names (C3's a and b) are passed together as the flag of
    the family list they fill (--parts).
    """
    items = claim.item_list()
    if items is not None:
        return family_flags({items: [params[key] for key in claim.param_order]})
    argv = []
    for key in claim.param_order:
        value = params[key]
        if key == "base":
            argv += ["--family", value.family, *family_flags(dict(value.params))]
        elif key == "mode":
            argv += ["--mode", value]
        else:
            argv += family_flags({key: value})
    return argv


class TestInputErrors:
    """Exact stderr of the CLI's input errors (exit 2)."""

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["check", "--claim", "C1"], "error: claim C1 requires --n\n"),
            (["check", "--claim", "C5", "--r", "3"], "error: claim C5 requires --s\n"),
            (["check", "--claim", "C3"], "error: claim C3 requires --parts\n"),
            (
                ["check", "--claim", "C3", "--parts", "1"],
                "error: claim C3 requires --parts with 2 sizes\n",
            ),
            (
                ["check", "--claim", "C7", "--parts", "1,2"],
                "error: claim C7 requires --parts with 3 sizes\n",
            ),
            (["check", "--claim", "C9"], "error: claim C9 requires --cliques\n"),
            (["check", "--claim", "C14"], "error: claim C14 requires --cycles\n"),
            (["check", "--claim", "C12"], "error: C12 requires --family for the base graph\n"),
            (["solve", "--family", "cycle"], "error: family cycle requires --n\n"),
            (
                ["check", "--claim", "C12", "--family", "cone", "--m", "4"],
                "error: family cone requires --n\n",
            ),
            (
                ["solve", "--family", "hypercube", "--n", "3"],
                f"error: unknown family 'hypercube' (choose from {CLI_FAMILIES})\n",
            ),
            (
                ["check", "--claim", "C13", "--family", "hypercube"],
                f"error: unknown family 'hypercube' (choose from {CLI_FAMILIES})\n",
            ),
            (["solve", "--family", "split", "--r", "3"], ADJACENCY_ERROR.format("split")),
            (["check", "--claim", "C12", "--family", "bisplit"], ADJACENCY_ERROR.format("bisplit")),
            (["check", "--claim", "C1", "--n", "3..1"], "error: --n: empty range '3..1'\n"),
            (
                ["solve", "--family", "path", "--n", "3", "--threads", "0"],
                "error: --threads must be >= 1\n",
            ),
            # flags take the graph file's integer spelling: ASCII digits after an optional '-'
            (
                ["solve", "--family", "cycle", "--n", "\uff15"],
                "error: --n expects an integer, got '\uff15'\n",
            ),
            (
                ["solve", "--family", "cycle", "--n", "1_0"],
                "error: --n expects an integer, got '1_0'\n",
            ),
            (
                ["solve", "--family", "cycle", "--n", "+5"],
                "error: --n expects an integer, got '+5'\n",
            ),
            (["check", "--claim", "C1", "--n", "3..+5"], "error: --n expects an integer, got '+5'\n"),
            (
                ["check", "--claim", "C3", "--parts", "2,+3"],
                "error: --parts expects an integer, got '+3'\n",
            ),
            (
                ["solve", "--family", "cycle", "--n", "5", "--threads", "+2"],
                "error: --threads expects an integer, got '+2'\n",
            ),
            (
                ["solve", "--family", "cycle", "--n", "5", "--threads", "1.5"],
                "error: --threads expects an integer, got '1.5'\n",
            ),
            # an empty list item is refused, not dropped: "2,3," is not K_{2,3}
            (
                ["solve", "--family", "complete_multipartite", "--parts", "2,3,"],
                "error: --parts expects an integer, got ''\n",
            ),
            (
                ["check", "--claim", "C9", "--cliques", ",3"],
                "error: --cliques expects an integer, got ''\n",
            ),
            (
                ["check", "--claim", "C3", "--parts", "3,,4"],
                "error: claim C3 requires --parts with 2 sizes\n",
            ),
            # an empty --graph or --family is given, never taken for absent
            (
                ["solve", "--graph", "", "--family", "cycle", "--n", "5"],
                "error: --graph takes no --family\n",
            ),
            (
                ["verify", "--graph", "", "--labeling", "w.json"],
                "error: cannot read : [Errno 2] No such file or directory: ''\n",
            ),
            (["solve", "--family", ""], f"error: unknown family '' (choose from {CLI_FAMILIES})\n"),
            (
                ["check", "--claim", "C12", "--family", "", "--n", "3"],
                f"error: unknown family '' (choose from {CLI_FAMILIES})\n",
            ),
        ],
    )
    def test_message(self, capsys, argv, err):
        code, out, stderr = run(capsys, *argv)
        assert (code, out, stderr) == (2, "", err)

    @pytest.mark.parametrize(
        "command,file_flag", [("solve", None), ("certify", "--out"), ("verify", "--labeling")]
    )
    def test_graph_header_over_the_vertex_cap(self, capsys, tmp_path, command, file_flag):
        graph = tmp_path / "huge.g"
        graph.write_text("p 1000000000000 0\n")
        argv = [command, "--graph", str(graph)]
        if file_flag:
            argv += [file_flag, str(tmp_path / "labels.json")]
        code, out, stderr = run(capsys, *argv)
        err = "error: line 1: header declares 1000000000000 vertices; graphs are limited to 64\n"
        assert (code, out, stderr) == (2, "", err)


@pytest.mark.parametrize(
    "claim_id,params,family,rendered", CLAIM_POINTS, ids=[f"{p[0]}:{p[3]}" for p in CLAIM_POINTS]
)
def test_check_row_matches_library(capsys, claim_id, params, family, rendered):
    (claim,) = [c for c in catalog() if c.id == claim_id]
    code, out, _ = run(capsys, "check", "--claim", claim_id, *claim_flags(claim, params),
                       "--format", "csv")
    assert code == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert header[-1] == "runtime_ms"
    assert len(rows) == 1
    verdict = check_claim(claim, params)
    assert (verdict.family, verdict.where) == (family, rendered)
    assert verdict.mono_count == verdict.exact
    # the CLI prints the verdict's fields in order, so this pins them to the columns
    assert rows[0][:-1] == [
        verdict.family,
        verdict.where,
        str(verdict.predicted),
        str(verdict.exact),
        verdict.verdict,
        str(verdict.witness_size),
        str(verdict.mono_count),
    ]


def test_check_points_cover_the_catalog():
    assert {point[0] for point in CLAIM_POINTS} == {c.id for c in catalog()}


def test_check_mode_is_one_of_the_claim_modes(capsys):
    base = ["check", "--claim", "C13", "--family", "cycle", "--n", "5", "--format", "csv"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    _, *rows = list(csv.reader(out.splitlines()))
    assert [row[1] for row in rows] == [f"base=cycle,n=5,mode={mode}" for mode in MODES]
    for mode in MODES:
        code, out, _ = run(capsys, *base, "--mode", mode)
        assert (code, len(out.splitlines())) == (0, 2)
    with pytest.raises(SystemExit) as exc:
        main([*base, "--mode", "both"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_solve_matches_library(capsys, family):
    params = FAMILY_SAMPLES[family]
    if params is None:
        code, out, err = run(capsys, "solve", "--family", family)
        assert (code, out, err) == (2, "", ADJACENCY_ERROR.format(family))
        return
    code, out, _ = run(capsys, "solve", "--family", family, *family_flags(params))
    assert code == 0
    result = sparing_exact(generate(FamilySpec(family, params)).graph)
    witness = ",".join(map(str, result.witness))
    mono = ",".join(f"({u},{v})" for u, v in result.mono)
    assert out == f"phi={result.value} witness=[{witness}] mono=[{mono}]\n"


def test_family_samples_cover_the_registry():
    assert sorted(FAMILY_SAMPLES) == list(FAMILY_NAMES)
