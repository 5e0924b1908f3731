"""`sparing.cli.main` parses with one parser for the life of the process.

Successive calls on the shared parser must print the same bytes and return
the same exit codes as calls that each build a fresh parser, across
subcommands and after an argparse error has ended a call with SystemExit.
"""

from types import SimpleNamespace

import pytest

from sparing import claims, cli, solver


def argv_sequence(tmp_path):
    graph = tmp_path / "g.g"
    graph.write_text("p 5 6\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 2 4\ne 3 4\n")
    labeling = tmp_path / "w.json"
    return [
        ["solve", "--family", "wheel", "--m", "7", "--format", "json"],
        ["solve", "--bogus"],  # argparse error: SystemExit 2
        ["check", "--claim", "C1", "--n", "3..5", "--format", "csv"],
        ["check", "--claim", "C1"],  # the claim's missing-flag error, exit 2
        ["certify", "--graph", str(graph), "--out", str(labeling)],
        ["verify", "--graph", str(graph), "--labeling", str(labeling), "--format", "json"],
        ["solve", "--family", "cycle", "--n", "9"],
        ["check", "--claim", "C13", "--family", "cycle", "--n", "5", "--format", "json"],
        ["certify"],  # argparse error: --out is required
        ["solve", "--family", "complete", "--n", "100"],  # over the cap, exit 3
        ["corpus", "--count", "2", "--n", "4..6", "--out-dir", str(tmp_path / "corpus")],
        ["check", "--help"],  # SystemExit 0
        ["solve", "--family", "cactus_chain", "--cycles", "3,4,5", "--format", "json"],
    ]


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def frozen_clock(monkeypatch):
    # runtime_ms is the one volatile output; pin it so outputs compare bytewise
    clock = SimpleNamespace(perf_counter=lambda: 0.0)
    monkeypatch.setattr(solver, "time", clock)
    monkeypatch.setattr(claims, "time", clock)


def test_shared_parser_prints_what_fresh_parsers_print(capsys, tmp_path, frozen_clock):
    argvs = argv_sequence(tmp_path)
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    cli._parser.cache_clear()
    shared = [run(capsys, argv) for argv in argvs]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0, 0, 2, 3, 0, 0, 0]
