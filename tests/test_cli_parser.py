"""`sparing.cli.main` parses with one set of parsers for the life of the process.

Successive calls on the shared parsers must print the same bytes and return
the same exit codes as calls that each build a fresh parser, across
subcommands and after an argparse error has ended a call with SystemExit.
An argv whose first item names a command, or is ``--`` before a command
name, goes straight to that command's sub-parser; it must print and return
what the top-level parser's route does, and a leading ``--`` must change
nothing, whatever the Python version's argparse does with it.
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


def command_argvs(tmp_path):
    graph = tmp_path / "g.g"
    graph.write_text("p 5 6\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 2 4\ne 3 4\n")
    labeling = tmp_path / "w.json"
    g, w = str(graph), str(labeling)
    return [
        ["solve", "--family", "cycle", "--n", "9", "--format", "json"],
        ["solve", "--family=wheel", "--m=7"],
        ["solve", "--family", "cycle", "--n", "5", "--form", "json"],  # an abbreviation
        ["solve", "-h"],
        ["solve", "--family", "cycle", "--n", "5", "stray", "--bogus"],  # extras
        ["solve", "--format", "xml"],
        ["solve", "--", "--family", "cycle", "--n", "9"],
        ["solve"],
        ["certify", "--graph", g, "--out", w, "--format", "json"],
        ["certify", "--graph", g],  # --out is required
        ["certify", "--graph", g, "--out", w, "--threads", "1", "--n", "4"],
        ["certify", "--help"],
        ["verify", "--graph", g, "--labeling", w],
        ["verify", "--graph=" + g, "--lab", w, "--format", "json"],
        ["verify", "--graph", g],  # --labeling is required
        ["verify", "--graph", g, "--labeling", w, "--format", "csv"],
        ["verify", "--graph", g, "--labeling", w, "--mode", "fresh"],  # an extra flag
        ["check", "--claim", "C1", "--n", "3..5", "--format", "csv"],
        ["check", "--claim=C13", "--family", "cycle", "--n", "5", "--mo", "induced"],
        ["check", "--claim", "C1", "--n", "5", "--graph", g],
        ["check", "--n", "5"],  # --claim is required
        ["check", "--claim", "C1", "--n", "4", "--format", "yaml"],
        ["check", "-h"],
        ["corpus", "--count", "2", "--n", "4..6", "--out-dir", str(tmp_path / "corpus")],
        ["corpus", "--count=1", "--dens", "0.5", "--out-dir", str(tmp_path / "c2"), "x"],
        ["corpus", "--count", "2"],  # --out-dir is required
        ["corpus", "--count", "two", "--out-dir", str(tmp_path / "c3")],
        ["corpus", "-h"],
    ]


def with_dashes(argvs):
    """Each argv with ``--`` inserted at every position after the command name."""
    return [[*argv[:i], "--", *argv[i:]] for argv in argvs for i in range(1, len(argv) + 1)]


def top_level_route(monkeypatch):
    """Send every argv through a fresh top-level parser, as before the direct route."""
    build = cli._parser.__wrapped__
    monkeypatch.setattr(cli, "_parser", lambda: (build()[0], {}))


def test_command_argvs_print_what_the_top_level_route_prints(
    capsys, tmp_path, frozen_clock, monkeypatch
):
    argvs = command_argvs(tmp_path)
    argvs += with_dashes(argvs)
    direct = [run(capsys, argv) for argv in argvs]
    top_level_route(monkeypatch)
    assert [run(capsys, argv) for argv in argvs] == direct
    assert [code for code, _, _ in direct[:28]] == [
        0, 0, 0, 0, 2, 2, 2, 2,
        0, 2, 2, 0,
        0, 0, 2, 2, 2,
        0, 0, 2, 2, 2, 0,
        0, 2, 2, 2, 0,
    ]


def test_a_leading_dash_dash_runs_the_command(capsys, tmp_path, frozen_clock, monkeypatch):
    argvs = [command_argvs(tmp_path)[i] for i in (0, 8, 12, 17, 23)]
    assert [argv[0] for argv in argvs] == ["solve", "certify", "verify", "check", "corpus"]
    want = [run(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in want] == [0] * 5
    assert [run(capsys, ["--", *argv]) for argv in argvs] == want
    # a top-level parser that refuses to parse: some argparse versions run
    # "-- solve" through it too, and the direct route must not depend on that
    parser, commands = cli._parser.__wrapped__()

    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command argv")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    monkeypatch.setattr(cli, "_parser", lambda: (parser, commands))
    assert [run(capsys, ["--", *argv]) for argv in argvs] == want


@pytest.mark.parametrize(
    "argv", [[], ["-h"], ["bogus"], ["--", "bogus"], ["--help", "solve"], ["--"]]
)
def test_other_argvs_keep_the_top_level_parser(capsys, frozen_clock, monkeypatch, argv):
    got = run(capsys, argv)
    top_level_route(monkeypatch)
    assert got == run(capsys, argv)
    code, out, err = got
    if argv in ([], ["bogus"]):
        assert (code, out) == (2, "")
        assert err.startswith("usage: sparing [-h] {solve,certify,verify,check,corpus}")
    elif argv[0] != "--":  # whether argparse drops a leading -- depends on its version
        assert (code, err) == (0, "")
        assert out.startswith("usage: sparing [-h] {solve,certify,verify,check,corpus}")
    else:
        assert (code, out) == (2, "")
