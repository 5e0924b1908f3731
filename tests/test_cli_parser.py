"""`sparing.cli.main` parses with one set of parsers for the life of the process.

Successive calls on the shared parsers must print the same bytes and return
the same exit codes as calls that each build a fresh parser, across
subcommands and after an argparse error has ended a call with SystemExit.
An argv whose first item names a command, or is ``--`` before a command
name, goes straight to that command; it must print and return what the
top-level parser's route does, and a leading ``--`` must change nothing,
whatever the Python version's argparse does with it.

A command's plain argv, exact ``--flag value`` pairs of its untyped store
actions with every required flag given, is read by `cli._plain_args` without
argparse; every other argv (help, ``--``, ``--flag=value``, abbreviations,
repeats, ``-``-leading values, bad choices, missing flags, ``corpus
--density``) goes to the command's sub-parser, so all text still comes from
argparse. Whenever the plain reader accepts an argv, the sub-parser must
return the same namespace, with no extras and no SystemExit.
"""

import contextlib
import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def parsed(command, argv):
    """``vars`` of the namespace and the extras that ``command``'s sub-parser
    returns for ``argv``, or its SystemExit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extras = command.parser.parse_known_args(argv)
        except SystemExit as exc:
            return "exit", exc.code
    return vars(args), extras


# values that argparse reads in different ways: empty, spaced, full-width,
# every choice word, and "-"-leading ones, among them an option string
WORDS = ("5", "3..4", "C1", "", "a b", "\uff11", "x=y", "text", "json", "csv", "fresh",
         "induced", "both", "yaml")
DASHED = ("-", "-5..2", "-5", "--graph", "--")


@st.composite
def drawn_argvs(draw):
    """A command name and an argv for it: ``--flag value`` pairs, mostly with
    the required flag, where one token is sometimes replaced or inserted: a
    "-"-leading value, a help flag, a prefix of an option string, an ``=``
    form, a flag given again or a stray word."""
    commands = cli._parser()[1]
    name = draw(st.sampled_from(sorted(commands)))
    sub = commands[name].parser
    options = st.sampled_from(sorted(sub._option_string_actions))
    words = st.sampled_from(WORDS)
    flags = st.sampled_from(sorted(set(sub._option_string_actions) - {"-h", "--help"}))
    argv = []
    for flag in draw(st.lists(flags, max_size=5, unique=True)):
        choices = sub._option_string_actions[flag].choices
        argv += [flag, draw(st.sampled_from(choices) | words if choices else words)]
    required = [action.option_strings[0] for action in sub._actions if action.required]
    if required and required[0] not in argv and draw(st.integers(0, 3)):
        argv[:0] = [required[0], draw(words)]
    if draw(st.integers(0, 2)) == 2:
        token = draw(st.one_of(
            st.sampled_from(DASHED),
            options,
            st.builds(lambda option, size: option[:size], options, st.integers(1, 8)),
            st.builds("{}={}".format, options, words),
            st.sampled_from(("-h", "--bogus", "stray")),
        ))
        where = draw(st.integers(0, len(argv)))
        if where < len(argv) and draw(st.booleans()):
            argv[where] = token
        else:
            argv.insert(where, token)
    return name, argv


@settings(derandomize=True, max_examples=500, deadline=None)
@given(drawn_argvs())
def test_a_plain_argv_parses_as_its_sub_parser_parses_it(case):
    name, argv = case
    command = cli._parser()[1][name]
    args = cli._plain_args(command, argv)
    if args is not None:
        assert parsed(command, argv) == (vars(args), [])


@pytest.mark.parametrize(
    "argv,plain",
    [
        (["solve", "--family", "cycle", "--n", "9"], True),
        (["solve", "--graph", "", "--family", "cycle", "--n", "5"], True),
        (["certify", "--out", "w.json", "--graph", "g.g", "--format", "json"], True),
        (["verify", "--labeling", "a b", "--graph", "\uff11"], True),
        (["check", "--claim", "C13", "--family", "cycle", "--n", "5", "--mode", "fresh"], True),
        (["corpus", "--count", "1", "--out-dir", ""], True),
        (["solve", "--fam", "cycle", "--n", "9"], False),  # an abbreviation
        (["solve", "--family=cycle", "--n", "9"], False),
        (["solve", "--family", "cycle", "--n", "7", "--n", "9"], False),  # a repeat
        (["check", "--claim", "C1", "--n", "-5..2"], False),  # a "-"-leading value
        (["solve", "--family", "cycle", "--n", "-5"], False),
        (["solve", "--family", "cycle", "--n", "9", "--format", "xml"], False),
        (["certify", "--family", "cycle", "--n", "9"], False),  # --out is required
        (["corpus", "--density", "0.5", "--out-dir", "c"], False),  # a float-typed flag
        (["solve", "--family", "cycle", "--n", 9], False),  # a token that is not a str
        (["solve", "--family", "cycle", "--n"], False),
        (["solve", "-h"], False),
        (["solve", "--", "--family", "cycle"], False),
    ],
)
def test_the_plain_reader_takes_only_plain_argvs(argv, plain):
    command = cli._parser()[1][argv[0]]
    args = cli._plain_args(command, argv[1:])
    assert (args is not None) == plain
    if plain:
        assert parsed(command, argv[1:]) == (vars(args), [])
