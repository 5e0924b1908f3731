"""`sparing.cli.main` prints the bytes recorded in ``cli_transcript.json``.

One session of CLI calls runs in a fresh working directory, with relative
paths and a frozen clock, so ``runtime_ms`` reads 0. Every call's exit code,
stdout and stderr, and every file the session leaves behind, must equal the
recording. The calls cover each subcommand and ``--format``, one point of
each of the 16 claims (C13 in its default two modes, an item claim over
ranges), a failing labeling and errors with exit codes 1, 2 and 3. They
print no argparse text, whose wording differs between Python versions.

Re-record with ``record_cli_transcript.py`` only when a change moves the
output on purpose, and list the calls that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

from sparing import claims, cli, solver

TRANSCRIPT_PATH = Path(__file__).with_name("cli_transcript.json")

# the files in the working directory before the first call
INPUTS = {
    "bowtie.g": "p 5 6\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 2 4\ne 3 4\n",
    "path3.g": "p 3 2\ne 0 1\ne 1 2\n",
    "bad.json": '{"vertices": 3, "labels": {"0": [1], "1": [2, 4], "2": [2, 4]}}',
    "short.json": '{"vertices": 2, "labels": {"0": [1], "1": [2]}}',
}

CALLS = [
    # solve, certify, verify and corpus in each of their formats
    ["solve", "--family", "cycle", "--n", "9"],
    ["solve", "--family", "complete_bisplit", "--parts", "1,2,2", "--format", "json"],
    ["solve", "--graph", "bowtie.g", "--threads", "2"],
    ["certify", "--graph", "bowtie.g", "--out", "bowtie.json"],
    ["certify", "--family", "wheel", "--m", "6", "--out", "wheel.json", "--format", "json"],
    ["verify", "--graph", "bowtie.g", "--labeling", "bowtie.json"],
    ["verify", "--family", "wheel", "--m", "6", "--labeling", "wheel.json", "--format", "json"],
    ["verify", "--graph", "path3.g", "--labeling", "bad.json"],
    ["verify", "--graph", "path3.g", "--labeling", "bad.json", "--format", "json"],
    ["corpus", "--count", "3", "--n", "4..6", "--density", "0.5", "--seed", "7",
     "--out-dir", "corpus"],
    # one point of each claim, in each of check's formats
    ["check", "--claim", "C1", "--n", "4"],
    ["check", "--claim", "C2", "--n", "5", "--format", "csv"],
    ["check", "--claim", "C3", "--parts", "1..2,2..3"],
    ["check", "--claim", "C4", "--n", "4", "--format", "json"],
    ["check", "--claim", "C5", "--r", "3", "--s", "2"],
    ["check", "--claim", "C6", "--r", "4", "--s", "2", "--format", "csv"],
    ["check", "--claim", "C7", "--parts", "1,2,3", "--format", "csv"],
    ["check", "--claim", "C8", "--parts", "2,2,3", "--format", "json"],
    ["check", "--claim", "C9", "--cliques", "3,4"],
    ["check", "--claim", "C10", "--n", "3", "--r", "3", "--format", "csv"],
    ["check", "--claim", "C11", "--r", "3"],
    ["check", "--claim", "C12", "--family", "cycle", "--n", "5", "--format", "json"],
    ["check", "--claim", "C13", "--family", "cycle", "--n", "5"],
    ["check", "--claim", "C13", "--family", "complete", "--n", "4", "--mode", "induced",
     "--format", "csv"],
    ["check", "--claim", "C14", "--cycles", "3,4,5", "--format", "json"],
    ["check", "--claim", "C15", "--m", "5"],
    ["check", "--claim", "C16", "--m", "4", "--n", "2..3", "--format", "csv"],
    # errors: exit 2 (input), exit 3 (resource limit)
    ["check", "--claim", "C7", "--parts", "1,2"],
    ["check", "--claim", "C2", "--n", "4"],
    ["check", "--claim", "C1", "--n", "4", "--mode", "fresh"],
    ["check", "--claim", "C13", "--family", "split", "--r", "3"],
    ["check", "--claim", "C99"],
    ["verify", "--graph", "path3.g", "--labeling", "short.json"],
    ["verify", "--graph", "path3.g", "--labeling", "missing.json"],
    ["check", "--claim", "C3", "--parts", "33,32"],
    ["check", "--claim", "C13", "--family", "cycle", "--n", "30", "--mode", "fresh"],
    ["solve", "--family", "complete", "--n", "65"],
]


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def session(workdir: Path) -> dict:
    """Run CALLS in ``workdir`` (empty) with the clock frozen; the transcript
    of every call and the text of every file left in ``workdir``."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    clock = SimpleNamespace(perf_counter=lambda: 0.0)
    saved = (solver.time, claims.time, os.getcwd())
    solver.time = claims.time = clock
    os.chdir(workdir)
    try:
        calls = [_call(argv) for argv in CALLS]
    finally:
        solver.time, claims.time = saved[:2]
        os.chdir(saved[2])
    files = {
        path.relative_to(workdir).as_posix(): path.read_text()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name not in INPUTS
    }
    return {"calls": calls, "files": files}


def test_cli_prints_the_recorded_bytes(tmp_path):
    recorded = json.loads(TRANSCRIPT_PATH.read_text())
    got = session(tmp_path)
    moved = [
        " ".join(call["argv"])
        for call, want in zip(got["calls"], recorded["calls"])
        if call != want
    ]
    assert moved == []
    assert got == recorded


def test_transcript_covers_every_subcommand_and_claim():
    commands = {argv[0] for argv in CALLS}
    assert commands == {"solve", "certify", "verify", "check", "corpus"}
    checked = {argv[argv.index("--claim") + 1] for argv in CALLS if argv[0] == "check"}
    assert {f"C{i}" for i in range(1, 17)} <= checked
