"""Command-line front end: generate, solve, certify, verify, and check claims.

Exit codes: 0 success, 1 verification failure, else the ``exit_code`` of the
error raised (2 input error, 3 resource limit, 1 certification failure).
Output for fixed inputs is byte-identical across runs; the only volatile
report column (runtime_ms) is isolated so the rest diffs cleanly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import stat
import sys
from pathlib import Path
from typing import Iterator

from . import claims as claims_mod
from .claims import MODES, check_claim, claim_by_id
from .errors import GraphFormatError, SparingError, TooLarge
from .families import (
    FAMILY_PARAMS, LIST_PARAMS, FamilySpec, below_least, generate, random_graph, vertex_count,
)
from .graphs import MAX_GRAPH_TEXT, SOLVE_MAX_VERTICES, Graph, parse_int, read_graph, write_graph
from .labels import MAX_LABELING_TEXT, FailureKind, _labeling_text, _verdict, read_labeling
from .solver import solve_and_certify, sparing_exact

EXIT_OK = 0
EXIT_VERIFY = 1


class InputError(SparingError):
    """CLI-level bad input (exit 2)."""


# the families the CLI builds from their flags; split and bisplit take
# adjacency rows, which have no flag
_CLI_FAMILIES = {name: order for name, order in FAMILY_PARAMS.items() if "adjacency" not in order}
_PARAM_FLAGS = tuple(dict.fromkeys(flag for order in _CLI_FAMILIES.values() for flag in order))
# the flags a command refuses when it would not read them
_FLAGS = ("family", *_PARAM_FLAGS, "mode")


def _parse_int(text: str, flag: str) -> int:
    """``text`` in the graph file's integer spelling (`graphs.parse_int`)."""
    try:
        return parse_int(text)
    except ValueError:
        raise InputError(f"--{flag} expects an integer, got {text!r}") from None


def _parse_range(text: str, flag: str, ranged: bool = True) -> range:
    """'4' -> range(4, 5); when ``ranged``, '3..6' -> range(3, 7)."""
    if ranged and ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _parse_int(lo_text, flag), _parse_int(hi_text, flag)
        if hi < lo:
            raise InputError(f"--{flag}: empty range {text!r}")
    else:
        lo = hi = _parse_int(text, flag)
    return range(lo, hi + 1)


def _sweep(dims: list) -> Iterator[tuple]:
    """The cross product of ``dims``, last varying fastest; a list of ranges
    gives the lists of their cross product. Lazy, unlike itertools.product,
    so a sweep stops at its first bad point without holding a whole range."""
    if not dims:
        yield ()
        return
    head = dims[0]
    for value in map(list, _sweep(head)) if isinstance(head, list) else head:
        for tail in _sweep(dims[1:]):
            yield (value, *tail)


def _family_params(args, family: str, ranged: bool, owner: str) -> Iterator[dict]:
    """Parameter dicts for the registry family ``family`` from the CLI flags;
    the cross product of any ranges, in flag order with the last flag varying
    fastest. ``owner`` names what needs the flags in the missing-flag error.

    Every flag is parsed before the first point is made. A family's count
    grows with each parameter only above that parameter's least value, so the
    top point's count bounds the sweep only when the top point is at or above
    every least value: then it refuses a wrong part count, then over 64
    vertices, naming the top point when the sweep has more than one. Below a
    least value, every point is below it too, and the first point is refused
    by its owner's own check, in its words: `generate` for a family,
    `check_claim` for a claim (whose build calls `generate` for a base)."""
    order = FAMILY_PARAMS[family]
    dims: list = []
    for flag in order:
        raw = getattr(args, flag)
        if raw is None:
            raise InputError(f"{owner} requires --{flag}")
        if flag not in LIST_PARAMS:
            dims.append(_parse_range(raw, flag, ranged))
            continue
        dims.append([_parse_range(item, flag, ranged) for item in raw.split(",")])
    top = {
        flag: [r[-1] for r in dim] if isinstance(dim, list) else dim[-1]
        for flag, dim in zip(order, dims)
    }
    sweep = any(len(r) > 1 for dim in dims for r in (dim if isinstance(dim, list) else (dim,)))
    if not below_least(top, FAMILY_PARAMS[family]):
        vertex_count(family, top, named=sweep)
    return (dict(zip(order, values)) for values in _sweep(dims))


def _refuse_unread(args, owner: str, read) -> None:
    """Refuse any flag of _FLAGS that was given but that ``owner`` does not read."""
    for flag in _FLAGS:
        if flag not in read and getattr(args, flag, None) is not None:
            raise InputError(f"{owner} takes no --{flag}")


def _family_spec(args, ranged: bool = False) -> Iterator[FamilySpec]:
    family = args.family
    if family not in _CLI_FAMILIES:
        if family in FAMILY_PARAMS:
            raise InputError(
                f"{family} needs an explicit adjacency list; build it via the library "
                "or pass a graph file"
            )
        raise InputError(f"unknown family {family!r} (choose from {', '.join(_CLI_FAMILIES)})")
    # check's --mode is the claim's to refuse
    _refuse_unread(args, f"family {family}", ("family", *_CLI_FAMILIES[family], "mode"))
    points = _family_params(args, family, ranged, f"family {family}")
    return (FamilySpec(family, params) for params in points)


def _load_graph(args) -> Graph:
    if args.graph:
        _refuse_unread(args, "--graph", ())
        return read_graph(_read(args.graph, MAX_GRAPH_TEXT))
    if args.family:
        (spec,) = _family_spec(args)
        return generate(spec).graph
    raise InputError("provide a graph via --graph FILE or --family NAME")


def _read(path: str, limit: int) -> str:
    r"""The file as UTF-8 text with "\r\n" and "\r" read as "\n", cut one
    character past ``limit`` for its reader to refuse.

    A regular file of at most ``limit`` bytes holds at most ``limit``
    characters, so it is read whole in one read sized by fstat and decoded at
    once. Every other file, one whose size changed under the read, and one
    that is not UTF-8 go through the text layer, which stops at ``limit + 1``
    characters and words a decode error by the chunk it read."""
    try:
        with open(path, "rb", buffering=0) as raw:
            info = os.fstat(raw.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size <= limit:
                data = raw.read(info.st_size + 1)
                if len(data) == info.st_size:
                    try:
                        return data.decode().replace("\r\n", "\n").replace("\r", "\n")
                    except UnicodeDecodeError:
                        pass
                raw.seek(0)
            with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
                return fh.read(limit + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


# O_BINARY (Windows only) keeps os.write from turning "\n" into "\r\n"
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: str | Path, text: str) -> None:
    r"""Replace the file with ``text`` as UTF-8 with "\n" line ends on every
    platform (a text-mode write would use the locale's encoding, and "\r\n"
    on Windows). One ``os.write`` system call writes it, looped only if the
    system writes part of it.

    The file is rewritten in place: opened without O_TRUNC, written from its
    start, then cut to the new length if it was longer. It is never emptied
    first, since truncating a file to zero and writing it again makes a
    filesystem such as ext4 allocate and flush its blocks at close. A special
    file (``/dev/null``, a FIFO) reports size 0 and is never cut. Nothing is
    fsynced: a crash mid-write can leave the new text over the old one's tail,
    but not an emptied file, and ``verify`` rejects a torn labeling."""
    data = text.encode()
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _threads(args) -> int:
    raw = args.threads
    if raw is None:
        raw = os.environ.get("SPARING_THREADS", "1")
    value = _parse_int(raw, "threads")
    if value < 1:
        raise InputError("--threads must be >= 1")
    return value


def _fmt_witness(witness: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, witness)) + "]"


def _fmt_edges(edges) -> str:
    return "[" + ",".join(f"({u},{v})" for u, v in edges) + "]"


def cmd_solve(args) -> int:
    g = _load_graph(args)
    result = sparing_exact(g, threads=_threads(args))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "phi": result.value,
                    "witness": list(result.witness),
                    "mono": [list(e) for e in result.mono],
                    "nodes": result.stats.nodes,
                    "value_nodes": result.stats.value_nodes,
                    "runtime_ms": int(result.stats.elapsed_s * 1000),
                }
            )
        )
    else:
        print(
            f"phi={result.value} witness={_fmt_witness(result.witness)} "
            f"mono={_fmt_edges(result.mono)}"
        )
    return EXIT_OK


def cmd_certify(args) -> int:
    g = _load_graph(args)
    _threads(args)
    # solve_and_certify checked the labeling by the label rule
    result, labeling = solve_and_certify(g)
    _write(args.out, _labeling_text([labeling[v] for v in range(g.n)]))
    if args.format == "json":
        doc = {"phi": result.value, "mono": len(result.mono), "verified": True, "out": args.out}
        print(json.dumps(doc))
    else:
        print(f"phi={result.value} mono={len(result.mono)} verified=true")
    return EXIT_OK


def _failure_line(failure) -> str:
    if failure.kind is FailureKind.VERTEX_COLLISION:
        u, v = failure.where
        return f"VertexCollision vertices ({u},{v})"
    if failure.kind is FailureKind.EDGE_COLLISION:
        (a, b), (c, d) = failure.where
        return f"EdgeCollision edges ({a},{b}),({c},{d})"
    ((u, v),) = failure.where
    return f"WeakConditionViolated edge ({u},{v})"


def cmd_verify(args) -> int:
    g = _load_graph(args)
    n, labeling = read_labeling(_read(args.labeling, MAX_LABELING_TEXT))
    if n != g.n:
        raise GraphFormatError(f"labeling covers {n} vertices, graph has {g.n}")
    # read_labeling checked every label by the label rule, in the file's words
    verdict = _verdict(g, [labeling[v] for v in range(n)])
    mono_count = len(verdict.mono)
    if args.format == "json":
        failures = [_failure_line(f) for f in verdict.failures]
        print(json.dumps({"ok": verdict.ok, "mono": mono_count, "failures": failures}))
    else:
        if verdict.ok:
            print(f"weak-IASI: ok, mono={mono_count}")
        else:
            for failure in verdict.failures:
                print(_failure_line(failure))
    return EXIT_OK if verdict.ok else EXIT_VERIFY


_REPORT_COLUMNS = (
    "family", "params", "formula_value", "exact_value", "verdict", "witness_size",
    "mono_count", "runtime_ms",
)


def _claim_points(claim, args) -> Iterator[dict]:
    """All parameter points requested by the flags, in deterministic order."""
    owner = f"claim {claim.id}"
    if "base" in claim.param_order:
        # the base family refuses the parameter flags it does not read
        _refuse_unread(args, owner, ("family", *_PARAM_FLAGS, *claim.param_order))
        if not args.family:
            raise InputError(f"{claim.id} requires --family for the base graph")
        values = {
            "base": _family_spec(args, ranged=True),
            "mode": MODES if args.mode is None else (args.mode,),
        }
        dims = [values[key] for key in claim.param_order]  # base is first: iterated once
        return (dict(zip(claim.param_order, point)) for point in _sweep(dims))
    _refuse_unread(args, owner, FAMILY_PARAMS[claim.family])
    flag = claim.item_list()
    if flag is None:
        return _family_params(args, claim.family, True, owner)
    # a list family (--parts) whose claim names each item
    raw = getattr(args, flag)
    if raw is not None and len(raw.split(",")) != len(claim.param_order):
        raise InputError(f"{owner} requires --{flag} with {len(claim.param_order)} sizes")
    points = _family_params(args, claim.family, True, owner)
    return (dict(zip(claim.param_order, point[flag])) for point in points)


def cmd_check(args) -> int:
    try:
        claim = claim_by_id(args.claim)
    except KeyError:
        known = ", ".join(c.id for c in claims_mod.catalog())
        raise InputError(f"unknown claim {args.claim!r} (known: {known})") from None
    _threads(args)
    verdicts = [check_claim(claim, params) for params in _claim_points(claim, args)]
    rows = [list(map(str, vars(v).values())) for v in verdicts]
    matches = sum(v.verdict == "MATCH" for v in verdicts)
    mismatches = len(verdicts) - matches
    summary = f"MATCH={matches} MISMATCH={mismatches}"
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        writer.writerows(rows)
        print(summary, file=sys.stderr)
    elif args.format == "json":
        records = [dict(zip(_REPORT_COLUMNS, row)) for row in rows]
        print(json.dumps({"rows": records, "matches": matches, "mismatches": mismatches}))
    else:
        table = [list(_REPORT_COLUMNS), *rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(_REPORT_COLUMNS))]
        for line in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        print(summary)
    return EXIT_OK


def cmd_corpus(args) -> int:
    out_dir = Path(args.out_dir)
    count, seed = _parse_int(args.count, "count"), _parse_int(args.seed, "seed")
    sizes = _parse_range(args.n, "n")
    if sizes[-1] > SOLVE_MAX_VERTICES:
        raise TooLarge(f"--n needs {sizes[-1]} or more vertices; "
                       f"graphs are limited to {SOLVE_MAX_VERTICES}")
    if sizes.start < 0:
        raise InputError("random_graph requires n >= 0")
    if count < 0:
        raise InputError("--count must be >= 0")
    if not 0.0 <= args.density <= 1.0:
        raise InputError("--density must be in [0, 1]")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out_dir}: {exc}") from None
    rng = random.Random(seed)
    for index in range(count):
        n = rng.choice(sizes)
        graph_seed = rng.randrange(2**31)
        g = random_graph(n, args.density, graph_seed)
        header = f"# corpus index={index} seed={graph_seed} density={args.density}\n"
        _write(out_dir / f"graph_{index:03d}.g", header + write_graph(g))
    print(f"wrote {count} graphs to {out_dir}")
    return EXIT_OK


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help="graph family name")
    for flag in _PARAM_FLAGS:
        listed = LIST_PARAMS.get(flag)
        sub.add_argument(f"--{flag}", help=f"comma-separated {listed}" if listed else None)


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="graph file (text format)")
    _add_family_flags(sub)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command sub-parsers, by command name, built
    on ``main``'s first call: parsing leaves them unchanged, and building them
    costs more than most calls they serve."""
    parser = argparse.ArgumentParser(
        prog="sparing",
        description="Exact sparing numbers: solve, certify, verify, and check closed-form claims.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="compute the sparing number and witness")
    _add_graph_flags(solve)
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument("--threads", default=None)
    solve.set_defaults(func=cmd_solve, parser=solve)

    certify = subparsers.add_parser("certify", help="solve and write a verified witness labeling")
    _add_graph_flags(certify)
    certify.add_argument("--out", required=True, help="labeling output file")
    certify.add_argument("--format", choices=("text", "json"), default="text")
    certify.add_argument("--threads", default=None)
    certify.set_defaults(func=cmd_certify, parser=certify)

    verify = subparsers.add_parser("verify", help="verify a labeling file against a graph")
    _add_graph_flags(verify)
    verify.add_argument("--labeling", required=True, help="labeling file to verify")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify, parser=verify)

    check = subparsers.add_parser("check", help="check cataloged claims against the solver")
    _add_family_flags(check)
    check.add_argument("--claim", required=True, help="claim id (C1..C16)")
    check.add_argument("--mode", choices=MODES,
                       help="evaluation mode of the maximal-subdivision claim (default: each mode)")
    check.add_argument("--format", choices=("text", "csv", "json"), default="text")
    check.add_argument("--threads", default=None)
    check.set_defaults(func=cmd_check, parser=check)

    corpus = subparsers.add_parser("corpus", help="write seeded random test-corpus graphs")
    corpus.add_argument("--count", default="200")
    corpus.add_argument("--n", default="1..10", help="vertex-count range, e.g. 24 or 1..10")
    corpus.add_argument("--density", type=float, default=0.3)
    corpus.add_argument("--seed", default="42")
    corpus.add_argument("--out-dir", required=True)
    corpus.set_defaults(func=cmd_corpus, parser=corpus)

    return parser, subparsers.choices


def main(argv: list[str] | None = None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    When ``argv[0]`` names a command, or is ``--`` followed by a command name,
    the rest goes to that command's sub-parser. Every other argv goes to the
    top-level parser, which only prints help and errors."""
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) > 1 and argv[0] == "--" and argv[1] in commands:
        argv = argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args, extras = parser.parse_known_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
    if extras:
        # the chosen command's usage lists the flags it does take
        args.parser.print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: unrecognized arguments: {' '.join(extras)}\n")
    try:
        return args.func(args)
    except SparingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
