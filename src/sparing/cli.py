"""Command-line front end: generate, solve, certify, verify, and check claims.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
limit. Output for fixed inputs is byte-identical across runs; the only
volatile report column (runtime_ms) is isolated so the rest diffs cleanly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import claims as claims_mod
from .claims import check_claim, claim_by_id
from .errors import (
    CertificationFailed,
    DomainError,
    GraphFormatError,
    InvalidParam,
    MissingGraph,
    MissingLabel,
    SparingError,
    TooLarge,
    UnknownPartition,
)
from .families import FAMILY_PARAMS, FamilySpec, generate, random_graph
from .graphs import SOLVE_MAX_VERTICES, Graph, read_graph, write_graph
from .labels import FailureKind, mono_edges, read_labeling, verify_weak, write_labeling
from .solver import solve_and_certify, sparing_exact

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


class InputError(SparingError):
    """CLI-level bad input (exit 2)."""


_SCALAR_FLAGS = ("n", "r", "m", "s")
_LIST_FLAGS = ("parts", "cliques", "cycles")


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--{flag} expects an integer, got {text!r}") from None


def _parse_range(text: str, flag: str) -> list[int]:
    """'4' -> [4]; '3..6' -> [3, 4, 5, 6]."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _parse_int(lo_text, flag), _parse_int(hi_text, flag)
        if hi < lo:
            raise InputError(f"--{flag}: empty range {text!r}")
        return list(range(lo, hi + 1))
    return [_parse_int(text, flag)]


def _parse_int_list(text: str, flag: str) -> list[int]:
    return [_parse_int(item, flag) for item in text.split(",") if item != ""]


def _family_params(args, family: str, ranged: bool, owner: str) -> list[dict]:
    """Parameter dicts for the registry family ``family`` from the CLI flags;
    the cross product of any ranges, in flag order with the last flag varying
    fastest. ``owner`` names what needs the flags in the missing-flag error."""
    dims: list[list[tuple[str, object]]] = []
    for flag in FAMILY_PARAMS[family]:
        raw = getattr(args, flag)
        if raw is None:
            raise InputError(f"{owner} requires --{flag}")
        if flag in _LIST_FLAGS:
            if ranged:
                item_ranges = [_parse_range(item, flag) for item in raw.split(",") if item != ""]
                combos: list[tuple[str, object]] = []
                for combo in _product(item_ranges):
                    combos.append((flag, list(combo)))
                dims.append(combos)
            else:
                dims.append([(flag, _parse_int_list(raw, flag))])
        else:
            values = _parse_range(raw, flag) if ranged else [_parse_int(raw, flag)]
            dims.append([(flag, v) for v in values])
    return [dict(point) for point in _product(dims)]


def _product(dims: list[list]) -> list[tuple]:
    out: list[tuple] = [()]
    for dim in dims:
        out = [prefix + (item,) for prefix in out for item in dim]
    return out


def _family_spec(args, ranged: bool = False) -> list[FamilySpec]:
    family = args.family
    if "adjacency" in FAMILY_PARAMS.get(family, ()):
        raise InputError(
            f"{family} needs an explicit adjacency list; build it via the library "
            "or pass a graph file"
        )
    if family not in FAMILY_PARAMS:
        choices = [name for name, order in FAMILY_PARAMS.items() if "adjacency" not in order]
        raise InputError(f"unknown family {family!r} (choose from {', '.join(choices)})")
    return [
        FamilySpec(family, params)
        for params in _family_params(args, family, ranged, f"family {family}")
    ]


def _load_graph(args) -> Graph:
    if getattr(args, "graph", None):
        try:
            text = Path(args.graph).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.graph}: {exc}") from None
        return read_graph(text)
    if getattr(args, "family", None):
        (spec,) = _family_spec(args)
        return generate(spec).graph
    raise InputError("provide a graph via --graph FILE or --family NAME")


def _threads(args) -> int:
    raw = args.threads
    if raw is None:
        raw = os.environ.get("SPARING_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"--threads expects an integer, got {raw!r}") from None
    if value < 1:
        raise InputError("--threads must be >= 1")
    return value


def _fmt_witness(witness: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, witness)) + "]"


def _fmt_edges(edges) -> str:
    return "[" + ",".join(f"({u},{v})" for u, v in edges) + "]"


def cmd_solve(args) -> int:
    g = _load_graph(args)
    if g.n > SOLVE_MAX_VERTICES:
        raise TooLarge(f"solve is limited to {SOLVE_MAX_VERTICES} vertices")
    result = sparing_exact(g, threads=_threads(args))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "phi": result.value,
                    "witness": list(result.witness),
                    "mono": [list(e) for e in result.mono],
                    "nodes": result.stats.nodes,
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
    result, labeling = solve_and_certify(g, threads=_threads(args))
    Path(args.out).write_text(write_labeling(g.n, labeling))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "phi": result.value,
                    "mono": len(result.mono),
                    "verified": True,
                    "out": args.out,
                }
            )
        )
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
    try:
        text = Path(args.labeling).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.labeling}: {exc}") from None
    n, labeling = read_labeling(text)
    if n != g.n:
        raise GraphFormatError(f"labeling covers {n} vertices, graph has {g.n}")
    verdict = verify_weak(g, labeling)
    mono_count = len(mono_edges(g, labeling))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": verdict.ok,
                    "mono": mono_count,
                    "failures": [_failure_line(f) for f in verdict.failures],
                }
            )
        )
    else:
        if verdict.ok:
            print(f"weak-IASI: ok, mono={mono_count}")
        else:
            for failure in verdict.failures:
                print(_failure_line(failure))
    return EXIT_OK if verdict.ok else EXIT_VERIFY


@dataclass(frozen=True)
class ReportRow:
    family: str
    params: str
    formula_value: str
    exact_value: int
    verdict: str
    witness_size: int
    mono_count: int
    runtime_ms: int

    def cells(self) -> list[str]:
        return [str(getattr(self, name)) for name in _REPORT_COLUMNS]


_REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _params_string(claim, params: dict) -> str:
    parts = []
    for key in claim.param_order:
        value = params[key]
        if isinstance(value, FamilySpec):
            parts.append(f"base={value.family}")
            parts.append(value.param_string())
        elif isinstance(value, (list, tuple)):
            parts.append(f"{key}=" + ",".join(map(str, value)))
        else:
            parts.append(f"{key}={value}")
    return ",".join(parts)


def _claim_points(claim, args) -> list[dict]:
    """All parameter points requested by the flags, in deterministic order."""
    if "base" in claim.param_order:
        if not args.family:
            raise InputError(f"{claim.id} requires --family for the base graph")
        values = {
            "base": _family_spec(args, ranged=True),
            "mode": ("fresh", "induced") if args.mode == "both" else (args.mode,),
        }
        dims = [[(key, v) for v in values[key]] for key in claim.param_order]
        return [dict(point) for point in _product(dims)]
    owner = f"claim {claim.id}"
    family_order = FAMILY_PARAMS[claim.family]
    if family_order == claim.param_order:
        return _family_params(args, claim.family, True, owner)
    # a one-list family (--parts) whose claim names each item
    (flag,) = family_order
    raw = getattr(args, flag)
    if raw is not None and len([i for i in raw.split(",") if i != ""]) != len(claim.param_order):
        raise InputError(f"{owner} requires --{flag} with {len(claim.param_order)} sizes")
    points = _family_params(args, claim.family, True, owner)
    return [dict(zip(claim.param_order, point[flag])) for point in points]


def cmd_check(args) -> int:
    try:
        claim = claim_by_id(args.claim)
    except KeyError:
        known = ", ".join(c.id for c in claims_mod.catalog())
        raise InputError(f"unknown claim {args.claim!r} (known: {known})") from None
    threads = _threads(args)
    points = _claim_points(claim, args)
    rows: list[ReportRow] = []
    for params in points:
        lg = claim.instance(params)
        if lg.graph.n > SOLVE_MAX_VERTICES:
            raise TooLarge(
                f"claim {claim.id} at {_params_string(claim, params)} needs "
                f"{lg.graph.n} vertices; solve is limited to {SOLVE_MAX_VERTICES}"
            )
        verdict = check_claim(claim, params, lg=lg, threads=threads)
        base = params.get("base")
        rows.append(
            ReportRow(
                family=claim.family if base is None else f"{claim.family}({base.family})",
                params=_params_string(claim, params),
                formula_value=str(verdict.predicted),
                exact_value=verdict.exact,
                verdict=verdict.verdict,
                witness_size=verdict.witness_size,
                mono_count=verdict.mono_count,
                runtime_ms=verdict.runtime_ms,
            )
        )
    matches = sum(1 for r in rows if r.verdict == "MATCH")
    mismatches = sum(1 for r in rows if r.verdict == "MISMATCH")
    summary = f"MATCH={matches} MISMATCH={mismatches}"
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for row in rows:
            writer.writerow(row.cells())
        sys.stdout.write(buffer.getvalue())
        print(summary, file=sys.stderr)
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "rows": [dict(zip(_REPORT_COLUMNS, row.cells())) for row in rows],
                    "matches": matches,
                    "mismatches": mismatches,
                }
            )
        )
    else:
        table = [list(_REPORT_COLUMNS)] + [row.cells() for row in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(_REPORT_COLUMNS))]
        for line in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        print(summary)
    return EXIT_OK


def cmd_corpus(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = _parse_range(args.n, "n")
    rng = random.Random(args.seed)
    for index in range(args.count):
        n = rng.choice(sizes)
        graph_seed = rng.randrange(2**31)
        g = random_graph(n, args.density, graph_seed)
        header = f"# corpus index={index} seed={graph_seed} density={args.density}\n"
        (out_dir / f"graph_{index:03d}.g").write_text(header + write_graph(g))
    print(f"wrote {args.count} graphs to {out_dir}")
    return EXIT_OK


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help="graph family name")
    sub.add_argument("--graph", help="graph file (text format)")
    for flag in _SCALAR_FLAGS:
        sub.add_argument(f"--{flag}")
    sub.add_argument("--parts", help="comma-separated part sizes")
    sub.add_argument("--cliques", help="comma-separated clique sizes")
    sub.add_argument("--cycles", help="comma-separated cycle lengths")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparing",
        description="Exact sparing numbers: solve, certify, verify, and check closed-form claims.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="compute the sparing number and witness")
    _add_family_flags(solve)
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument("--threads", default=None)
    solve.set_defaults(func=cmd_solve)

    certify = subparsers.add_parser("certify", help="solve and write a verified witness labeling")
    _add_family_flags(certify)
    certify.add_argument("--out", required=True, help="labeling output file")
    certify.add_argument("--format", choices=("text", "json"), default="text")
    certify.add_argument("--threads", default=None)
    certify.set_defaults(func=cmd_certify)

    verify = subparsers.add_parser("verify", help="verify a labeling file against a graph")
    _add_family_flags(verify)
    verify.add_argument("--labeling", required=True, help="labeling file to verify")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    check = subparsers.add_parser("check", help="check cataloged claims against the solver")
    _add_family_flags(check)
    check.add_argument("--claim", required=True, help="claim id (C1..C16)")
    check.add_argument("--mode", choices=("fresh", "induced", "both"), default="both",
                       help="evaluation mode of the maximal-subdivision claim")
    check.add_argument("--format", choices=("text", "csv", "json"), default="text")
    check.add_argument("--threads", default=None)
    check.set_defaults(func=cmd_check)

    corpus = subparsers.add_parser("corpus", help="write seeded random test-corpus graphs")
    corpus.add_argument("--count", type=int, default=200)
    corpus.add_argument("--n", default="1..10", help="vertex-count range, e.g. 24 or 1..10")
    corpus.add_argument("--density", type=float, default=0.3)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument("--out-dir", required=True)
    corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CertificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (
        InputError,
        GraphFormatError,
        InvalidParam,
        UnknownPartition,
        DomainError,
        MissingGraph,
        MissingLabel,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
