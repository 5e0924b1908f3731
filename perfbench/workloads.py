"""The three workloads: what each run draws from its seed, builds and checks.

A workload is split in three steps so that only program work is timed:

- ``plan(rng, seconds)`` draws every input parameter from the seed, sized so
  that one pass takes about ``seconds``. It is pure data and runs before the
  clock starts.
- ``build(sparing, plan, workdir, oracle)`` turns the plan into inputs by
  calling the program (generators, file writers). It is the timed set-up, and
  yields the ops one by one, so that the worker can time it in steps: one
  closure per timed call, each looking its program function up at call time
  so the tracer's wrappers are seen.
- each op's ``check(result)`` is the correctness gate, run after the pass.
  It returns None or a message saying why the op failed.

``files(plan)`` names the files a pass writes in its work directory. They are
made empty before the clock starts: making a file costs about 0.5 ms on an
ext4 disk shared with other tenants and varies twofold, which would swamp the
writing of a 30-vertex graph.

Every op of a run is a distinct call, and no two ops hand the solver the same
graph: inputs are redrawn until they differ, claim checks cover disjoint
points, and runs grow with more seed-drawn inputs, never with repeats.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "check_reference.json"
MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
BRUTEFORCE_MAX = 24  # the oracle's own vertex cap
CERTIFY_ORACLE_MAX = 14  # certify graphs this small are also solved by the oracle


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# --- shared gate ------------------------------------------------------------


class Oracle:
    """sparing_bruteforce answers by graph, in a file that the passes of one run share.

    The passes of a run solve the same graphs, so the exhaustive search runs
    once per graph and run, while every pass's outputs are compared with it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.answers = json.loads(path.read_text()) if path.exists() else {}

    def answer(self, sparing, g) -> tuple[int, tuple[int, ...]]:
        key = f"{g.n}:{g.edges()}"
        if key not in self.answers:
            result = sparing.sparing_bruteforce(g)
            self.answers[key] = [result.value, list(result.witness)]
        value, witness = self.answers[key]
        return value, tuple(witness)

    def save(self) -> None:
        self.path.write_text(json.dumps(self.answers))


def solve_errors(sparing, oracle: Oracle, g, result, expected: int | None) -> str | None:
    """Value, witness and mono checks every solve must pass."""
    if expected is not None and result.value != expected:
        return f"value {result.value}, closed form {expected}"
    if not sparing.is_independent(g, result.witness):
        return f"witness {result.witness} is not independent"
    inside = set(result.witness)
    complement = [v for v in range(g.n) if v not in inside]
    if tuple(sparing.edges_within(g, complement)) != result.mono:
        return "mono differs from the edges inside the witness complement"
    if len(result.mono) != result.value:
        return f"{len(result.mono)} mono edges for value {result.value}"
    if g.n <= BRUTEFORCE_MAX:
        value, witness = oracle.answer(sparing, g)
        if (value, witness) != (result.value, tuple(result.witness)):
            return (
                f"oracle gives value {value} witness {witness}, "
                f"solver {result.value} {result.witness}"
            )
    return None


def _relabel(sparing, g, perm: list[int]):
    return sparing.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# --- structured_solve -------------------------------------------------------

# Generator numbering is the adversarial order for the branch-and-bound:
# cycle n=33 takes 196,743 nodes as generated against about 20,000 relabeled,
# so both numberings are solved and a change that helps only one shows. The
# ladder is fixed (about 3 s at the reference pace of pace.py) and spans
# costs from 1 ms to 0.4 s, so it sets wall_s but would make poor
# percentiles: the seed-drawn cacti fill the rest of the pass with many
# solves of similar cost (3 to 15 ms), and the latency percentiles fall
# among them. About 30 rungs cost more than any cactus, so a pass needs some
# 400 cactus solves to keep p90 off the rungs, where costs jump. The cacti
# have 26 to 29 vertices, above the oracle's cap, which keeps the gate short.
LADDER = (
    [("cycle", {"n": n}) for n in range(21, 34)]
    + [("path", {"n": n}) for n in range(21, 34)]
    + [("wheel", {"m": m}) for m in range(15, 34)]
)
LADDER_SECONDS = 3.0
CACTUS_SIZES = range(26, 30)
CACTUS_PER_SECOND = 100


def closed_form(family: str, params: dict) -> int:
    if family == "cycle":
        return params["n"] % 2
    if family == "path":
        return 0
    if family == "wheel":
        m = params["m"]
        return m // 2 if m % 2 == 0 else (m + 3) // 2
    if family == "cactus_chain":
        return sum(length % 2 for length in params["cycles"])
    raise ValueError(family)


def _cactus_lengths(rng, vertices: int) -> list[int]:
    """Cycle lengths 3..9 chained on shared cut vertices, about ``vertices`` in all."""
    lengths, n = [], 1
    while vertices - n >= 2:
        length = rng.randint(3, min(9, vertices - n + 1))
        lengths.append(length)
        n += length - 1
    return lengths


def _permutation(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def structured_plan(rng, seconds: float) -> list[tuple]:
    items = [(family, params) for family, params in LADDER]
    seen = set()
    count = max(MIN_OPS // 2 - len(LADDER), round(CACTUS_PER_SECOND * (seconds - LADDER_SECONDS)))
    while len(seen) < count:
        size = CACTUS_SIZES[len(seen) % len(CACTUS_SIZES)]
        lengths = tuple(_cactus_lengths(rng, size))
        if lengths not in seen:
            seen.add(lengths)
            items.append(("cactus_chain", {"cycles": list(lengths)}))
    plan = []
    for family, params in items:
        vertices = _vertex_count(family, params)
        plan.append((family, params, None))
        plan.append((family, params, _permutation(rng, vertices)))
    return plan


def _vertex_count(family: str, params: dict) -> int:
    if family == "wheel":
        return params["m"] + 1
    if family == "cactus_chain":
        return sum(params["cycles"]) - len(params["cycles"]) + 1
    return params["n"]


def structured_build(sparing, plan, workdir: Path, oracle: Oracle) -> Iterator[Op]:
    for family, params, perm in plan:
        g = sparing.generate(sparing.FamilySpec(family, params)).graph
        if perm is not None:
            g = _relabel(sparing, g, perm)
        expected = closed_form(family, params)
        numbering = "generated" if perm is None else "relabeled"
        yield Op(
            f"{family} {params} {numbering}",
            lambda g=g: sparing.sparing_exact(g),
            lambda r, g=g, e=expected: solve_errors(sparing, oracle, g, r, e),
        )


# --- random_solve -----------------------------------------------------------

# Sparse G(n,p) is where the search is heavy and dense G(n,p) where it is
# light. Sizes grow with density so that every cell costs about 5 to 15 ms
# a solve: G(64,0.1) alone takes 0.3 to 4 s depending on its seed, and a few
# such draws would decide a run's figures by themselves.
GNP_CELLS = (
    (36, 0.05), (38, 0.05), (36, 0.1), (38, 0.1), (36, 0.2),
    (38, 0.2), (40, 0.3), (44, 0.3), (56, 0.5), (64, 0.5),
)
GNP_PER_SECOND = 100


def random_plan(rng, seconds: float) -> list[tuple]:
    count = max(MIN_OPS, round(GNP_PER_SECOND * seconds))
    seeds = rng.sample(range(2**31), count)
    return [(*GNP_CELLS[i % len(GNP_CELLS)], seeds[i]) for i in range(count)]


def random_build(sparing, plan, workdir: Path, oracle: Oracle) -> Iterator[Op]:
    for n, p, seed in plan:
        g = sparing.random_graph(n, p, seed)
        yield Op(
            f"G({n},{p}) seed={seed}",
            lambda g=g: sparing.sparing_exact(g),
            lambda r, g=g: solve_errors(sparing, oracle, g, r, None),
        )


# --- cli_session ------------------------------------------------------------

# Desk-scale claim checks. A slot is one claim with fixed flags and a grid of
# points: each dim is a flag and the values it takes (dims sharing a flag are
# joined by commas, as in --parts 1..3,2). A plan cuts every dim's values into
# runs of consecutive integers at seed-drawn places, and each box of the cut
# grid is one check op, so the ops of a slot cover its grid exactly once. The
# grids are chosen so that no two points of all slots hand the solver the
# same graph: C5/C6 and C7/C8 build the same graphs, small parts turn one
# family into another (a star, a K_n, a triangle), and C12/C13 solve their
# base graph, so each of these takes its own part of the shared ranges (C13
# runs each mode on its own bases for the same reason). tests/test_workloads.py
# checks that no check op repeats a solve of another; within one op C13 still
# solves its base twice, which is the program's own work.


def _slot(claim, dims, fixed=(), mode=None):
    return {"claim": claim, "fixed": tuple(fixed), "dims": dims, "mode": mode}


def _dims(flag: str, lo: int, hi: int, count: int = 1) -> list[tuple[str, tuple[int, ...]]]:
    return [(flag, tuple(range(lo, hi + 1)))] * count


# base family -> C12 range, C13 fresh range, C13 induced range
_BASES = {
    "path": ((3, 8), (9, 13), (14, 18)),
    "cycle": ((4, 8), (9, 11), (12, 14)),
    "complete": ((3, 4), (5, 6), (7, 8)),
}
SLOTS = [
    _slot("C1", _dims("n", 9, 28)),
    _slot("C2", [("n", tuple(range(15, 26, 2)))]),
    _slot("C3", _dims("parts", 2, 12, 2)),
    _slot("C4", _dims("n", 3, 16)),
    _slot("C5", [*_dims("r", 3, 8), *_dims("s", 2, 3)]),
    _slot("C6", [*_dims("r", 3, 8), *_dims("s", 4, 5)]),
    _slot("C7", [*_dims("parts", 1, 2), *_dims("parts", 2, 6, 2)]),
    _slot("C8", [*_dims("parts", 3, 6), *_dims("parts", 1, 6, 2)]),
    *[_slot("C9", _dims("cliques", 4, hi, k)) for k, hi in ((2, 7), (3, 7), (4, 6))],
    _slot("C10", [*_dims("n", 4, 6), *_dims("r", 2, 5)]),
    _slot("C11", _dims("r", 2, 12)),
    *[_slot("C12", _dims("n", *ranges[0]), ("--family", fam)) for fam, ranges in _BASES.items()],
    *[
        _slot("C13", _dims("n", *ranges[i]), ("--family", fam), mode)
        for fam, ranges in _BASES.items() for i, mode in ((1, "fresh"), (2, "induced"))
    ],
    *[_slot("C14", _dims("cycles", 3, hi, k)) for k, hi in ((2, 7), (3, 7), (4, 5))],
    _slot("C15", _dims("m", 4, 20)),
    _slot("C16", [*_dims("m", 4, 14), *_dims("n", 2, 7)]),
]
CUT_CHANCE = 0.5  # chance that a box boundary falls between two neighbouring values
PAIRS_PER_SECOND = 200
CHECK_GRID_SECONDS = 0.7  # one pass over every slot's grid on a 2.1 GHz core
CERTIFY_SIZES = range(12, 30)  # certify stops below 30 vertices
CERTIFY_DENSITIES = (0.1, 0.2, 0.3, 0.4)
CHECK_HEADER = "family,params,formula_value,exact_value,verdict,witness_size,mono_count,runtime_ms"


def check_op(slot, runs: list[tuple[int, ...]]) -> tuple[list[str], list[str]]:
    """The argv of the check op over one box and the reference keys of its rows, in CLI order."""
    argv = ["check", "--claim", slot["claim"], *slot["fixed"]]
    flags: dict[str, list[str]] = {}
    for (flag, _), run in zip(slot["dims"], runs):
        flags.setdefault(flag, []).append(str(run[0]) if len(run) == 1 else f"{run[0]}..{run[-1]}")
    for flag, items in flags.items():
        argv += [f"--{flag}", ",".join(items)]
    mode = slot["mode"]
    if mode is not None:
        argv += ["--mode", mode]
    prefix = [slot["claim"], *slot["fixed"][1:]]
    keys = [":".join(map(str, [*prefix, *point, *([mode] if mode else [])]))
            for point in itertools.product(*runs)]
    return argv + ["--format", "csv"], keys


def _runs(rng, values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split values into runs of consecutive integers, cut at random between neighbours."""
    runs = [[values[0]]]
    for prev, value in zip(values, values[1:]):
        if value != prev + 1 or rng.random() < CUT_CHANCE:
            runs.append([])
        runs[-1].append(value)
    return [tuple(run) for run in runs]


def slot_partition(rng, slot) -> list[tuple[list[str], list[str]]]:
    """Check ops whose boxes cover the slot's grid, each point exactly once."""
    cuts = [_runs(rng, values) for _, values in slot["dims"]]
    return [check_op(slot, list(box)) for box in itertools.product(*cuts)]


def slot_points(slot) -> list[tuple[list[str], list[str]]]:
    """One single-point check op per point of the slot's grid."""
    return [check_op(slot, [(v,) for v in point])
            for point in itertools.product(*(values for _, values in slot["dims"]))]


def cli_plan(rng, seconds: float) -> list[tuple]:
    units: list[tuple] = [
        ("check", argv, keys) for slot in SLOTS for argv, keys in slot_partition(rng, slot)
    ]
    pairs = max(MIN_OPS // 2, round(PAIRS_PER_SECOND * (seconds - CHECK_GRID_SECONDS)))
    # every size and density in turn, so that the seed draws graphs but not the mix of costs
    cells = list(itertools.product(CERTIFY_SIZES, CERTIFY_DENSITIES))
    for i, seed in enumerate(rng.sample(range(2**31), pairs)):
        units.append(("pair", *cells[i % len(cells)], seed))
    rng.shuffle(units)
    return units


_CERTIFY_LINE = re.compile(r"phi=(\d+) mono=(\d+) verified=true\n")


def run_cli(sparing, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sparing.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv by exiting
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_errors(result, keys: list[str], reference: dict) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    lines = out.splitlines()
    if not lines or lines[0] != CHECK_HEADER:
        return "missing CSV header"
    rows = [",".join(row[:-1]) for row in csv.reader(lines[1:])]
    expected = [reference[k] for k in keys]
    if rows != expected:
        return f"rows differ from the recorded reference for {keys}"
    verdicts = [row.split(",")[-3] for row in rows]
    summary = f"MATCH={verdicts.count('MATCH')} MISMATCH={verdicts.count('MISMATCH')}"
    if err.strip() != summary:
        return f"summary {err.strip()!r}, rows give {summary!r}"
    return None


def cli_build(sparing, plan, workdir: Path, oracle: Oracle) -> Iterator[Op]:
    reference = json.loads(REFERENCE_PATH.read_text())["rows"]
    certified: dict[str, int] = {}  # graph file -> phi its certify op printed

    def check_certify(result, graph_file, g):
        code, out, err = result
        match = _CERTIFY_LINE.fullmatch(out)
        if code != 0 or not match:
            return f"certify exit {code}: {out.strip()} {err.strip()}"
        phi, mono = int(match[1]), int(match[2])
        if phi != mono:
            return f"certify printed phi={phi} but mono={mono}"
        if g.n <= CERTIFY_ORACLE_MAX and oracle.answer(sparing, g)[0] != phi:
            return f"certify printed phi={phi}, the oracle disagrees"
        certified[graph_file] = phi
        return None

    def check_verify(result, graph_file):
        code, out, err = result
        if graph_file not in certified:
            return "its certify op failed"
        if code != 0 or out != f"weak-IASI: ok, mono={certified[graph_file]}\n":
            return f"verify exit {code}: {out.strip()} {err.strip()}"
        return None

    for index, unit in enumerate(plan):
        if unit[0] == "check":
            _, argv, keys = unit
            yield Op(
                " ".join(argv),
                lambda argv=argv: run_cli(sparing, argv),
                lambda r, keys=keys: _check_errors(r, keys, reference),
            )
            continue
        _, n, p, seed = unit
        g = sparing.random_graph(n, p, seed)
        graph_file, labeling_file = (str(workdir / name) for name in _pair_files(index))
        Path(graph_file).write_text(sparing.write_graph(g))
        certify = ["certify", "--graph", graph_file, "--out", labeling_file]
        verify = ["verify", "--graph", graph_file, "--labeling", labeling_file]
        yield Op(
            f"certify G({n},{p}) seed={seed}",
            lambda argv=certify: run_cli(sparing, argv),
            lambda r, f=graph_file, g=g: check_certify(r, f, g),
        )
        yield Op(
            f"verify G({n},{p}) seed={seed}",
            lambda argv=verify: run_cli(sparing, argv),
            lambda r, f=graph_file: check_verify(r, f),
        )


def _pair_files(index: int) -> tuple[str, str]:
    return f"g{index}.g", f"g{index}.json"


def cli_files(plan) -> list[str]:
    return [name for index, unit in enumerate(plan) if unit[0] == "pair"
            for name in _pair_files(index)]


def no_files(plan) -> list[str]:
    return []


WORKLOADS = {
    "structured_solve": (structured_plan, structured_build, no_files),
    "random_solve": (random_plan, random_build, no_files),
    "cli_session": (cli_plan, cli_build, cli_files),
}
