"""Check that the tests still catch a break of each solver and generator rule.

Usage: python tests/run_mutants.py

Copies ``src/`` and ``tests/`` to a temporary directory and, for each rule
below, applies one textual mutation there and runs the solver, acceptance,
digest, graph and family tests on the mutated copy. Each target text must occur
exactly once, so that code which moved fails here instead of leaving its rule
unchecked.
The unmutated copy must pass first. Exits 1 if a target is missing or a
mutant survives, that is, if the tests pass with a rule broken.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [
    "tests/test_solver.py", "tests/test_acceptance.py", "tests/test_solver_digest.py",
    "tests/test_graphs.py", "tests/test_families.py",
]
SOLVER = "src/sparing/solver.py"
FAMILIES = "src/sparing/families.py"

# (rule, file, target text, mutated text)
MUTANTS = [
    ("the solve cap", SOLVER,
     "if g.n > SOLVE_MAX_VERTICES:", "if g.n > SOLVE_MAX_VERTICES + 1:"),
    ("the clique-cover cap", SOLVER,
     "if not free or cap <= best:", "if not free or cap - 1 <= best:"),
    ("the packing count", SOLVER,
     "    return packed\n", "    return packed + 1\n"),
    ("the floor", SOLVER,
     "goal = edges - edges // 3", "goal = edges - edges // 4"),
    ("the pendant rule", SOLVER,
     "if near.bit_count() > 1 or near and deg[near.bit_length() - 1] > top:", "if True:"),
    ("the pendant rule's degree test", SOLVER,
     "deg[near.bit_length() - 1] > top:", "deg[near.bit_length() - 1] > top + 1:"),
    ("the pendant's neighbor decided out", SOLVER,
     "free ^= low | near", "free ^= low"),
    ("the simplicial rule's clique test", SOLVER,
     "if near & adj[u] != near:", "if near & adj[u] == near:"),
    ("W's vertices kept untested", SOLVER,
     "if not known & jbit:", "if True:"),
    ("W kept after a successful witness test", SOLVER,
     "                continue\n            known = best_set\n", "                continue\n"),
    ("the witness pass's stop rule", SOLVER,
     "if cov_c == goal:", "if cov_c > goal:"),
    ("verify_weak's singleton shortcut", "src/sparing/labels.py",
     "        if size == 1:\n", "        if size <= 2:\n"),
    ("construct_witness's labels", SOLVER,
     "(base, 2 * base) if chosen >> v & 1 else (base,)",
     "(base,) if chosen >> v & 1 else (base, 2 * base)"),
    ("the shared edge rows' growth", "src/sparing/graphs.py",
     "row.extend([(u, v) for v in range(old, n)])",
     "row.extend([(u, v) for v in range(old + 1, n + 1)])"),
    ("random_graph's symmetric bit", FAMILIES,
     "                adj[v] |= bit\n", ""),
    ("random_graph's row-by-row draw order", FAMILIES,
     "    for u in range(n):\n"
     "        bit = bits[u]\n"
     "        row = 0\n"
     "        for v in range(u + 1, n):\n"
     "            if draw() < density:\n"
     "                row |= bits[v]\n"
     "                adj[v] |= bit\n"
     "        adj[u] |= row\n",
     "    for v in range(n):\n"
     "        for u in range(v):\n"
     "            if draw() < density:\n"
     "                adj[u] |= bits[v]\n"
     "                adj[v] |= bits[u]\n"),
]


def tests_pass(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        if not tests_pass(copy):
            print("error: the tests fail without a mutation", file=sys.stderr)
            return 1
        bad = 0
        for rule, name, target, mutated in MUTANTS:
            path = copy / name
            text = path.read_text()
            count = text.count(target)
            if count != 1:
                print(f"MISSING {rule}: {name} holds its target {count} times, not once")
                bad += 1
                continue
            path.write_text(text.replace(target, mutated))
            survived = tests_pass(copy)
            path.write_text(text)
            print(f"{'SURVIVED' if survived else 'killed'} {rule}")
            bad += survived
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
