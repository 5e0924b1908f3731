"""Check that the tests still catch a break of each solver, generator, reader,
verifier and CLI rule.

Usage: python tests/run_mutants.py

Copies ``src/`` and ``tests/`` to a temporary directory and, for each rule
below, applies one textual mutation there and runs the solver, acceptance,
digest, graph, family, CLI, CLI parser, CLI limit, CLI registry, claim, label,
property and reader fuzz tests on the mutated copy. Each target text must occur
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
    "tests/test_graphs.py", "tests/test_families.py", "tests/test_cli.py",
    "tests/test_cli_parser.py", "tests/test_cli_limits.py", "tests/test_cli_registry.py",
    "tests/test_claims.py", "tests/test_labels.py", "tests/test_properties.py",
    "tests/test_readers_fuzz.py",
]
SOLVER = "src/sparing/solver.py"
FAMILIES = "src/sparing/families.py"
CLI = "src/sparing/cli.py"
GRAPHS = "src/sparing/graphs.py"
LABELS = "src/sparing/labels.py"

# (rule, file, target text, mutated text)
MUTANTS = [
    ("the solve cap", SOLVER,
     "if g.n > SOLVE_MAX_VERTICES:", "if g.n > SOLVE_MAX_VERTICES + 1:"),
    ("the clique-cover cap", SOLVER,
     "if not free or cap <= best:", "if not free or cap - 1 <= best:"),
    ("the packing count", SOLVER,
     "    return packed\n", "    return packed + 1\n"),
    ("the packing stopping one cycle short", SOLVER,
     "_odd_cycle_packing(adj, edges - best)", "_odd_cycle_packing(adj, edges - best - 1)"),
    ("the packing's stop test", SOLVER,
     "            if packed == need:\n                return need\n", ""),
    ("the packing's common-predecessor cut dropped", SOLVER,
     "                    rest[a] = ra ^ cbit\n"
     "                    rest[b] = rb ^ cbit\n"
     "                    rest[cbit.bit_length() - 1] ^= abit | bbit\n",
     ""),
    ("the floor", SOLVER,
     "goal = edges - edges // 3", "goal = edges - edges // 4"),
    ("lex mode only below the floor", SOLVER,
     "lex = cap < goal", "lex = True"),
    ("lex mode's weight test at cap == best", SOLVER,
     "            if not top & d & -d:\n                return\n", "            return\n"),
    ("lex mode's untested read-off", SOLVER,
     "open_ = known if lex else full", "open_ = full"),
    ("the pendant rule", SOLVER,
     "if near.bit_count() > 1 or near and (\n"
     "                deg[near.bit_length() - 1] > top\n"
     "                # lex mode keeps a lower neighbor of equal degree free\n"
     "                or lex and near < low and deg[near.bit_length() - 1] == top\n"
     "            ):\n",
     "if True:\n"),
    ("the pendant rule's degree test", SOLVER,
     "deg[near.bit_length() - 1] > top\n", "deg[near.bit_length() - 1] > top + 1\n"),
    ("the pendant rule's tie clause in lex mode", SOLVER,
     "                or lex and near < low and deg[near.bit_length() - 1] == top\n", ""),
    ("the pendant's neighbor decided out", SOLVER,
     "free ^= low | near", "free ^= low"),
    ("the simplicial rule's clique test", SOLVER,
     "if near & adj[u] != near:", "if near & adj[u] == near:"),
    ("W's vertices kept untested", SOLVER,
     "if not known & jbit:", "if True:"),
    ("W kept after a successful witness test", SOLVER,
     "                    continue\n                known = best_set\n", "                    continue\n"),
    ("the witness pass's stop rule", SOLVER,
     "while open_ and cov_c != goal:", "while open_:"),
    ("the extension accepted one short of the optimum", SOLVER,
     "if ext_cov == goal:", "if ext_cov >= goal - 1:"),
    ("the extension keeping a taken vertex's neighbors", SOLVER,
     "rest &= ~(adj[v] | low)", "rest ^= low"),
    ("a short extension counted as a failed test, with no search run", SOLVER,
     "                best = goal - 1\n"
     "                search(0, free, cov, inc)\n"
     "                if best < goal:\n"
     "                    continue\n"
     "                known = best_set\n",
     "                continue\n"),
    ("the singleton-singleton branch's mono edge", LABELS,
     "                sums.append((x + b[0],))\n                mono.append(e)\n",
     "                sums.append((x + b[0],))\n"),
    ("the two-non-singleton edge not marked wrong", LABELS,
     "            sums.append(sumset(a, b))\n            wrong.append(e)\n",
     "            sums.append(sumset(a, b))\n"),
    ("verify_weak's edge-collision test", LABELS,
     "if len(set(sums)) < len(sums):", "if False:"),
    ("the verify route with read_labeling's rule check skipped", LABELS,
     "    _check_labels(values, labels, GraphFormatError, _FILE_REASONS)\n", ""),
    ("write_labeling's vertex-count type test", LABELS,
     "    if type(n) is not int:\n        raise IndexOutOfRange", "    if False:\n        raise IndexOutOfRange"),
    ("write_labeling's vertex cap dropped", LABELS,
     "if n > SOLVE_MAX_VERTICES:\n        raise TooLarge(", "if False:\n        raise TooLarge("),
    ("read_graph's repeated-bit test", GRAPHS,
     "            if adj[u] & bit:\n                repeats += 1\n",
     "            if False:\n                repeats += 1\n"),
    ("read_graph dropping an edge out of range", GRAPHS,
     "if n < 0 or outside:", "if n < 0:"),
    ("read_graph's repeat test on edges out of range", GRAPHS,
     "if repeats or len(set(outside)) < len(outside):", "if repeats:"),
    ("write_graph's vertex cap dropped", GRAPHS,
     "if g.n > SOLVE_MAX_VERTICES:", "if False:"),
    ("construct_witness's mask independence test dropped", SOLVER,
     "if any(g._adj[v] & chosen for v in independent):", "if False:"),
    ("construct_witness's labels", SOLVER,
     "_WITNESS_LABELS[v][chosen >> v & 1]", "_WITNESS_LABELS[v][not chosen >> v & 1]"),
    ("one vertex's witness labels swapped", SOLVER,
     "for v in range(WITNESS_MAX_VERTICES)]\n",
     "for v in range(WITNESS_MAX_VERTICES)]\n_WITNESS_LABELS[3] = _WITNESS_LABELS[3][::-1]\n"),
    ("an edge-line table entry", GRAPHS,
     "    for v in range(u + 1, SOLVE_MAX_VERTICES)\n}\n",
     "    for v in range(u + 1, SOLVE_MAX_VERTICES)\n}\n_EDGE_LINES[\"e 0 5\"] = (0, 6)\n"),
    ("a split edge line looked up with its endpoints swapped", GRAPHS,
     'lines.get(f"e {fields[1]} {fields[2]}")', 'lines.get(f"e {fields[2]} {fields[1]}")'),
    ("the edge-line table read before the header", GRAPHS,
     "if edge is None or n is None:", "if edge is None:"),
    ("the shared edge table's diagonal", GRAPHS,
     "[None] * (u + 1)", "[None] * u"),
    ("generate's cap", FAMILIES,
     "if n > SOLVE_MAX_VERTICES:", "if n > SOLVE_MAX_VERTICES + 1:"),
    ("a family count", FAMILIES,
     'lambda p: p["r"] * (p["n"] - 1) + 1', 'lambda p: p["r"] * (p["n"] - 1)'),
    ("a named multipartite family's part count", FAMILIES,
     'len(params["parts"]) == k', "True"),
    ("an adjacency entry's upper bound", FAMILIES,
     "0 <= u < end", "0 <= u <= end"),
    ("vertex_count's point", FAMILIES,
     'if named else ""', 'if False else ""'),
    ("the cycle join's closing edge", FAMILIES,
     "_join_path(adj, (*block, block[0]))", "_join_path(adj, block)"),
    ("the clique join setting each vertex's own bit", FAMILIES,
     "adj[v] |= mask ^ 1 << v", "adj[v] |= mask"),
    ("the star join setting only the hub's row", FAMILIES,
     "        adj[hub] |= 1 << v\n        adj[v] |= bit\n", "        adj[hub] |= 1 << v\n"),
    ("_chain's shared cut vertex", FAMILIES,
     "start += size - 1", "start += size"),
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
    ("_write's loop over partial writes", CLI,
     "            while written < len(data):\n", "            if True:\n"),
    ("_write's shrink of a longer file", CLI,
     "                os.ftruncate(fd, written)\n", "                pass\n"),
    ("_read's newline translation", CLI,
     r'.replace("\r\n", "\n").replace("\r", "\n")', ""),
    ("the direct route's extras", CLI,
     "args, extras = command.parse_known_args(argv[1:])",
     "args, extras = command.parse_known_args(argv[1:])[0], []"),
    ("main's leading -- before a command", CLI,
     "        argv = argv[1:]\n", "        pass\n"),
    ("the top point's count checked below a least value", CLI,
     "if not below_least(top, FAMILY_PARAMS[family]):", "if True:"),
    ("the top point's count never checked", CLI,
     "if not below_least(top, FAMILY_PARAMS[family]):", "if False:"),
    ("graph_from_edges' endpoint type test", GRAPHS,
     "if type(u) is not int or type(v) is not int:", "if False:"),
    ("_check_vertex's type test", GRAPHS,
     "if type(v) is not int or not 0 <= v < self.n:", "if not 0 <= v < self.n:"),
    ("the label rule's element-type test dropped", LABELS,
     "if not {int}.issuperset(map(type, elems)):", "if False:"),
    ("the label rule's strict-increase test dropped", LABELS,
     "if not all(all(map(lt, lab, lab[1:])) for lab in labels if len(lab) > 1):", "if False:"),
    ("the label rule's non-empty test dropped", LABELS,
     "if not all(labels):", "if False:"),
    ("make_label normalizing what is not all exact ints", LABELS,
     "if _fault([label]) != _NOT_INTS:", "if True:"),
    ("the flags' integer spelling", CLI,
     "return parse_int(text)", "return int(text)"),
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
