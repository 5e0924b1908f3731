"""Same answers, same search: a digest of the exact solver on a fixed corpus.

The corpus is split in cells. Each cell stores its graph count, the sums of
``stats.nodes`` and ``stats.value_nodes``, the sha256 of its ``(n, |E|,
value, witness, nodes, value_nodes)`` records and, as ``answers``, the sha256
of its ``(n, |E|, value, witness)`` records alone, in ``solver_digest.json``.
A change that moves a node count or a witness moves its cell, and the test
names every cell that moved. A change that moves node counts on purpose
re-records the file with ``record_solver_digest.py`` and lists the moved
totals; its ``answers`` hashes stay as they were.
"""

import hashlib
import json
import random
from pathlib import Path

from sparing.families import make, random_graph
from sparing.graphs import Graph, graph_from_edges
from sparing.solver import sparing_exact

DIGEST_PATH = Path(__file__).with_name("solver_digest.json")
SMALL_COUNT = 1500
SMALL_MAX_N = 22  # below the brute-force oracle's cap, so the recorder checks each one
SMALL_DENSITIES = (0.1, 0.2, 0.3, 0.5, 0.7)
# seeded G(n,p) where the search is heavy (sparse) and light (dense), as
# solved by the random_solve benchmark workload
GNP_CELLS = (
    (36, 0.05), (38, 0.05), (36, 0.1), (38, 0.1), (36, 0.2),
    (38, 0.2), (40, 0.3), (44, 0.3), (56, 0.5), (64, 0.5),
)
GNP_PER_CELL = 20
# generator numbering is the adversarial order for the branch and bound
LADDER = (("cycle", "n", range(21, 34)), ("path", "n", range(21, 34)), ("wheel", "m", range(15, 34)))


def corpus() -> dict[str, list[Graph]]:
    """The digest's graphs by cell, in a fixed order."""
    cells: dict[str, list[Graph]] = {f"G(<={SMALL_MAX_N},{p})": [] for p in SMALL_DENSITIES}
    rng = random.Random(7)
    for _ in range(SMALL_COUNT):
        n = rng.randint(1, SMALL_MAX_N)
        p = rng.choice(SMALL_DENSITIES)
        cells[f"G(<={SMALL_MAX_N},{p})"].append(random_graph(n, p, rng.randrange(2**31)))
    for i in range(GNP_PER_CELL * len(GNP_CELLS)):
        n, p = GNP_CELLS[i % len(GNP_CELLS)]
        cells.setdefault(f"G({n},{p})", []).append(random_graph(n, p, i))
    rng = random.Random(1)
    for family, key, sizes in LADDER:
        for size in sizes:
            g = make(family, **{key: size}).graph
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            cells.setdefault(f"{family} generated", []).append(g)
            cells.setdefault(f"{family} relabeled", []).append(relabeled)
    return cells


def digest(cells: dict[str, list[Graph]]) -> dict[str, dict]:
    """Each cell's count, node sums, record hash and answers hash."""
    out = {}
    for name, graphs in cells.items():
        records = []
        for g in graphs:
            r = sparing_exact(g)
            records.append([g.n, g.edge_count, r.value, list(r.witness), r.stats.nodes, r.stats.value_nodes])
        text = json.dumps(records, separators=(",", ":"))
        answers = json.dumps([rec[:4] for rec in records], separators=(",", ":"))
        out[name] = {
            "count": len(records),
            "nodes": sum(rec[4] for rec in records),
            "value_nodes": sum(rec[5] for rec in records),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "answers": hashlib.sha256(answers.encode()).hexdigest(),
        }
    return out


def test_solver_digest():
    expected = json.loads(DIGEST_PATH.read_text())
    got = digest(corpus())
    moved = [
        f"{name}: recorded {expected.get(name)}, now {got.get(name)}"
        for name in sorted(expected.keys() | got.keys())
        if expected.get(name) != got.get(name)
    ]
    assert not moved, "cells that moved:\n" + "\n".join(moved)
