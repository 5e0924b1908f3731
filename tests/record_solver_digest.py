"""Record the solver digest that tests/test_solver_digest.py compares against.

Usage: PYTHONPATH=src python tests/record_solver_digest.py

Every corpus graph small enough for the brute-force oracle is first checked
against it: value, witness and mono must be the oracle's. Re-record only when
a change moves node counts or witnesses on purpose, and list the cells whose
totals moved. Each cell also gets an ``answers`` hash over its values and
witnesses alone; a cell whose answers hash moves is named as such, so that a
change meant to move node counts only shows at once if it moved an answer.
"""

from __future__ import annotations

import json
import sys

from sparing.solver import BRUTEFORCE_MAX_VERTICES, sparing_bruteforce, sparing_exact
from test_solver_digest import DIGEST_PATH, corpus, digest


def main() -> int:
    cells = corpus()
    checked = 0
    for name, graphs in cells.items():
        for g in graphs:
            if g.n > BRUTEFORCE_MAX_VERTICES:
                continue
            exact, oracle = sparing_exact(g), sparing_bruteforce(g)
            if (exact.value, exact.witness, exact.mono) != (oracle.value, oracle.witness, oracle.mono):
                print(f"error: {name} graph {g.n}:{g.edges()}: solver {exact.value} "
                      f"{exact.witness}, oracle {oracle.value} {oracle.witness}", file=sys.stderr)
                return 1
            checked += 1
    old = json.loads(DIGEST_PATH.read_text()) if DIGEST_PATH.exists() else {}
    new = digest(cells)
    for name, cell in new.items():
        was = old.get(name)
        if was != cell:
            before = "new" if was is None else f"nodes {was['nodes']}, value_nodes {was['value_nodes']}"
            print(f"{name}: {before} -> nodes {cell['nodes']}, value_nodes {cell['value_nodes']}")
            if was is not None and was.get("answers") not in (None, cell["answers"]):
                print(f"{name}: answers moved")
    DIGEST_PATH.write_text(json.dumps(new, indent=1) + "\n")
    print(f"checked {checked} graphs against the oracle; recorded {len(new)} cells in {DIGEST_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
