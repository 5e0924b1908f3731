"""Record the expected `sparing check` rows that the cli_session gate compares against.

Usage: python3 perfbench/record_reference.py

Runs one single-point check op for every point of every claim slot and
stores its CSV row without the volatile runtime_ms column, keyed by claim and
point. Re-record only when a change to the claim report is intended.
"""

from __future__ import annotations

import csv
import json
import sys

from workloads import CHECK_HEADER, REFERENCE_PATH, SLOTS, run_cli, slot_points
from worker import import_program


def main() -> int:
    sparing = import_program()
    rows: dict[str, str] = {}
    for slot in SLOTS:
        for argv, (key,) in slot_points(slot):
            code, out, err = run_cli(sparing, argv)
            lines = out.splitlines()
            if code != 0 or len(lines) != 2 or lines[0] != CHECK_HEADER:
                print(f"error: {' '.join(argv)} exited {code}: {err.strip()}", file=sys.stderr)
                return 1
            (row,) = csv.reader(lines[1:])
            rows[key] = ",".join(row[:-1])
    REFERENCE_PATH.write_text(json.dumps({"header": CHECK_HEADER, "rows": rows}, indent=0) + "\n")
    print(f"recorded {len(rows)} rows in {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
