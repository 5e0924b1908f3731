"""Record the CLI transcript that tests/test_cli_transcript.py compares against.

Usage: PYTHONPATH=src python tests/record_cli_transcript.py

Runs the test's session of CLI calls in a temporary directory and writes what
they printed and the files they left. Re-record only when a change moves the
output on purpose; the calls and files that moved are listed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from test_cli_transcript import TRANSCRIPT_PATH, session


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        new = session(Path(workdir))
    old = json.loads(TRANSCRIPT_PATH.read_text()) if TRANSCRIPT_PATH.exists() else {}
    old_calls = {tuple(call["argv"]): call for call in old.get("calls", [])}
    for call in new["calls"]:
        if old_calls.get(tuple(call["argv"])) != call:
            print(f"moved: {' '.join(call['argv'])}")
    for name, text in new["files"].items():
        if old.get("files", {}).get(name) != text:
            print(f"moved: file {name}")
    TRANSCRIPT_PATH.write_text(json.dumps(new, indent=1) + "\n")
    print(f"recorded {len(new['calls'])} calls and {len(new['files'])} files "
          f"in {TRANSCRIPT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
