"""Rewrite the golden corpus from the case tables in corpus.py.

    python3 tests/golden/regen.py

Run it only when a change of output bytes is deliberate, and review the
resulting diff of tests/golden/ like any other change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import corpus  # noqa: E402


def main() -> int:
    (corpus.GOLDEN / "inputs").mkdir(exist_ok=True)
    (corpus.GOLDEN / "cli").mkdir(exist_ok=True)
    for name in corpus.INPUTS:
        (corpus.GOLDEN / "inputs" / f"{name}.txt").write_text(corpus.input_text(name))
    # in table order: the verify case reads a report written before it
    for case, argv in corpus.CLI_CASES:
        code, out = corpus.run_cli(argv)
        meta = {"argv": argv, "exit": code}
        (corpus.GOLDEN / "cli" / f"{case}.json").write_text(json.dumps(meta, indent=1) + "\n")
        (corpus.GOLDEN / "cli" / f"{case}.stdout").write_bytes(out)
        print(f"{case}: exit {code}, {len(out)} bytes")
    records = {case[0]: corpus.library_record(case) for case in corpus.LIBRARY_CASES}
    (corpus.GOLDEN / "library.json").write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"library: {len(records)} witnesses")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
