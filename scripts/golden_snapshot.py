#!/usr/bin/env python3
"""Write the tolerance golden snapshot of the builtin scenarios.

Runs every registered builtin scenario with ``--fast`` semantics (no run
store) and records the numeric leaves of its payload: one flat
``{"path/to/leaf": value}`` map per scenario.  Wall-clock leaves
(``runtimes_ms``, ``solve_time`` and the ``time [ms]`` column of table
rows) are dropped, and so are strings and booleans.

Byte digests would pin the last ulps of every solve, which a change of
sparse ordering or BLAS legitimately moves; ``tests/test_golden.py``
instead compares against this file at ``rtol=atol=1e-6``.

Usage (from the repo root):

    PYTHONPATH=src python scripts/golden_snapshot.py [--out PATH]

Regenerate only when a change is *meant* to move the numbers, and say
so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "tests" / "golden" / "builtin_fast.json"

#: payload keys whose values are wall-clock measurements
TIMING_KEYS = frozenset({"runtimes_ms", "solve_time"})
#: table-row column holding wall-clock time (dropped from every row)
TIMING_COLUMN = "time [ms]"


def numeric_leaves(payload: Any) -> dict[str, float]:
    """Flatten ``payload`` to its non-timing numeric leaves, keyed by path."""
    leaves: dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                if key not in TIMING_KEYS:
                    walk(node[key], f"{path}/{key}")
        elif isinstance(node, (list, tuple)):
            skip = None
            if node and isinstance(node[0], (list, tuple)) and TIMING_COLUMN in node[0]:
                skip = list(node[0]).index(TIMING_COLUMN)
            for i, item in enumerate(node):
                if skip is not None and isinstance(item, (list, tuple)):
                    item = [v for j, v in enumerate(item) if j != skip]
                walk(item, f"{path}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[path] = float(node)

    walk(payload, "")
    return leaves


def builtin_ids() -> list[str]:
    from repro.scenarios import SCENARIOS

    return list(SCENARIOS.ids())


def snapshot(scenario_id: str) -> dict[str, float]:
    """The golden leaves of one builtin's ``--fast`` payload."""
    from repro.scenarios import run_scenario

    payload = run_scenario(scenario_id, fast=True).result.to_payload()
    # the same JSON round trip the CLI's --output-dir applies
    return numeric_leaves(json.loads(json.dumps(payload, default=str)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    golden = {sid: snapshot(sid) for sid in builtin_ids()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    n = sum(len(v) for v in golden.values())
    print(f"wrote {n} leaves of {len(golden)} scenarios to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
