#!/usr/bin/env python3
"""Write the golden snapshots of the builtin scenarios.

Two files, both written from cold runs without a run store:

* ``builtin_fast.json`` (the tolerance half): every builtin with
  ``--fast`` semantics, reduced to the numeric leaves of its payload,
  one flat ``{"path/to/leaf": value}`` map per scenario.  Strings and
  booleans are dropped.  ``tests/test_golden.py`` compares against it at
  ``rtol=atol=1e-6``, which survives a change of sparse ordering or BLAS.
* ``builtin_digests.json`` (the byte half, ``--digests``): one blake2b
  per builtin in fast and in full mode over the canonical JSON of its
  payload, plus the environment that made them.  The last ulps of a solve
  depend on that environment, so the test compares digests only where it
  matches.

Both drop the wall-clock leaves: ``runtimes_ms``, ``solve_time`` and the
``time [ms]`` column of table rows.

Usage (from the repo root):

    PYTHONPATH=src python scripts/golden_snapshot.py [--digests] [--out PATH]

Regenerate only when a change is *meant* to move the numbers, and say
so where the change is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
DEFAULT_OUT = GOLDEN_DIR / "builtin_fast.json"
DIGESTS_OUT = GOLDEN_DIR / "builtin_digests.json"
MODES = ("fast", "full")

#: payload keys whose values are wall-clock measurements
TIMING_KEYS = frozenset({"runtimes_ms", "solve_time"})
#: table-row column holding wall-clock time (dropped from every row)
TIMING_COLUMN = "time [ms]"


def drop_timings(node: Any) -> Any:
    """``node`` without its wall-clock leaves (keys and table column)."""
    if isinstance(node, dict):
        return {k: drop_timings(v) for k, v in node.items() if k not in TIMING_KEYS}
    if isinstance(node, (list, tuple)):
        skip = None
        if node and isinstance(node[0], (list, tuple)) and TIMING_COLUMN in node[0]:
            skip = list(node[0]).index(TIMING_COLUMN)
        return [
            drop_timings(
                [v for j, v in enumerate(item) if j != skip]
                if skip is not None and isinstance(item, (list, tuple))
                else item
            )
            for item in node
        ]
    return node


def numeric_leaves(payload: Any) -> dict[str, float]:
    """Flatten ``payload`` to its non-timing numeric leaves, keyed by path."""
    leaves: dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}/{key}")
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            leaves[path] = float(node)

    walk(drop_timings(payload), "")
    return leaves


def canonical_json(payload: Any) -> str:
    """The canonical JSON of ``payload`` without its timings."""
    return json.dumps(drop_timings(payload), sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """blake2b of :func:`canonical_json`."""
    return hashlib.blake2b(canonical_json(payload).encode()).hexdigest()


def environment() -> dict[str, Any]:
    """What the last ulps of a solve depend on besides the code."""
    import numpy
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    simd = [
        *umath.__cpu_baseline__,
        *(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]),
    ]
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "numpy_simd": simd,
    }


def builtin_ids() -> list[str]:
    from repro.scenarios import SCENARIOS

    return list(SCENARIOS.ids())


def cold_payload(scenario_id: str, mode: str, **options: Any) -> Any:
    """One builtin's payload from a cold in-process run.

    ``options`` go to :func:`repro.scenarios.run_batch`.  The payload is
    JSON round-tripped as the CLI's ``--output-dir`` writes it.  Raises
    unless every plan node was solved in this run.
    """
    from repro import perf
    from repro.scenarios import run_batch

    perf.reset()
    batch = run_batch([scenario_id], fast=mode == "fast", **options)
    if not batch.stats["solved"] == batch.stats["nodes_total"] > 0:
        raise RuntimeError(f"{scenario_id}/{mode} was not solved cold: {batch.stats}")
    return json.loads(json.dumps(batch.runs[0].result.to_payload(), default=str))


def snapshot(scenario_id: str) -> dict[str, float]:
    """The golden leaves of one builtin's ``--fast`` payload."""
    return numeric_leaves(cold_payload(scenario_id, "fast"))


def digests() -> dict[str, Any]:
    """The byte half: one digest per builtin and mode, and the environment."""
    return {
        "environment": environment(),
        "digests": {
            f"{sid}/{mode}": payload_digest(cold_payload(sid, mode))
            for sid in builtin_ids()
            for mode in MODES
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--digests", action="store_true",
        help=f"write the byte digests (default out: {DIGESTS_OUT.name})",
    )
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.digests:
        out = args.out or DIGESTS_OUT
        golden = digests()
        summary = f"{len(golden['digests'])} digests"
    else:
        out = args.out or DEFAULT_OUT
        golden = {sid: snapshot(sid) for sid in builtin_ids()}
        n = sum(len(v) for v in golden.values())
        summary = f"{n} leaves of {len(golden)} scenarios"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {summary} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
