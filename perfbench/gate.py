"""Output correctness gate: reference digests and store checks.

The reference is an in-process, serial, store-less ``run_batch`` of the
very specs a workload feeds the CLI.  Every timed invocation is judged
against it: each run artifact the invocation should have produced must be
in its store and must digest, after normalising, to the reference.

Normalising drops only the two wall-clock fields the program records,
``runtimes_ms`` and ``solve_time``.  Table I's ``time [ms]`` column is
``runtimes_ms`` rendered into the table rows, so it goes with it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

WALL_CLOCK_FIELDS = ("runtimes_ms", "solve_time")
#: the header cell of a rendered ``runtimes_ms`` column in table rows
WALL_CLOCK_COLUMN = "time [ms]"


def normalise(payload: Any) -> Any:
    """``payload`` without its wall-clock fields (a new object)."""
    if isinstance(payload, dict):
        return {
            key: normalise(value)
            for key, value in payload.items()
            if key not in WALL_CLOCK_FIELDS
        }
    if isinstance(payload, list):
        header = payload[0] if payload and isinstance(payload[0], list) else None
        if header is not None and WALL_CLOCK_COLUMN in header:
            column = header.index(WALL_CLOCK_COLUMN)
            return [
                [normalise(cell) for i, cell in enumerate(row) if i != column]
                if isinstance(row, list) else normalise(row)
                for row in payload
            ]
        return [normalise(item) for item in payload]
    return payload


def digest(payload: Any) -> str:
    """Content digest of a normalised payload."""
    text = json.dumps(normalise(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@dataclass
class Reference:
    """What a correct invocation over the same specs must produce."""

    #: run key -> normalised payload digest
    digests: dict[str, str] = field(default_factory=dict)
    #: run key -> plan nodes of that scenario compiled on its own
    nodes: dict[str, int] = field(default_factory=dict)
    #: scenario id -> run key
    keys: dict[str, str] = field(default_factory=dict)
    #: plan nodes of the merged plan of all the specs
    plan_nodes: int = 0
    #: solves the serial run dispatched (``plan_point_solves``)
    point_solves: int = 0


def load_specs(paths: list[Path], builtins: tuple[str, ...] = ()) -> list:
    from repro.scenarios import SCENARIOS, ScenarioSpec

    return [SCENARIOS.get(b) for b in builtins] + [ScenarioSpec.load(p) for p in paths]


def reference(specs: list) -> Reference:
    """Serial, store-less, in-process run of ``specs`` from cold caches."""
    from repro import perf
    from repro.scenarios import run_batch
    from repro.scenarios.plan import compile_plan

    perf.reset()
    batch = run_batch(specs)
    ref = Reference(
        plan_nodes=batch.stats.get("nodes_total", 0),
        point_solves=perf.stats()["counters"].get("plan_point_solves", 0),
    )
    for run in batch.runs:
        if run.failed:
            raise RuntimeError(f"reference run of {run.spec.scenario_id} failed")
        ref.digests[run.key] = digest(run.result.to_payload())
        ref.keys[run.spec.scenario_id] = run.key
        ref.nodes[run.key] = compile_plan([run.spec]).stats["nodes_total"]
    return ref


def check_store(store_dir: Path, ref: Reference, keys: list[str] | None = None) -> list[str]:
    """Problems with the run artifacts in ``store_dir`` (empty when correct).

    Every key (default: all of the reference's) must be indexed, readable
    through its checksum envelope, and digest to the reference.
    """
    from repro.scenarios import RunStore

    problems = []
    if not store_dir.is_dir():
        return [f"no store at {store_dir}"]
    store = RunStore(store_dir)
    for key in ref.digests if keys is None else keys:
        payload = store.get(key)
        if payload is None:
            problems.append(f"run {key} missing from the store")
        elif digest(payload) != ref.digests[key]:
            problems.append(f"run {key} digest differs from the reference")
    return problems


def fleet_solves(store_dir: Path, workers: int) -> tuple[list[int], list[float]]:
    """Per-rank ``plan_point_solves`` and busy seconds from fleet reports."""
    from repro.scenarios.fleet import read_reports

    reports = read_reports(store_dir, workers)
    return (
        [r.counters.get("plan_point_solves", 0) for r in reports],
        [r.elapsed_s for r in reports],
    )
