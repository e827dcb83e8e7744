#!/usr/bin/env python3
"""Same-run paired performance gate: four A/B speed ratios in one process.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/same_run_gate.py

Each check times two ways of doing the same work, side A (the reference)
and side B (the optimised path), as interleaved pairs in one process.
The side that goes first alternates from pair to pair, so drift in
machine load hits both sides alike.  A check compares the median of its
per-pair ratios A/B with its threshold; no baseline from another run or
machine is involved.

* ``multi_rhs_batched_wins``: a 48-point power sweep of one coarse FEM
  matrix, per point against one stacked unit (one factor, one RHS per
  point); B must be at least 2x faster.
* ``parallel_group_dispatch_wins``: the same sweep on 2 worker processes,
  per-point tasks against stacked sub-units; at least 1.5x.
* ``stacked_batched_wins``: a 1000-point Model A liner sweep (a different
  matrix per point), per point against one batched dense solve; at
  least 3x.
* ``checksum_under_5pct``: point reads from a store of 5000, verified
  against unverified (ratio verified/plain); the verified reads may cost
  at most 5% more, or less than 1 µs a read in the median pair.  A pair
  is 100 reads a side, and the pairs walk the store 21 times.  Short
  pairs track load drift: on one tree and 2 CPUs, blocks of 21 pairs of
  5000 reads gave medians of 0.999-1.052, blocks of 1050 pairs of 100
  reads 1.031-1.034.

Exit status 0 when every check holds, 1 otherwise.  Byte identity of the
two sides of each check is tier-1's job (``tests/test_multi_rhs.py``,
``tests/test_stacked_batches.py``, ``tests/test_golden.py``), not this
script's.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

Side = Callable[[], object]

#: worker processes of the parallel dispatch check
JOBS = 2
#: point reads a side of the checksum check makes per pair
CHUNK = 100


@dataclass(frozen=True)
class Check:
    """One same-run gate: the median per-pair ratio against ``threshold``.

    The ratio is A/B (a speed-up floor) or, with ``at_most``, B/A (an
    overhead bound); ``floor_s`` lets a median per-pair difference B - A
    below it pass regardless of the ratio, so an overhead too small to
    matter cannot fail the bound on a fast pair.
    """

    name: str
    threshold: float
    pairs: int
    sides: Callable[[Path], tuple[Side, Side]]
    at_most: bool = False
    floor_s: float | None = None

    def judge(self, times: list[tuple[float, float]]) -> tuple[float, bool]:
        """(median per-pair ratio, pass?) of ``(a_s, b_s)`` pair times."""
        if self.at_most:
            ratio = statistics.median(b / a for a, b in times)
            ok = ratio <= self.threshold or (
                self.floor_s is not None
                and statistics.median(b - a for a, b in times) < self.floor_s
            )
        else:
            ratio = statistics.median(a / b for a, b in times)
            ok = ratio >= self.threshold
        return ratio, ok


def _seconds(side: Side) -> float:
    start = time.perf_counter()
    side()
    return time.perf_counter() - start


def paired_times(a: Side, b: Side, pairs: int) -> list[tuple[float, float]]:
    """``pairs`` interleaved ``(a_s, b_s)`` timings, alternating who goes first."""
    times = []
    for i in range(pairs):
        if i % 2 == 0:
            a_s = _seconds(a)
            b_s = _seconds(b)
        else:
            b_s = _seconds(b)
            a_s = _seconds(a)
        times.append((a_s, b_s))
    return times


def _plan_sides(
    plan, *, stack_batches: bool, make_executor: Callable[[], object] = lambda: None
) -> tuple[Side, Side]:
    """``plan`` per point (A) and at ``stack_batches`` (B), counters zeroed."""
    from repro import perf
    from repro.scenarios.scheduler import execute_plan

    def run(stack: bool) -> Side:
        def side():
            perf.reset()
            execute_plan(plan, executor=make_executor(), stack_batches=stack)

        return side

    return run(False), run(stack_batches)


def _plan(model, points):
    """One solve node of ``model`` per ``(stack, via, power)`` in ``points``."""
    from repro.perf import solve_key
    from repro.scenarios.plan import ExecutionPlan, SolveNode

    plan = ExecutionPlan()
    for stack, via, power in points:
        plan.add(
            SolveNode(
                key=solve_key(model, stack, via, power),
                stack=stack,
                via=via,
                power=power,
                model_name=model.name,
                model=model,
                assembly_key=model.assembly_key(stack, via),
            )
        )
    return plan


def fem_power_plan(k: int = 48):
    """``k`` power points of one coarse FEM block: one shared matrix."""
    from repro.experiments.params import fig5_config
    from repro.fem import FEMReference

    cfg = fig5_config(1.0)
    return _plan(
        FEMReference("coarse"),
        [(cfg.stack, cfg.via, cfg.power.scaled(0.5 + 0.025 * i)) for i in range(k)],
    )


def liner_plan(k: int = 1000):
    """``k`` liner thicknesses of Model A: one batch class, ``k`` matrices."""
    from repro.core.model_a import ModelA
    from repro.experiments.params import fig5_config

    cfg = fig5_config(1.0)
    return _plan(
        ModelA(),
        [
            (cfg.stack, cfg.via.with_liner_thickness(0.5e-6 + 2e-9 * i), cfg.power)
            for i in range(k)
        ],
    )


def multi_rhs_sides(stack_batches: bool = True) -> tuple[Side, Side]:
    return _plan_sides(fem_power_plan(), stack_batches=stack_batches)


def parallel_group_sides(stack_batches: bool = True) -> tuple[Side, Side]:
    from repro.perf import ParallelExecutor

    return _plan_sides(
        fem_power_plan(),
        stack_batches=stack_batches,
        make_executor=lambda: ParallelExecutor(JOBS),
    )


def stacked_sides(stack_batches: bool = True) -> tuple[Side, Side]:
    return _plan_sides(liner_plan(), stack_batches=stack_batches)


def checksum_sides(
    workdir: Path, n_points: int = 5_000, chunk: int = CHUNK
) -> tuple[Side, Side]:
    """Unverified and verified reads of ``n_points`` points stored in
    ``workdir``: each call of a side reads the next ``chunk`` of them."""
    from repro.scenarios import RunStore

    root = workdir / "store"
    writer = RunStore(root)
    keys = [f"{i:064x}" for i in range(n_points)]
    for i, key in enumerate(keys):
        writer.put_point(key, {"i": i, "max_rise": float(i)})
    chunks = [keys[i : i + chunk] for i in range(0, n_points, chunk)]

    def reads(store: RunStore) -> Side:
        calls = itertools.count()

        def side():
            for key in chunks[next(calls) % len(chunks)]:
                store.get_point(key)

        return side

    return reads(RunStore(root, verify=False)), reads(RunStore(root, verify=True))


#: every gate; ``sides`` gets a work directory, which only the store
#: check writes in
CHECKS = (
    Check("multi_rhs_batched_wins", 2.0, 11, lambda workdir: multi_rhs_sides()),
    Check(
        "parallel_group_dispatch_wins", 1.5, 11,
        lambda workdir: parallel_group_sides(),
    ),
    Check("stacked_batched_wins", 3.0, 11, lambda workdir: stacked_sides()),
    Check(
        "checksum_under_5pct", 1.05, 21 * 5_000 // CHUNK, checksum_sides,
        at_most=True, floor_s=1e-6 * CHUNK,
    ),
)


def run_check(
    check: Check, sides: tuple[Side, Side], pairs: int | None = None
) -> tuple[float, bool]:
    """Measure ``sides`` for ``check`` and judge them."""
    a, b = sides
    a(), b()  # warm-up pair: imports and first-touch costs
    return check.judge(paired_times(a, b, pairs or check.pairs))


def main() -> int:
    # one BLAS thread, as ``python -m repro`` runs; the checks import
    # numpy only after this
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    failed = []
    print(f"{'check':<30} {'pairs':>5} {'median':>8} {'bound':>8}  verdict")
    for check in CHECKS:
        with tempfile.TemporaryDirectory(prefix="same_run_gate_") as workdir:
            ratio, ok = run_check(check, check.sides(Path(workdir)))
        bound = f"{'<=' if check.at_most else '>='}{check.threshold:g}"
        print(
            f"{check.name:<30} {check.pairs:>5} {ratio:>7.3f}x {bound:>8}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
        if not ok:
            failed.append(check.name)
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
