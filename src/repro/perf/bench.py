"""Benchmark-regression harness (``python -m repro bench``).

Times the performance-critical paths of the library — the Fig. 7 cluster
sweep (serial cold / parallel cold / cache-warm), transient stepping with
and without factorization reuse, repeated FEM solves through the
assembly/factor caches, and the fleet/sharded-store distributed-execution
tier — then writes a ``BENCH_<date>.json`` trajectory
point (machine info, per-benchmark medians, speedups, cache hit rates) and
compares it against the most recent previous ``BENCH_*.json``, failing on
regressions beyond a configurable tolerance.

Quick mode (the CI gate, ``benchmarks/run_bench.sh``) runs the same
scenarios with fewer repeats, so quick and full reports stay comparable.

A note on parallel speedup: :class:`~repro.perf.ParallelExecutor` only
pays off with >1 CPU.  On single-CPU machines the recorded
``fig7_parallel_vs_serial`` ratio is honestly below 1 (pure pool
overhead) and the ≥3× win comes from the cache-amortized path
(``fig7_warm_vs_serial``) — repeated sweeps under multi-scenario traffic.
The report records both, plus ``cpu_count`` so readers can tell which
regime produced it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from . import cache as perf_cache
from .stats import stats as stats_snapshot

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------
def _time(fn: Callable[[], Any], repeats: int) -> tuple[float, list[float], Any]:
    """(median seconds, all times, last return value) of ``repeats`` runs."""
    times: list[float] = []
    value: Any = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, value


def _entry(median: float, times: list[float], **extra: Any) -> dict[str, Any]:
    # min_s is what the regression gate compares: the minimum of N runs is
    # far more robust to background load than the median on small samples
    return {"median_s": median, "min_s": min(times), "times_s": times, **extra}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def _series_identical(a: Any, b: Any) -> bool:
    """Exact (bitwise float) equality of two experiment results' series."""
    if a.series.keys() != b.series.keys():
        return False
    if any(a.series[name] != b.series[name] for name in a.series):
        return False
    pa, pb = a.sweep_result.points, b.sweep_result.points
    return all(
        ra.results[name].plane_rises == rb.results[name].plane_rises
        for ra, rb in zip(pa, pb)
        for name in ra.results
    )


def bench_fig7_sweep(jobs: int, repeats: int) -> dict[str, Any]:
    """The Fig. 7 cluster sweep: serial cold, parallel cold, cache-warm.

    Timed through :func:`~repro.scenarios.run_scenario` without a store,
    so a cold run is plan compile, solve and assembly.
    """
    from ..scenarios import run_scenario
    from .executors import get_executor

    def run(n_jobs: int = 1):
        return run_scenario(
            "fig7", executor=get_executor(n_jobs), fem_resolution="medium"
        ).result

    def cold(n_jobs: int = 1):
        perf_cache.reset()
        return run(n_jobs)

    serial_median, serial_times, serial_result = _time(cold, repeats)
    parallel_median, parallel_times, parallel_result = _time(
        lambda: cold(jobs), repeats
    )
    perf_cache.reset()
    run()  # prime every cache for the warm measurement
    warm_median, warm_times, warm_result = _time(run, repeats)
    cache_stats = stats_snapshot()  # hit rates of the warm-sweep scenario
    identical = _series_identical(serial_result, parallel_result) and (
        _series_identical(serial_result, warm_result)
    )
    return {
        "cache_stats": cache_stats,
        "benchmarks": {
            "fig7_cluster_sweep_serial_cold": _entry(serial_median, serial_times),
            "fig7_cluster_sweep_parallel_cold": _entry(
                parallel_median, parallel_times, jobs=jobs, noisy=True
            ),
            "fig7_cluster_sweep_warm": _entry(warm_median, warm_times),
        },
        "speedups": {
            "fig7_parallel_vs_serial": serial_median / parallel_median,
            "fig7_warm_vs_serial": serial_median / warm_median,
            "fig7_best_vs_serial": serial_median / min(parallel_median, warm_median),
        },
        "checks": {"fig7_parallel_identical": identical},
    }


def _ladder(n: int):
    from ..network import GROUND, ThermalCircuit

    circuit = ThermalCircuit()
    prev: Any = GROUND
    for i in range(n):
        circuit.add_resistor(prev, i, 1.0)
        circuit.add_source(i, 0.01)
        circuit.add_capacitor(i, 2e-3)
        prev = i
    return circuit


def _transient_per_step_baseline(circuit, t_end: float, n_steps: int) -> None:
    """The pre-reuse transient loop: one full solve per step (seed code)."""
    import numpy as np
    import scipy.sparse as sp

    from ..network.solve import solve_linear_system
    from ..network.transient import capacitance_vector

    g = circuit.conductance_matrix(sparse=True)
    q = circuit.source_vector()
    c = capacitance_vector(circuit)
    dt = t_end / n_steps
    lhs = (g + sp.diags(c / dt)).tocsr()
    current = np.zeros(circuit.n_nodes)
    for _ in range(n_steps):
        current = solve_linear_system(lhs, q + (c / dt) * current)


def bench_transient(repeats: int, *, n_nodes: int = 1500, n_steps: int = 120) -> dict[str, Any]:
    """Backward-Euler stepping: per-step solves vs one factorization."""
    from ..network.transient import step_response

    circuit = _ladder(n_nodes)
    t_end = 1.0

    def baseline():
        # disable factor reuse so every step pays the full factorization,
        # reproducing the seed behaviour
        perf_cache.configure(factor_cache_size=0)
        try:
            _transient_per_step_baseline(circuit, t_end, n_steps)
        finally:
            perf_cache.configure(
                factor_cache_size=perf_cache.DEFAULT_FACTOR_CACHE_SIZE
            )

    def reuse():
        perf_cache.factor_cache.clear()
        return step_response(circuit, t_end=t_end, n_steps=n_steps)

    base_median, base_times, _ = _time(baseline, repeats)
    reuse_median, reuse_times, _ = _time(reuse, repeats)
    return {
        "benchmarks": {
            "transient_per_step_solve": _entry(
                base_median, base_times, n_nodes=n_nodes, n_steps=n_steps
            ),
            "transient_factor_reuse": _entry(
                reuse_median, reuse_times, n_nodes=n_nodes, n_steps=n_steps
            ),
        },
        "speedups": {"transient_factor_reuse": base_median / reuse_median},
        "checks": {},
    }


def bench_fem_reuse(repeats: int) -> dict[str, Any]:
    """One FEM solve, cold caches vs warm assembly/factor caches."""
    from ..experiments.params import fig5_config
    from ..fem import FEMReference

    cfg = fig5_config(1.0)
    model = FEMReference("medium")

    def cold():
        perf_cache.reset()
        return model.solve(cfg.stack, cfg.via, cfg.power)

    def warm():
        return model.solve(cfg.stack, cfg.via, cfg.power)

    cold_median, cold_times, _ = _time(cold, repeats)
    warm()  # prime
    warm_median, warm_times, _ = _time(warm, repeats)
    return {
        "benchmarks": {
            "fem_solve_cold": _entry(cold_median, cold_times),
            "fem_solve_warm": _entry(warm_median, warm_times),
        },
        "speedups": {"fem_warm_vs_cold": cold_median / warm_median},
        "checks": {},
    }


def bench_batch_dedup(repeats: int) -> dict[str, Any]:
    """Cross-scenario dedup: a two-scenario batch with shared calibration.

    Both scenarios sweep the same axis against the same FEM reference with
    the same calibration policy and differ only in their model lists, so
    the reference solves, the coefficient fit and the calibrated-model
    solves are all shared.  The baseline (``batch_dedup_eager``) runs them
    one at a time, one plan each; the batched path compiles them into one
    merged graph and solves each shared node exactly once.  The result
    cache is disabled for both measurements — it would amortise the
    shared solves in-process and hide the *structural* dedup this
    benchmark isolates (the regime that matters under cache pressure and
    across processes).
    """
    from ..scenarios import AxisSpec, ScenarioSpec, run_batch, run_scenario

    def specs() -> list[ScenarioSpec]:
        base: dict[str, Any] = {
            "axis": AxisSpec(parameter="radius_um", values=(2.0, 5.0, 10.0)),
            "reference": "fem:coarse",
            "calibrate": True,
            "calibration_samples": 3,
        }
        return [
            ScenarioSpec(
                scenario_id="bench_dedup_a", title="Bench dedup A",
                models=("1d",), **base,
            ),
            ScenarioSpec(
                scenario_id="bench_dedup_b", title="Bench dedup B",
                models=("a:paper",), **base,
            ),
        ]

    def one_at_a_time():
        perf_cache.reset()
        return [run_scenario(s) for s in specs()]

    def planned():
        perf_cache.reset()
        return run_batch(specs())

    perf_cache.configure(result_cache_size=0)
    try:
        single_median, single_times, single_runs = _time(one_at_a_time, repeats)
        planned_median, planned_times, batch = _time(planned, repeats)
    finally:
        perf_cache.configure(
            result_cache_size=perf_cache.DEFAULT_RESULT_CACHE_SIZE
        )
    point_solves = stats_snapshot()["counters"].get("plan_point_solves", 0)
    identical = all(
        run.result.series == single.result.series
        and run.result.errors == single.result.errors
        for run, single in zip(batch.runs, single_runs)
    )
    return {
        "benchmarks": {
            "batch_dedup_eager": _entry(single_median, single_times),
            "batch_dedup_planned": _entry(
                planned_median,
                planned_times,
                nodes_total=batch.stats["nodes_total"],
                nodes_deduped=batch.stats["nodes_deduped"],
            ),
        },
        "speedups": {
            "batch_dedup_planned_vs_eager": single_median / planned_median,
        },
        "checks": {
            "batch_dedup_identical": identical,
            "batch_dedup_shared_nodes_merged": batch.stats["nodes_deduped"] > 0,
            # the last planned repeat starts from reset counters, so the
            # counter equals that run's unique solve-node count exactly
            "batch_dedup_each_node_once": (
                point_solves == batch.stats["solve_nodes"]
            ),
        },
    }


def _multi_rhs_plan(k: int = 48):
    """A shared-matrix execution plan: one FEM model, ``k`` power points.

    Every node assembles the identical system (the power only shapes the
    RHS), so stacked dispatch solves the whole plan as one shared-matrix
    set.
    This is the distilled shape of power sweeps / calibration batches
    under multi-scenario traffic.  The coarse FEM preset is the same
    reference the fast/CI scenario runs use.
    """
    from ..experiments.params import fig5_config
    from ..fem import FEMReference
    from ..scenarios.plan import ExecutionPlan, SolveNode
    from .keys import solve_key

    cfg = fig5_config(1.0)
    model = FEMReference("coarse")
    assembly = model.assembly_key(cfg.stack, cfg.via)
    plan = ExecutionPlan()
    for i in range(k):
        power = cfg.power.scaled(0.5 + 0.025 * i)
        plan.add(
            SolveNode(
                key=solve_key(model, cfg.stack, cfg.via, power),
                stack=cfg.stack,
                via=cfg.via,
                power=power,
                model_name=model.name,
                model=model,
                assembly_key=assembly,
            )
        )
    return plan


def _outcomes_identical(a: Any, b: Any) -> bool:
    """Exact (bitwise float) equality of two schedule outcomes' results."""
    if a.results.keys() != b.results.keys():
        return False
    return all(
        a.results[key].max_rise == b.results[key].max_rise
        and a.results[key].plane_rises == b.results[key].plane_rises
        for key in a.results
    )


def bench_multi_rhs(jobs: int, repeats: int) -> dict[str, Any]:
    """Stacked dispatch of a shared-matrix sweep vs per-point solves.

    ``multi_rhs_per_point`` executes the plan with ``stack_batches=False``
    (one voxelise + assemble + fingerprint + back-substitution per point,
    factorization amortised by the factor cache); ``multi_rhs_batched``
    dispatches the same plan as one stacked unit holding one
    shared-matrix set (voxelise/assemble/factor once, one
    back-substitution per point).  ``parallel_{point,group}_dispatch``
    repeat the contrast under process-pool dispatch: the executor splits
    the unit into per-worker sub-units (one factorization per worker,
    payload shipped once per sub-unit), while per-point tasks re-ship the
    geometry with every point — the reason stacked dispatch recovers the
    pickling/IPC overhead.  All four paths are bit-identical
    (``checks.multi_rhs_identical`` / ``checks.parallel_group_identical``).
    """
    from ..scenarios.scheduler import execute_plan
    from .executors import ParallelExecutor

    plan = _multi_rhs_plan()

    def run(executor=None, stack: bool = True):
        perf_cache.reset()
        return execute_plan(plan, executor=executor, stack_batches=stack)

    point_median, point_times, point_out = _time(lambda: run(stack=False), repeats)
    batch_median, batch_times, batch_out = _time(lambda: run(stack=True), repeats)
    par_point_median, par_point_times, par_point_out = _time(
        lambda: run(ParallelExecutor(jobs), stack=False), repeats
    )
    par_group_median, par_group_times, par_group_out = _time(
        lambda: run(ParallelExecutor(jobs), stack=True), repeats
    )
    n_points = len(plan.nodes)
    return {
        "benchmarks": {
            "multi_rhs_per_point": _entry(point_median, point_times, points=n_points),
            "multi_rhs_batched": _entry(batch_median, batch_times, points=n_points),
            "parallel_point_dispatch": _entry(
                par_point_median, par_point_times, jobs=jobs, points=n_points,
                noisy=True,
            ),
            "parallel_group_dispatch": _entry(
                par_group_median, par_group_times, jobs=jobs, points=n_points,
                noisy=True,
            ),
        },
        "speedups": {
            "multi_rhs_batched_vs_per_point": point_median / batch_median,
            "parallel_group_vs_point_dispatch": (
                par_point_median / par_group_median
            ),
        },
        "checks": {
            "multi_rhs_identical": _outcomes_identical(point_out, batch_out),
            "parallel_group_identical": (
                _outcomes_identical(batch_out, par_group_out)
                and _outcomes_identical(par_point_out, par_group_out)
            ),
            # same-run ratios are immune to machine-load drift between a
            # committed baseline and a CI run, so they gate the batching
            # wins far more robustly than absolute wall-clock comparisons
            "multi_rhs_batched_wins": point_median / batch_median >= 2.0,
            "parallel_group_dispatch_wins": (
                par_point_median / par_group_median >= 1.5
            ),
        },
    }


def _stacked_plan(k: int = 1000):
    """A structurally congruent Model A geometry sweep: ``k`` liner points.

    Every point assembles a *different* conductance matrix (the liner
    resistance changes with the swept thickness), so no two share a
    factor; all of them share Model A's ``batch_class_key``, so the
    stacked tier rides the whole sweep in one batched dense solve.
    This is the distilled shape of Fig. 4/5-style geometry sweeps.
    """
    from ..core.model_a import ModelA
    from ..experiments.params import fig5_config
    from ..scenarios.plan import ExecutionPlan, SolveNode
    from .keys import solve_key

    cfg = fig5_config(1.0)
    model = ModelA()
    plan = ExecutionPlan()
    for i in range(k):
        via = cfg.via.with_liner_thickness(0.5e-6 + 2e-9 * i)
        plan.add(
            SolveNode(
                key=solve_key(model, cfg.stack, via, cfg.power),
                stack=cfg.stack,
                via=via,
                power=cfg.power,
                model_name=model.name,
                model=model,
                assembly_key=model.assembly_key(cfg.stack, via),
            )
        )
    return plan


def bench_stacked(repeats: int) -> dict[str, Any]:
    """Cross-matrix stacked dispatch of a geometry sweep vs per-point solves.

    ``stacked_per_point`` executes the plan with stacking disabled (the
    pre-PR-7 scheduler: one content-key + assemble + LU solve per point);
    ``stacked_vs_per_point`` dispatches the same plan as stacked batches —
    one ``numpy.linalg.solve`` over the whole (k, n, n) stack.  The paths
    are bit-identical (``checks.stacked_identical``), and the same-run
    ratio gates the win (``checks.stacked_batched_wins``) immune to
    machine-load drift.
    """
    from ..scenarios.scheduler import execute_plan

    plan = _stacked_plan()

    def run(stack_batches: bool):
        perf_cache.reset()
        return execute_plan(plan, stack_batches=stack_batches)

    point_median, point_times, point_out = _time(lambda: run(False), repeats)
    stack_median, stack_times, stack_out = _time(lambda: run(True), repeats)
    n_points = len(plan.nodes)
    return {
        "benchmarks": {
            "stacked_per_point": _entry(point_median, point_times, points=n_points),
            "stacked_vs_per_point": _entry(
                stack_median, stack_times, points=n_points
            ),
        },
        "speedups": {
            "stacked_batched_vs_per_point": point_median / stack_median,
        },
        "checks": {
            "stacked_identical": _outcomes_identical(point_out, stack_out),
            "stacked_batched_wins": point_median / stack_median >= 3.0,
        },
    }


def _nonlinear_payloads_match(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Bitwise equality of two nonlinear payloads' deterministic content.

    Everything except the wall-clock ``solve_time`` inside the wrapped
    model payloads must match exactly.
    """
    if a["series"] != b["series"] or a["x_values"] != b["x_values"]:
        return False
    if a["results"].keys() != b["results"].keys():
        return False
    for name in a["results"]:
        if len(a["results"][name]) != len(b["results"][name]):
            return False
        for ra, rb in zip(a["results"][name], b["results"][name]):
            if ra["history"] != rb["history"] or ra["iterations"] != rb["iterations"]:
                return False
            if ra["result"]["max_rise"] != rb["result"]["max_rise"]:
                return False
            if ra["result"]["plane_rises"] != rb["result"]["plane_rises"]:
                return False
    return True


def bench_physics(repeats: int) -> dict[str, Any]:
    """The physics kinds through the plan: transient cold/resume + nonlinear.

    ``transient_planned_cold`` runs the builtin ``transient_spike``
    scenario from cold caches through the full spec → plan → scheduler
    path; ``transient_planned_resume`` re-runs it against a point store
    populated by a prior run whose run-level artifact was removed
    (simulating a batch killed after its last point but before assembly)
    — the plan recompiles and every trajectory must come back from
    ``points/<key>.json`` without solving; ``nonlinear_planned`` runs the
    builtin ``nonlinear_hotspot`` cold.  The structural checks carry the
    guarantees: planned payloads bit-identical to direct
    ``step_response`` / ``NonlinearSolver`` library calls, one
    factorization per trajectory (never one per backward-Euler step — the
    PR-1 transient factor-reuse win carried into the planned path), and a
    resume that re-solves nothing.
    """
    import shutil

    from ..scenarios import SCENARIOS, RunStore, run_scenario
    from ..scenarios.physics import (
        run_nonlinear_spec_direct,
        run_transient_spec_direct,
    )
    from .stats import counter

    t_spec = SCENARIOS.get("transient_spike").resolved()
    n_spec = SCENARIOS.get("nonlinear_hotspot").resolved()
    n_trajectories = len(t_spec.axis.values) * len(t_spec.models)

    def t_cold():
        perf_cache.reset()
        return run_scenario(t_spec)

    cold_median, cold_times, cold_run = _time(t_cold, repeats)
    factor_misses = stats_snapshot()["caches"]["factor_cache"]["misses"]
    t_direct = run_transient_spec_direct(t_spec)

    store_dir = Path(tempfile.mkdtemp(prefix="bench_physics_store_"))
    try:
        store = RunStore(store_dir)
        perf_cache.reset()
        run_scenario(t_spec, store=store)  # populate points/<key>.json
        run_object = RunStore._sharded_path(store.objects, t_spec.content_hash())

        def t_resume():
            perf_cache.reset()
            run_object.unlink(missing_ok=True)  # keep only the point space
            return run_scenario(t_spec, store=store, resume=True)

        resume_median, resume_times, resume_run = _time(t_resume, repeats)
        resume_solves = counter("plan_point_solves")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    def n_cold():
        perf_cache.reset()
        return run_scenario(n_spec)

    nl_median, nl_times, nl_run = _time(n_cold, repeats)
    n_direct = run_nonlinear_spec_direct(n_spec)
    return {
        "benchmarks": {
            "transient_planned_cold": _entry(
                cold_median, cold_times, trajectories=n_trajectories
            ),
            "transient_planned_resume": _entry(
                resume_median, resume_times, trajectories=n_trajectories
            ),
            "nonlinear_planned": _entry(
                nl_median, nl_times, points=len(n_spec.axis.values)
            ),
        },
        "speedups": {
            "transient_resume_vs_cold": cold_median / resume_median,
        },
        "checks": {
            "transient_planned_identical": (
                cold_run.result.to_payload() == t_direct.to_payload()
                and resume_run.result.to_payload() == t_direct.to_payload()
            ),
            "transient_factor_once_per_trajectory": (
                factor_misses == n_trajectories
            ),
            "transient_resume_no_solves": resume_solves == 0,
            "nonlinear_planned_identical": _nonlinear_payloads_match(
                nl_run.result.to_payload(), n_direct.to_payload()
            ),
        },
    }


def bench_fault_recovery(repeats: int) -> dict[str, Any]:
    """Cold fig7 planned run under the default :class:`~repro.perf.RetryPolicy`.

    Every planned run streams through the capture-mode executor stream
    (per-task failure capture, retry/quarantine bookkeeping, ledger
    checks), so this entry is the no-fault cost of that plumbing on the
    builtin ``fig7`` scenario.
    """
    from ..scenarios import run_scenario

    def run():
        perf_cache.reset()
        return run_scenario("fig7")

    median, times, _ = _time(run, repeats)
    return {
        "benchmarks": {"fault_recovery_overhead": _entry(median, times)},
        "speedups": {},
        "checks": {},
    }


def bench_fleet(repeats: int) -> dict[str, Any]:
    """Fleet execution vs the single-process path, plus store lookups.

    ``fleet_single_process`` runs a small radius sweep through
    ``run_scenario`` against a fresh store; ``fleet_four_workers`` runs
    the identical spec through :func:`~repro.scenarios.fleet.run_fleet`
    with 4 cooperating processes (flagged noisy: 4 process spawns
    dominate a sweep this small — the fleet tier pays off on plans whose
    solve time dwarfs the fork cost, and on 1-CPU containers it is
    honestly slower).  The structural guarantees ride the same-run
    checks: the fleet store is byte-identical to the single-process
    store modulo wall-clock metadata (``fleet_identical``), and the
    fleet-wide solve counter equals the single-process solve count — no
    node solved twice despite 4 contending workers
    (``fleet_no_double_solve``).

    ``sharded_lookup_10k`` times 10 000
    :meth:`~repro.scenarios.store.RunStore.get_point` reads against a
    store of 10 000 points (enveloped artifacts written directly, no
    solver in the loop); ``sharded_lookup_all_hits`` checks that every
    read was a hit, so the entry never times misses.
    """
    import shutil

    from ..scenarios import AxisSpec, RunStore, ScenarioSpec, run_scenario
    from ..scenarios.fleet import run_fleet
    from ..scenarios.store import render_artifact
    from .stats import counter

    spec = ScenarioSpec(
        scenario_id="bench_fleet",
        title="Fleet bench sweep",
        axis=AxisSpec(parameter="radius_um", values=(2.0, 3.0, 4.0, 5.0)),
        models=("a:paper", "1d"),
        calibrate=False,
    ).resolved()
    root = Path(tempfile.mkdtemp(prefix="bench_fleet_"))
    runs = iter(range(10_000))

    def single():
        perf_cache.reset()
        store = RunStore(root / f"single-{next(runs)}")
        return run_scenario(spec, store=store), store

    def fleet():
        return run_fleet(
            [spec],
            store=root / f"fleet-{next(runs)}",
            workers=4,
            deadline_s=600.0,
        )

    def normalized_store(store: RunStore) -> dict[str, Any]:
        run_payload = store.get(spec.content_hash()) or {}
        run_payload.pop("runtimes_ms", None)
        points = {}
        for key in store.point_keys():
            payload = dict(store.get_point(key))
            payload.pop("solve_time", None)
            points[key] = payload
        return {"run": run_payload, "points": points}

    try:
        single_median, single_times, (single_run, single_store) = _time(
            single, repeats
        )
        single_solves = counter("plan_point_solves")
        fleet_median, fleet_times, outcome = _time(fleet, repeats)
        identical = (
            outcome.ok
            and normalized_store(RunStore(outcome.store_root))
            == normalized_store(single_store)
        )
        no_double_solve = (
            outcome.counters.get("plan_point_solves") == single_solves
        )

        # lookups at 10k points: artifacts written directly so only the
        # read path is measured
        n_points = 10_000
        lookup_store = RunStore(root / "sharded")
        keys = [f"{i:064x}" for i in range(n_points)]
        for i, key in enumerate(keys):
            target = RunStore._sharded_path(lookup_store.points, key)
            target.parent.mkdir(exist_ok=True)
            target.write_text(render_artifact({"i": i}))

        def lookup() -> int:
            return sum(lookup_store.get_point(key) is not None for key in keys)

        lookup_median, lookup_times, hits = _time(lookup, repeats)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "benchmarks": {
            "fleet_single_process": _entry(single_median, single_times),
            "fleet_four_workers": _entry(
                fleet_median, fleet_times, workers=4, noisy=True
            ),
            # filesystem-bound entry: 10k per-key lookups swing with
            # ambient dcache pressure far beyond solver-entry jitter
            "sharded_lookup_10k": _entry(
                lookup_median, lookup_times, points=n_points, noisy=True
            ),
        },
        "speedups": {"fleet_vs_single": single_median / fleet_median},
        "checks": {
            "fleet_identical": identical,
            "fleet_no_double_solve": no_double_solve,
            "sharded_lookup_all_hits": hits == n_points,
        },
    }


def bench_store_integrity(repeats: int) -> dict[str, Any]:
    """Read-side cost of envelope checksum verification (PR 9).

    Every store artifact now carries a blake2b checksum envelope that
    readers verify by default.  ``plain_read_5k`` times 5 000
    ``get_point`` reads with verification disabled (``verify=False`` —
    the raw parse path); ``checksum_overhead`` times the identical reads
    with verification on.  The gate (``checksum_under_5pct``) holds the
    verified path to ≤5% over the raw path as a same-run paired ratio —
    interleaved pairs, median of per-pair ratios, with the usual
    absolute floor so sub-millisecond jitter cannot trip it.  A final
    non-timed check (``checksum_detects_bitflip``) flips one byte in one
    artifact and asserts the verified reader refuses it while the raw
    reader would have accepted it — the overhead gate is only meaningful
    while the verification it prices actually catches corruption.
    """
    import shutil

    from ..scenarios import RunStore

    n_points = 5_000
    root = Path(tempfile.mkdtemp(prefix="bench_integrity_"))
    try:
        writer = RunStore(root / "store")
        keys = [f"{i:064x}" for i in range(n_points)]
        for i, key in enumerate(keys):
            writer.put_point(key, {"i": i, "max_rise": float(i)})
        plain_store = RunStore(root / "store", verify=False)
        verified_store = RunStore(root / "store", verify=True)

        def lookup(store: RunStore):
            for key in keys:
                store.get_point(key)

        plain_times: list[float] = []
        verified_times: list[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            lookup(plain_store)
            plain_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            lookup(verified_store)
            verified_times.append(time.perf_counter() - start)
        plain_median = statistics.median(plain_times)
        verified_median = statistics.median(verified_times)

        # bit-flip detection, outside the timed loops (the verified read
        # heals the artifact away — a deliberate store mutation)
        victim = RunStore._sharded_path(writer.points, keys[0])
        blob = bytearray(victim.read_bytes())
        # flip the body's final digit (0-9 stay digits under ^1) so the
        # body stays parseable JSON with silently different physics —
        # exactly the corruption only the checksum can catch
        last_digit = max(i for i, byte in enumerate(blob) if chr(byte).isdigit())
        blob[last_digit] ^= 0x01
        victim.write_bytes(bytes(blob))
        accepted_raw = plain_store.get_point(keys[0]) is not None
        detects = verified_store.get_point(keys[0]) is None and accepted_raw
    finally:
        shutil.rmtree(root, ignore_errors=True)
    overhead = statistics.median(
        v / p for v, p in zip(verified_times, plain_times)
    )
    return {
        "benchmarks": {
            # filesystem-bound like the lookup entries: hostage to
            # ambient dcache/page-cache pressure
            "plain_read_5k": _entry(
                plain_median, plain_times, points=n_points, noisy=True
            ),
            "checksum_overhead": _entry(
                verified_median,
                verified_times,
                points=n_points,
                overhead_ratio=overhead,
                noisy=True,
            ),
        },
        "speedups": {"checksum_overhead_ratio": overhead},
        "checks": {
            "checksum_under_5pct": (
                overhead <= 1.05
                or statistics.median(
                    v - p for v, p in zip(verified_times, plain_times)
                )
                < 0.005
            ),
            "checksum_detects_bitflip": detects,
        },
    }


def bench_fem3d(repeats: int) -> dict[str, Any]:
    """The builtin 3-D FEM power sweep, cold — the expensive, cache-
    sensitive workload shared-matrix sets were built for.

    Gated at the plain tolerance: with the symmetric-mode minimum-degree
    SuperLU factor that preceded the banded Cholesky, 9 quick runs on 2
    CPUs spread by IQR/median 0.14 (best-of-5) and 0.05 (median-of-5)."""
    from ..scenarios import run_scenario

    def cold():
        perf_cache.reset()
        return run_scenario("fem3d_power")

    median, times, _ = _time(cold, repeats)
    return {
        "benchmarks": {"fem3d_power_cold": _entry(median, times)},
        "speedups": {},
        # the last cold run starts from reset counters: its fem3d nodes
        # must have dispatched stacked, with one factor and no factor-cache
        # hit (a per-point solve of the sweep would hit it once per point)
        "checks": {"fem3d_grouped": fem3d_factored_once()},
    }


def fem3d_factored_once() -> bool:
    """Since the last reset: a stacked unit ran, one sparse matrix (the
    3-D FEM one; the network models solve dense) was factored, no hit."""
    from .stats import counter

    return (
        counter("plan_stacked_batches") > 0
        and counter("sparse_factorizations") == 1
        and perf_cache.factor_cache.stats()["hits"] == 0
    )


# ---------------------------------------------------------------------------
# report assembly, persistence, comparison
# ---------------------------------------------------------------------------
def machine_info() -> dict[str, Any]:
    import numpy
    import scipy
    import os

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_benchmarks(
    *,
    jobs: int = 4,
    quick: bool = False,
    repeats: int | None = None,
) -> dict[str, Any]:
    """Run every scenario and assemble the ``BENCH_*.json`` payload.

    Quick mode only reduces the repeat count — scenario sizes are
    identical, so quick and full reports are directly comparable.  Five
    quick repeats (not fewer): the gate compares best-of-N minima against
    a best-of-7 baseline, and extreme-value statistics make a min-of-3
    systematically slower than a min-of-7 by enough to trip the 25%
    tolerance on a loaded machine.
    """
    repeats = repeats if repeats is not None else (5 if quick else 7)
    payload: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "machine": machine_info(),
        "config": {"jobs": jobs, "quick": quick, "repeats": repeats},
        "benchmarks": {},
        "speedups": {},
        "checks": {},
    }
    for section in (
        bench_fig7_sweep(jobs, repeats),
        bench_transient(repeats),
        bench_fem_reuse(repeats),
        bench_batch_dedup(repeats),
        bench_multi_rhs(jobs, repeats),
        bench_stacked(repeats),
        bench_physics(repeats),
        bench_fault_recovery(repeats),
        bench_fleet(repeats),
        bench_store_integrity(repeats),
        bench_fem3d(repeats),
    ):
        payload["benchmarks"].update(section["benchmarks"])
        payload["speedups"].update(section["speedups"])
        payload["checks"].update(section["checks"])
        if "cache_stats" in section:
            # the warm fig7 sweep's hit rates — the multi-scenario-traffic view
            payload["cache_stats"] = section["cache_stats"]
    return payload


def bench_filename(date: datetime.date | None = None) -> str:
    return f"BENCH_{(date or datetime.date.today()).isoformat()}.json"


def find_previous(output_dir: Path, current_name: str) -> Path | None:
    """Most recent ``BENCH_*.json`` other than the one about to be written."""
    candidates = sorted(
        p for p in output_dir.glob("BENCH_*.json") if p.name != current_name
    )
    return candidates[-1] if candidates else None


def compare(
    current: dict[str, Any],
    previous: dict[str, Any],
    *,
    tolerance: float = 0.25,
    min_delta_s: float = 0.005,
    noisy_factor: float = 2.0,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """(regressions, comparisons) of best-of-N times vs a previous report.

    The comparison is deliberately asymmetric: the *current* side uses
    its best-of-N minimum (robust against background load during a CI
    run), while the *previous* side — the deliberately regenerated
    committed baseline — uses its median, the typical-throughput anchor.
    Min-vs-min proved flaky in practice: run-to-run throughput on a
    shared 1-CPU container drifts by up to ~1.4x, so a baseline whose
    minimum caught one lucky run trips any tolerance tighter than that
    drift on entries that are perfectly healthy.

    A regression is a current best-of-N more than ``tolerance``
    (fractional) slower than the previous median AND more than
    ``min_delta_s`` seconds slower in absolute terms — millisecond
    scenarios jitter by large fractions without meaning anything.
    Entries flagged ``noisy`` (process-pool spawns, filesystem-bound
    lookups) get ``tolerance * noisy_factor``; their structural
    guarantees are gated by the same-run ``checks`` instead.  Benchmarks
    present in only one report are skipped.
    """
    regressions: list[dict[str, Any]] = []
    comparisons: list[dict[str, Any]] = []
    prev_benchmarks = previous.get("benchmarks", {})
    for name, entry in current.get("benchmarks", {}).items():
        prev = prev_benchmarks.get(name)
        prev_best = (prev or {}).get("median_s") or (prev or {}).get("min_s")
        if not prev_best:
            continue
        best = entry.get("min_s") or entry["median_s"]
        ratio = best / prev_best
        row = {
            "benchmark": name,
            "previous_s": prev_best,
            "current_s": best,
            "ratio": ratio,
        }
        comparisons.append(row)
        scale = noisy_factor if (entry.get("noisy") or prev.get("noisy")) else 1.0
        if ratio > 1.0 + tolerance * scale and best - prev_best > min_delta_s:
            regressions.append(row)
    return regressions, comparisons


def render_speedup_table(
    payload: dict[str, Any], comparisons: list[dict[str, Any]] | None = None
) -> str:
    """Per-entry speedup/check table printed whenever the gate fails.

    A failing gate used to stop at a bare message; this table gives the
    full picture — every derived speedup, every identity check, and (when
    a baseline comparison ran) the per-entry before/after ratios — so a
    CI log is diagnosable without re-running the harness.
    """
    lines = [f"{'speedup':<40} {'ratio':>10}"]
    for name, value in payload.get("speedups", {}).items():
        lines.append(f"{name:<40} {value:>9.2f}x")
    for name, ok in payload.get("checks", {}).items():
        lines.append(f"check   {name:<32} {'PASS' if ok else 'FAIL':>10}")
    if comparisons:
        lines.append("")
        lines.append(
            f"{'benchmark':<40} {'previous':>10} {'current':>10} {'ratio':>8}"
        )
        for row in comparisons:
            lines.append(
                f"{row['benchmark']:<40} {row['previous_s'] * 1e3:>8.2f}ms "
                f"{row['current_s'] * 1e3:>8.2f}ms {row['ratio']:>7.2f}x"
            )
    return "\n".join(lines)


def render_report(payload: dict[str, Any]) -> str:
    lines = [
        f"machine: {payload['machine']['platform']} "
        f"(cpus={payload['machine']['cpu_count']})",
        f"config:  jobs={payload['config']['jobs']} "
        f"repeats={payload['config']['repeats']} quick={payload['config']['quick']}",
        "",
        f"{'benchmark':<40} {'median [ms]':>12}",
    ]
    for name, entry in payload["benchmarks"].items():
        lines.append(f"{name:<40} {entry['median_s'] * 1e3:>12.2f}")
    lines.append("")
    for name, value in payload["speedups"].items():
        lines.append(f"speedup {name:<32} {value:>11.2f}x")
    for name, value in payload["checks"].items():
        lines.append(f"check   {name:<32} {'PASS' if value else 'FAIL':>12}")
    caches = payload.get("cache_stats", {}).get("caches", {})
    if caches:
        lines.append("")
        for name, c in caches.items():
            lines.append(
                f"cache   {name:<24} hits={c['hits']:<6} misses={c['misses']:<6} "
                f"hit_rate={c['hit_rate']:.2f}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the benchmark-regression harness and write BENCH_<date>.json.",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker processes for the parallel sweep measurement (default 4)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: fewer repeats, same scenarios (reports stay comparable)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override the repeat count"
    )
    parser.add_argument(
        "--output-dir", type=Path, default=Path("."),
        help="where BENCH_<date>.json is written and previous reports searched",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="explicit previous report to compare against (default: latest "
        "BENCH_*.json in the output dir)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="fractional median slowdown that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--min-delta-ms", type=float, default=5.0,
        help="absolute slowdown (ms) below which a regression is ignored "
        "(default 5.0; single-digit-millisecond scenarios jitter by large "
        "fractions on loaded machines)",
    )
    parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the regression comparison",
    )
    parser.add_argument(
        "--require", default=None, metavar="ENTRY[,ENTRY...]",
        help="benchmark entries that must be present in the report; the "
        "gate fails (with the full speedup table) if any is missing — "
        "protects CI from silently dropping an entry",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="measure and compare only; do not write BENCH_<date>.json",
    )
    args = parser.parse_args(argv)

    if not args.no_compare and args.baseline and not args.baseline.exists():
        # an explicit baseline that is missing must fail loudly (and before
        # the measurements): silently skipping would let CI pass without the
        # gate it asked for
        print(f"error: --baseline {args.baseline} does not exist")
        return 1

    payload = run_benchmarks(
        jobs=args.jobs,
        quick=args.quick,
        repeats=args.repeats,
    )
    print(render_report(payload))

    name = bench_filename()
    exit_code = 0
    comparisons: list[dict[str, Any]] = []
    if not args.no_compare:
        # only exclude today's file from the baseline search when this run
        # is about to overwrite it; in --no-write (CI) mode it IS the baseline
        skip_name = "" if args.no_write else name
        previous_path = args.baseline or find_previous(args.output_dir, skip_name)
        if previous_path and previous_path.exists():
            previous = json.loads(previous_path.read_text())
            regressions, comparisons = compare(
                payload,
                previous,
                tolerance=args.tolerance,
                min_delta_s=args.min_delta_ms * 1e-3,
            )
            print(f"\ncompared against {previous_path}:")
            for row in comparisons:
                marker = " REGRESSION" if row in regressions else ""
                print(
                    f"  {row['benchmark']:<40} {row['previous_s'] * 1e3:>9.2f} -> "
                    f"{row['current_s'] * 1e3:>9.2f} ms "
                    f"({row['ratio']:.2f}x){marker}"
                )
            if regressions:
                print(
                    f"\n{len(regressions)} benchmark(s) regressed beyond "
                    f"{args.tolerance:.0%} tolerance"
                )
                exit_code = 1
        else:
            print("\nno previous BENCH_*.json found; skipping comparison")
    if args.require:
        missing = [
            entry
            for entry in args.require.split(",")
            if entry and entry not in payload["benchmarks"]
        ]
        if missing:
            print(f"\nFATAL: required benchmark entries missing: {missing}")
            exit_code = 1
    failed_checks = [
        check for check, ok in payload["checks"].items() if not ok
    ]
    if failed_checks:
        print(f"\nFATAL: identity/structure check(s) failed: {failed_checks}")
        exit_code = 1
    if exit_code:
        print("\n" + render_speedup_table(payload, comparisons))

    if not args.no_write:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        out_path = args.output_dir / name
        out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nreport written to {out_path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
