"""Run scenario specs through the execution-plan engine.

:func:`run_scenario` is the generic entry point the CLI's ``run``
subcommand sits on; :func:`run_batch` is the many-scenario variant behind
``batch``.  Both resolve the spec(s) (fast values, mesh override,
calibration policy), consult the :class:`RunStore` keyed on each spec's
content hash, and compile whatever missed into ONE merged
:class:`~repro.scenarios.plan.ExecutionPlan` — a flat DAG of
content-keyed point/calibration/reference nodes, deduplicated across
scenarios — which the :mod:`~repro.scenarios.scheduler` streams over the
pluggable :class:`repro.perf.SweepExecutor` engine.  Per-scenario
:class:`~repro.scenarios.results.ExperimentResult`\\ s are then
reassembled from the executed nodes.  This is the only way a scenario
runs; ``tests/golden/builtin_digests.json`` pins the bytes of every
builtin's payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..perf.retry import DEFAULT_RETRY, NodeFailure, RetryPolicy
from .registry import SCENARIOS
from .results import StoredCaseStudy, result_from_store_payload
from .spec import ScenarioSpec

if TYPE_CHECKING:
    from ..perf.executors import SweepExecutor
    from .drain import DrainGuard
    from .lease import LeaseManager
    from .scheduler import ProgressFn
    from .store import RunStore

__all__ = [
    "BatchRun",
    "ScenarioRun",
    "StoredCaseStudy",
    "resolve_specs",
    "run_batch",
    "run_scenario",
]


def resolve_specs(
    specs: list[ScenarioSpec | str],
    *,
    fast: bool,
    fem_resolution: str | None,
    calibrate: bool | None,
) -> list[ScenarioSpec]:
    """Look up registered ids and resolve every spec against the run-time
    choices, so each content hash covers exactly what runs."""
    return [
        (SCENARIOS.get(spec) if isinstance(spec, str) else spec).resolved(
            fast=fast, fem_resolution=fem_resolution, calibrate=calibrate
        )
        for spec in specs
    ]


@dataclass(frozen=True)
class ScenarioRun:
    """One completed scenario run.

    ``result`` is an :class:`~repro.scenarios.results.ExperimentResult`
    for sweeps (reconstructed from the payload on a store hit) or a
    :class:`~repro.experiments.case_study.CaseStudyExperiment` /
    :class:`StoredCaseStudy` for the case study; ``from_store`` says
    whether anything was actually solved.  When plan nodes this scenario
    needs were quarantined (exhausted their retry budget), ``result`` is
    None and ``failures`` holds their ledger records — the scenario is
    *failed*, not silently absent, and a later ``--resume`` re-attempts
    exactly those nodes.
    """

    spec: ScenarioSpec  # the resolved spec that keyed the run
    key: str  # spec.content_hash(); the RunStore address
    result: Any
    from_store: bool
    failures: tuple[NodeFailure, ...] = ()

    @property
    def failed(self) -> bool:
        return bool(self.failures)


@dataclass(frozen=True)
class BatchRun:
    """A completed :func:`run_batch`: per-scenario runs plus plan stats.

    ``stats`` merges the compiler's node counts (``nodes_total``,
    ``nodes_deduped``, per-kind counts) with the scheduler's satisfaction
    counts (``solved`` / ``store`` / ``failed``) and
    ``run_store_hits``.  ``failures`` is the batch-wide quarantine
    ledger — one record per failed plan node, deduplicated across the
    scenarios that share it.
    """

    runs: tuple[ScenarioRun, ...]
    stats: dict[str, int] = field(default_factory=dict)
    failures: tuple[NodeFailure, ...] = ()


def run_batch(
    specs: list[ScenarioSpec | str],
    *,
    executor: SweepExecutor | None = None,
    store: RunStore | None = None,
    resume: bool = False,
    fast: bool = False,
    fem_resolution: str | None = None,
    calibrate: bool | None = None,
    progress: ProgressFn | None = None,
    stack_batches: bool = True,
    retry: RetryPolicy = DEFAULT_RETRY,
    claims: LeaseManager | None = None,
    poll_s: float = 0.05,
    drain: DrainGuard | None = None,
) -> BatchRun:
    """Run many scenarios as one merged, deduplicated execution plan.

    Each spec is resolved and checked against the run store first (a hash
    hit returns the stored payload without compiling anything).  The
    misses are compiled together, so calibration samples, reference
    solves and sweep points shared *between* scenarios are solved exactly
    once; with a ``store`` every solved node lands in the point-level
    object space as it completes, and ``resume=True`` reads those points
    back so an interrupted batch continues where it stopped.
    ``stack_batches`` (default on) lets the scheduler dispatch nodes that
    share a system matrix — power sweeps, shared geometries — or a
    system structure — geometry sweeps over the small models — as
    stacked units: one factorization per shared matrix with one RHS per
    point, one batched solve for the rest; results are bit-identical.  ``retry`` is the fault-tolerance policy (see
    :func:`~repro.scenarios.scheduler.execute_plan`): failures retry,
    then quarantine — a scenario whose nodes exhausted their budget comes
    back as a *failed* :class:`ScenarioRun` (``result=None`` plus the
    ledger records) while every other scenario completes normally.
    ``claims`` makes this invocation one cooperating member of a fleet of
    workers sharing ``store`` (see :mod:`repro.scenarios.fleet`): nodes
    are solved under lease, peer results are read back from the point
    space (paced by ``poll_s``), and every worker assembles every
    scenario — run-level artifacts are deterministic, so concurrent
    writes are idempotent.  ``drain`` (a
    :class:`~repro.scenarios.drain.DrainGuard`) lets a shutdown signal
    stop the plan at a safe point: landed points stay committed, held
    leases are released, and :class:`~repro.errors.DrainError`
    propagates out for the caller to map to an exit code.
    """
    resolved = resolve_specs(
        specs, fast=fast, fem_resolution=fem_resolution, calibrate=calibrate
    )
    runs: list[ScenarioRun | None] = [None] * len(resolved)
    to_plan: list[tuple[int, ScenarioSpec]] = []
    run_store_hits = 0
    for i, spec in enumerate(resolved):
        key = spec.content_hash()
        if store is not None:
            payload = store.get(key)
            if payload is not None:
                result: Any = result_from_store_payload(spec, payload)
                runs[i] = ScenarioRun(
                    spec=spec, key=key, result=result, from_store=True
                )
                run_store_hits += 1
                continue
        to_plan.append((i, spec))

    stats: dict[str, int] = {"run_store_hits": run_store_hits}
    if to_plan:
        # the solver stack loads only when something missed the store
        from .plan import assemble_scenario, compile_plan
        from .scheduler import execute_plan

        plan = compile_plan([spec for _, spec in to_plan], fast=fast)

        # assemble and store each scenario the moment its last node lands,
        # so a batch that fails on scenario N still keeps every finished
        # scenario's run-level artifact
        node_results: dict[str, Any] = {}
        pending: list[tuple[int, ScenarioSpec, Any, set[str]]] = []
        for (i, spec), entry in zip(to_plan, plan.scenarios):
            if entry.assembly is not None:
                needed = {
                    key
                    for keys in entry.assembly.node_keys.values()
                    for key in keys
                }
            elif entry.physics is not None:
                needed = {
                    key
                    for keys in entry.physics.node_keys.values()
                    for key in keys
                }
            else:
                needed = {entry.node_key}
            pending.append((i, spec, entry, needed))

        def on_node(key: str, value: Any) -> None:
            node_results[key] = value
            for i, spec, entry, needed in pending:
                needed.discard(key)
                if not needed and runs[i] is None:
                    result = assemble_scenario(entry, node_results)
                    if store is not None:
                        store.put(entry.run_key, result.to_payload())
                    runs[i] = ScenarioRun(
                        spec=spec, key=entry.run_key, result=result,
                        from_store=False,
                    )

        outcome = execute_plan(
            plan,
            executor=executor,
            store=store,
            resume=resume,
            progress=progress,
            on_node=on_node,
            stack_batches=stack_batches,
            retry=retry,
            claims=claims,
            poll_s=poll_s,
            drain=drain,
        )
        stats.update(plan.stats)
        stats.update(outcome.counts)
        all_failures = tuple(outcome.failures.values())
        # scenarios whose needed nodes were quarantined never assembled in
        # on_node: surface them as failed runs carrying their ledger slice
        for i, spec, entry, needed in pending:
            if runs[i] is None:
                related = tuple(
                    outcome.failures[k]
                    for k in sorted(needed)
                    if k in outcome.failures
                )
                runs[i] = ScenarioRun(
                    spec=spec,
                    key=entry.run_key,
                    result=None,
                    from_store=False,
                    failures=related,
                )
        assert all(run is not None for run in runs)
        return BatchRun(
            runs=tuple(runs), stats=stats, failures=all_failures
        )  # type: ignore[arg-type]
    return BatchRun(runs=tuple(runs), stats=stats)  # type: ignore[arg-type]


def run_scenario(
    spec: ScenarioSpec | str,
    *,
    executor: SweepExecutor | None = None,
    store: RunStore | None = None,
    fast: bool = False,
    fem_resolution: str | None = None,
    calibrate: bool | None = None,
    resume: bool = False,
    progress: ProgressFn | None = None,
    stack_batches: bool = True,
    retry: RetryPolicy = DEFAULT_RETRY,
    drain: DrainGuard | None = None,
) -> ScenarioRun:
    """Run one scenario (a spec, or a registered scenario id).

    The spec is first :meth:`~ScenarioSpec.resolved` against the run-time
    choices so the content hash covers exactly what runs.  With a
    ``store``, a hash hit returns the stored payload — reconstructed into
    an :class:`ExperimentResult` for sweeps — without solving anything; a
    miss compiles the spec into a single-scenario execution plan (see
    :func:`run_batch`).  ``executor`` picks the sweep execution
    strategy (serial default; the CLI's ``--jobs N`` passes a
    :class:`~repro.perf.ParallelExecutor`); ``resume`` reuses stored
    point-level artifacts from an interrupted earlier run.
    """
    batch = run_batch(
        [spec],
        executor=executor,
        store=store,
        resume=resume,
        fast=fast,
        fem_resolution=fem_resolution,
        calibrate=calibrate,
        progress=progress,
        stack_batches=stack_batches,
        retry=retry,
        drain=drain,
    )
    return batch.runs[0]
