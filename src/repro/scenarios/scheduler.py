"""Topological execution of compiled plans on the sweep executors.

:func:`execute_plan` walks the merged node graph a
:func:`~repro.scenarios.plan.compile_plan` call produced:

* ready :class:`~repro.scenarios.plan.SolveNode`\\ s are first resolved
  against the global result cache, then (``resume=True``) against the
  :class:`~repro.scenarios.store.RunStore`'s point-level object space;
* the remaining ready nodes are regrouped for dispatch.  Nodes sharing a
  non-None ``assembly_key`` — the same system matrix, different
  right-hand sides (power sweeps, calibration samples, repeated
  geometries across scenarios) — become one
  :class:`~repro.perf.MatrixGroupTask` solved through the model's
  ``solve_batch``: voxelise/assemble/factorise once, back-substitute per
  member, with the shared payload shipped once under parallel dispatch.
  Of what remains, solve nodes sharing a non-None ``batch_class_key`` —
  structurally congruent systems with *different* matrices (geometry
  sweeps over the small network models) — become one
  :class:`~repro.perf.StackedBatchTask` solved via
  :func:`repro.core.base.solve_stacked`: every member's dense system is
  assembled and all of them go through one batched ``(m, n, n)`` LAPACK
  call instead of m Python-level solver round-trips.  Everything else
  falls back to per-point
  :class:`~repro.perf.PointTask`\\ s (one dispatch per geometry, not per
  model — the same batching the eager sweep used).  All shapes stream
  over the executor's :meth:`~repro.perf.SweepExecutor.submit_stream`
  as-completed interface; ``group_matrices=False`` /
  ``stack_batches=False`` disable the regroupings (the paths are
  bit-identical — asserted by tests and the ``multi_rhs_identical`` /
  ``stacked_identical`` bench checks);
* the physics kinds flow through the same machinery:
  :class:`~repro.scenarios.plan.TransientNode`\\ s dispatch like solve
  nodes (their adapter's ``solve``/``solve_batch`` integrate the
  backward-Euler trajectory; same-network trajectories share an
  ``assembly_key`` and factorise once per group), and
  :class:`~repro.scenarios.plan.NonlinearNode`\\ s dispatch once their
  linear baseline — an ordinary, deduplicatable solve node — lands,
  seeding the k(T) fixed-point chain with its result;
* :class:`~repro.scenarios.plan.CalibrationNode`\\ s run in the parent as
  soon as their reference solves land — mid-stream, between completions —
  and their dependent calibrated solve nodes dispatch in the next
  executor wave.  Finished fits are memoized in the result cache keyed on
  (reference config, sample solve keys) via
  :func:`repro.perf.calibration_fit_key`, so repeated in-process batches
  skip the least-squares fit too (counters
  ``calibration_fit_hits`` / ``calibration_fit_misses``);
* every completed node is written into the store's point space
  (``points/<key>.json``) so a killed batch resumes from its solved
  points;
* failures are *results*, not scheduler-unwinding exceptions: the
  executor stream yields a :class:`~repro.perf.retry.TaskFailure` for a
  failed task, a failed multi-node task (a matrix group, a multi-model
  point bucket) degrades to per-member solo dispatch so one bad RHS
  cannot sink its group, solo failures retry under the
  :class:`~repro.perf.RetryPolicy` (exponential backoff with
  deterministic jitter; each attempt is an independent fault-injection
  draw), and whatever exhausts its budget is
  *quarantined*: recorded as a :class:`~repro.perf.NodeFailure` in
  ``ScheduleOutcome.failures`` (and the store's ``failures/`` space)
  while the rest of the plan completes.  Nodes depending on a
  quarantined node cascade into the ledger instead of deadlocking the
  walk;
* with a :class:`~repro.scenarios.lease.LeaseManager` (``claims=...``)
  the scheduler runs as one member of a cooperating *fleet*
  (:mod:`repro.scenarios.fleet`): content-keyed dispatch nodes are
  claimed unit-at-a-time before solving (matrix groups and stacked
  batches claim whole, so the batch tiers survive distribution), nodes
  a peer holds are deferred and their results read back from the point
  space, failures a peer quarantines during the run are adopted from
  the ledger (counter ``plan_failures_adopted``), a dead peer's expired
  claims are stolen, and every commit is fenced —
  ``put_point``-before-release, with a
  :class:`~repro.errors.LeaseLostError` check that keeps a usurped
  worker from publishing over its successor.

Every solve is deterministic and batched solves are bit-identical to
per-point solves, so cache hits, store hits, fresh solves and group
membership are all numerically interchangeable — scheduling order never
changes the assembled results.  Counters land in
:func:`repro.perf.stats`: ``plan_point_solves`` (actual solves
dispatched), ``plan_transient_solves`` / ``plan_nonlinear_solves`` (the
physics-kind subsets), ``plan_matrix_groups`` / ``plan_grouped_solves``
(matrix groups dispatched and the nodes they carried),
``plan_stacked_batches`` / ``plan_stacked_solves`` (stacked batches
dispatched and the nodes they carried),
``plan_calibrations``, ``point_store_hits`` / ``point_store_misses``,
``plan_retries`` (failed dispatches re-attempted),
``plan_group_degradations`` (multi-node tasks split after a failure),
``plan_quarantined`` (nodes that exhausted their budget),
``plan_poison_degradations`` (nodes forced solo by the fleet-wide blame
ledger) and ``plan_poison_quarantined`` (nodes quarantined outright for
repeatedly crashing executors — see the store's ``blame/`` space and
:class:`~repro.perf.RetryPolicy`'s ``poison_solo_after`` /
``poison_quarantine_after`` thresholds).
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..calibration import fit_coefficients
from ..core.nonlinear import NonlinearResult
from ..core.result import ModelResult
from ..errors import DrainError, ExperimentError, LeaseLostError
from ..experiments.harness import calibrated_model_from_fit
from ..network.transient import TransientResult
from ..perf import (
    MatrixGroupTask,
    PointTask,
    SerialExecutor,
    StackedBatchTask,
    SweepExecutor,
    SweepTask,
    calibration_fit_key,
    content_key,
    increment,
    result_cache,
    solve_key,
)
from ..perf.memo import memoized_fit
from ..perf.retry import (
    DEFAULT_RETRY,
    PROPAGATE_TYPES,
    NodeFailure,
    RetryPolicy,
    TaskFailure,
    failure_from_exception,
)
from ..resistances import FittingCoefficients
from .physics import NonlinearModel
from .plan import (
    DISPATCH_NODE_TYPES,
    CalibrationNode,
    CaseStudyNode,
    ExecutionPlan,
    NonlinearNode,
    SolveNode,
    TransientNode,
    is_content_key,
    run_case_study_spec,
)
from .drain import DrainGuard
from .lease import LeaseManager
from .results import StoredCaseStudy
from .store import RunStore

#: progress callback: one event dict per completed node
#: ``{"done", "total", "key", "kind", "source", "elapsed_s"}`` with source
#: in ``{"solved", "cache", "store"}``; ``elapsed_s`` is the wall-clock
#: time since the previous completion (the stream's per-node cadence).
#: Freshly solved nodes additionally carry ``"dispatch"`` — how the solve
#: was dispatched: ``"point"`` (solo/per-point bucket), ``"group"``
#: (multi-RHS matrix group) or ``"stacked"`` (cross-matrix stacked batch)
ProgressFn = Callable[[dict[str, Any]], None]

#: audit hook for the chaos harness: when this names a directory, every
#: *fresh* point commit (a solve landed under this process's own lease —
#: not cache republishes, not store read-backs) appends its node key to
#: ``<dir>/<pid>.solves``.  The append happens after ``put_point``
#: succeeds and before the lease is released, so a kill at any instant
#: can only under-record, never attribute a commit that did not happen —
#: which is what lets ``scripts/chaos_soak.py`` assert *zero
#: double-solves*: the lease fencing guarantees at most one committed
#: solve per key fleet-wide, and the union of ledgers proves it.
SOLVE_LEDGER_ENV = "REPRO_SOLVE_LEDGER"


def _record_solve(key: str) -> None:
    ledger_dir = os.environ.get(SOLVE_LEDGER_ENV)
    if not ledger_dir:
        return
    try:
        path = os.path.join(ledger_dir, f"{os.getpid()}.solves")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(key + "\n")
    except OSError:
        # the audit trail must never fail the run it audits
        pass


#: completion hook: ``(node key, node result)`` the moment a node finishes
#: (:func:`repro.scenarios.runner.run_batch` uses it to assemble and store
#: each scenario as soon as its last node lands)
OnNodeFn = Callable[[str, Any], None]


@dataclass
class ScheduleOutcome:
    """Executed node results plus how each unit of work was satisfied.

    ``failures`` is the failure ledger: one
    :class:`~repro.perf.NodeFailure` per quarantined node (a node that
    exhausted its retry budget, failed non-transiently, or depends on one
    that did).  Quarantined keys never appear in ``results``.
    """

    results: dict[str, Any]
    counts: dict[str, int] = field(
        default_factory=lambda: {"solved": 0, "cache": 0, "store": 0}
    )
    failures: dict[str, NodeFailure] = field(default_factory=dict)


def execute_plan(
    plan: ExecutionPlan,
    *,
    executor: SweepExecutor | None = None,
    store: RunStore | None = None,
    resume: bool = False,
    progress: ProgressFn | None = None,
    on_node: OnNodeFn | None = None,
    group_matrices: bool = True,
    stack_batches: bool = True,
    retry: RetryPolicy = DEFAULT_RETRY,
    claims: LeaseManager | None = None,
    poll_s: float = 0.05,
    drain: DrainGuard | None = None,
) -> ScheduleOutcome:
    """Execute every node of ``plan`` and return the per-key results.

    ``store`` enables point-level persistence (always written when given);
    ``resume`` additionally *reads* stored points, so an interrupted batch
    picks up from its solved points instead of re-solving them.
    ``group_matrices`` controls the matrix-batched dispatch: ready nodes
    sharing an ``assembly_key`` are solved as one group (factor once, one
    RHS per node) unless disabled — results are bit-identical either way.
    ``stack_batches`` controls the cross-matrix stacked tier below it:
    ungrouped solve nodes sharing a ``batch_class_key`` are solved as one
    batched dense call unless disabled — also bit-identical either way.
    ``retry`` is the fault-tolerance policy: transient task failures are
    retried up to ``retry.max_attempts`` dispatches (solo, with backoff),
    multi-node tasks degrade to per-member dispatch on failure, and
    exhausted nodes land in ``ScheduleOutcome.failures`` instead of
    raising.

    ``claims`` turns this scheduler into one cooperating member of a
    *fleet*: every content-keyed dispatch node is solved only under an
    acquired :mod:`~repro.scenarios.lease` claim, whole dispatch units
    (matrix groups, stacked batches, point buckets) are claimed together
    so the batch tiers survive distribution, nodes claimed by a peer are
    *deferred* — their results are read back from the store when the
    peer commits them (``poll_s`` paces that wait), a dead peer's claims
    expire and its nodes are stolen, and results are committed
    put-before-release with a fencing check so a worker that lost its
    lease mid-solve never publishes over its usurper.  Requires
    ``store`` (the point space is the inter-worker result channel).
    Deterministic solves make any interleaving byte-identical to the
    single-process path.

    ``drain`` is a :class:`~repro.scenarios.drain.DrainGuard`: when a
    shutdown signal has been observed, the scheduler stops at its next
    safe point — after the in-flight completion has been committed —
    releases every held lease, and raises
    :class:`~repro.errors.DrainError`.  Landed points stay in the store,
    so ``resume=True`` continues exactly where the drain stopped.
    """
    executor = executor or SerialExecutor()
    if claims is not None and store is None:
        raise ExperimentError(
            "claim-aware execution needs a store: the point space is the "
            "only channel through which cooperating workers exchange results"
        )
    nodes = plan.nodes
    outcome = ScheduleOutcome(results={})
    results = outcome.results
    failures = outcome.failures
    attempts: dict[str, int] = {}  # failed dispatches per node key
    solo: set[str] = set()  # keys that must dispatch alone (post-failure)
    #: this wave's snapshot of the store's fleet-wide poison-unit ledger
    blame_snapshot: dict[str, int] = {}
    poison_forced: set[str] = set()  # keys already counted as poison-solo
    #: nodes claimed by a cooperating worker: key -> (node, model, cache_key)
    deferred: dict[str, tuple[Any, Any, str | None]] = {}
    wall_start = time.time()  # gates peer-failure adoption to this run
    last_renew = time.monotonic()

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = defaultdict(list)
    for key, node in nodes.items():
        deps = set(node.deps)
        missing = deps - nodes.keys()
        if missing:
            raise ExperimentError(
                f"plan node {key} depends on unknown node(s) {sorted(missing)}"
            )
        indegree[key] = len(deps)
        for dep in deps:
            dependents[dep].append(key)

    ready_solve: list[Any] = []
    ready_other: deque[CalibrationNode | CaseStudyNode] = deque()
    for key, node in nodes.items():
        if indegree[key] == 0:
            if isinstance(node, DISPATCH_NODE_TYPES):
                ready_solve.append(node)
            else:
                ready_other.append(node)

    total = len(nodes)
    done = 0
    last_completion = time.perf_counter()

    def complete(node: Any, source: str, dispatch: str | None = None) -> None:
        """Shared bookkeeping for a node leaving the graph (success or
        quarantine): counts, dependent unlocking — with failed-dependency
        cascade — and the progress event."""
        nonlocal done, last_completion
        done += 1
        outcome.counts[source] = outcome.counts.get(source, 0) + 1
        for dep_key in dependents[node.key]:
            indegree[dep_key] -= 1
            if indegree[dep_key] == 0:
                dep = nodes[dep_key]
                failed_deps = sorted(set(dep.deps) & failures.keys())
                if failed_deps:
                    quarantine_dependency(dep, failed_deps)
                elif isinstance(dep, DISPATCH_NODE_TYPES):
                    ready_solve.append(dep)
                else:
                    ready_other.append(dep)
        now = time.perf_counter()
        elapsed, last_completion = now - last_completion, now
        if progress is not None:
            event = {
                "done": done,
                "total": total,
                "key": node.key,
                "kind": node.kind,
                "source": source,
                "elapsed_s": elapsed,
            }
            if dispatch is not None:
                event["dispatch"] = dispatch
            progress(event)

    def finish(
        node: Any, value: Any, source: str, dispatch: str | None = None
    ) -> None:
        results[node.key] = value
        if store is not None and is_content_key(node.key):
            # a success supersedes any quarantine record from an earlier run
            store.clear_failure(node.key)
        if on_node is not None:
            on_node(node.key, value)
        complete(node, source, dispatch)

    def quarantine(node: Any, failure: NodeFailure) -> None:
        """Retire ``node`` into the failure ledger; the plan keeps going."""
        failures[node.key] = failure
        increment("plan_quarantined")
        if store is not None and is_content_key(node.key):
            # ledger-before-release: peers observing the freed claim find
            # the failure record and adopt it instead of re-attempting
            store.put_failure(node.key, failure)
        if claims is not None:
            claims.release(node.key)
        complete(node, "failed")

    def quarantine_task_failure(
        node: Any, failure: TaskFailure, n_attempts: int
    ) -> None:
        quarantine(
            node,
            NodeFailure(
                key=node.key,
                kind=node.kind,
                error_class=failure.error_class,
                message=failure.message,
                traceback_digest=failure.traceback_digest,
                attempts=n_attempts,
            ),
        )

    def quarantine_dependency(dep: Any, failed_deps: list[str]) -> None:
        quarantine(
            dep,
            NodeFailure(
                key=dep.key,
                kind=dep.kind,
                error_class="DependencyError",
                message=(
                    "depends on quarantined node(s): "
                    + ", ".join(failed_deps)
                ),
                traceback_digest="",
                attempts=0,
            ),
        )

    def run_calibration(node: CalibrationNode) -> None:
        if resume and store is not None and is_content_key(node.key):
            payload = store.get_point(node.key)
            if payload is not None:
                try:
                    coefficients = FittingCoefficients(
                        payload["k1"], payload["k2"], payload["c_bond"]
                    )
                except (KeyError, TypeError, ValueError):
                    # readable JSON but not a calibration payload: heal it
                    # away and re-fit rather than resume a poisoned point
                    store.heal_point(node.key)
                else:
                    finish(node, coefficients, "store")
                    return
        # the node key IS the fit identity (reference config + sample solve
        # keys), so the finished CalibrationResult memoizes under a key
        # derived from it — repeated in-process batches skip the
        # least-squares fit, not just the point solves
        fit_key = (
            calibration_fit_key(node.key) if is_content_key(node.key) else None
        )

        def compute():
            targets = [results[k].max_rise for k in node.sample_keys]
            fit = fit_coefficients(list(node.samples), None, targets=targets)
            increment("plan_calibrations")
            return fit

        try:
            fit, from_cache = memoized_fit(fit_key, compute)
        except PROPAGATE_TYPES:
            raise
        except Exception as exc:
            # parent-side nodes get no retries: a deterministic fit that
            # failed once will fail again, so it goes straight to the ledger
            quarantine_task_failure(node, failure_from_exception(exc), 1)
            return
        source = "cache" if from_cache else "solved"
        coefficients = fit.coefficients
        if store is not None and is_content_key(node.key):
            store.put_point(
                node.key,
                {
                    "kind": "calibration",
                    "k1": coefficients.k1,
                    "k2": coefficients.k2,
                    "c_bond": coefficients.c_bond,
                    "residual_rms": fit.residual_rms,
                },
            )
        finish(node, coefficients, source)

    def run_case_study(node: CaseStudyNode) -> None:
        if resume and store is not None and is_content_key(node.key):
            payload = store.get_point(node.key)
            if payload is not None:
                finish(node, StoredCaseStudy(payload), "store")
                return
        try:
            result = run_case_study_spec(node.spec)
        except PROPAGATE_TYPES:
            raise
        except Exception as exc:
            quarantine_task_failure(node, failure_from_exception(exc), 1)
            return
        if store is not None and is_content_key(node.key):
            store.put_point(node.key, result.to_payload())
        finish(node, result, "solved")

    def drain_parent_nodes() -> bool:
        ran = False
        while ready_other:
            node = ready_other.popleft()
            if isinstance(node, CalibrationNode):
                run_calibration(node)
            else:
                run_case_study(node)
            ran = True
        return ran

    def node_cache_key(node: Any, model: Any) -> str | None:
        """The result-cache key for a dispatchable node, or None (never cache).

        For concrete picklable models the plan key IS the cache key;
        opaque plan keys are compile-local and must not reach the cache.
        Calibrated models get their key only now that the fitted
        coefficients exist.
        """
        if isinstance(node, SolveNode) and node.model is None:
            return solve_key(model, node.stack, node.via, node.power)
        return node.key if is_content_key(node.key) else None

    def node_payload_result(node: Any, payload: dict[str, Any]) -> Any:
        """Decode a stored point payload into the node's result type."""
        if isinstance(node, TransientNode):
            return TransientResult.from_payload(payload)
        if isinstance(node, NonlinearNode):
            return NonlinearResult.from_payload(payload)
        return ModelResult.from_payload(payload)

    def node_model(node: Any) -> Any:
        """The dispatchable model instance a ready node solves with.

        Solve nodes carry their model (or materialise the calibrated one
        from the landed fit); transient nodes carry their adapter; a
        nonlinear node's chain is seeded with its landed linear baseline.
        """
        if isinstance(node, NonlinearNode):
            return NonlinearModel(
                node.model, node.params, initial=results[node.linear]
            )
        if node.model is None:
            return calibrated_model_from_fit(
                results[node.calibration], name=node.model_name
            )
        return node.model

    # ------------------------------------------------------------------
    # fleet cooperation: lease claiming, peer read-back, failure adoption
    # ------------------------------------------------------------------
    def finish_from_store(entry: tuple[Any, Any, str | None]) -> bool:
        """Finish a node from a peer's stored payload; False on miss."""
        node, _, cache_key = entry
        payload = store.get_point(node.key)
        if payload is None:
            return False
        try:
            result = node_payload_result(node, payload)
        except (KeyError, TypeError, ValueError):
            store.heal_point(node.key)
            return False
        if cache_key is not None:
            result_cache.put(cache_key, result)
        finish(node, result, "store")
        return True

    def adopt_peer_failure(node: Any) -> bool:
        """Adopt a failure a peer quarantined *during this run*.

        Records written before this run started are stale — ``--resume``
        deliberately re-attempts them — so adoption is gated on the
        ledger file's age: only a record younger than this execution is
        a cooperating worker's verdict on the very plan we are running.
        """
        failure = store.get_failure(node.key)
        if failure is None:
            return False
        age = store.failure_age_s(node.key)
        if age is None or time.time() - age < wall_start:
            return False
        failures[node.key] = failure
        increment("plan_failures_adopted")
        complete(node, "failed")
        return True

    def claim_entry(entry: tuple[Any, Any, str | None]) -> bool:
        """Secure ``entry`` for local dispatch; False removes it.

        False means the node left this worker's hands: a peer holds its
        lease (deferred — its result will be read back), a peer already
        quarantined it (adopted), or a peer's result landed between our
        store check and our claim (finished from store).  Nodes without
        a content key cannot be shared through the store at all, so
        every worker simply computes them locally.
        """
        node = entry[0]
        if not is_content_key(node.key):
            return True
        if adopt_peer_failure(node):
            return False
        if not claims.acquire(node.key):
            deferred[node.key] = entry
            return False
        # the claim is ours, but a peer may have completed-and-released
        # this node since our resume check: the store is the arbiter
        if finish_from_store(entry):
            claims.release(node.key)
            return False
        return True

    def claim_units(grouped, stacks, buckets) -> tuple[dict, list, list]:
        """Claim whole dispatch units, rotated so workers spread out.

        Units are claimed member-by-member but *visited* whole — a
        worker that wins any member of a matrix group tends to win the
        rest in the same pass, so the batch tiers survive distribution —
        and the visiting order is rotated by a hash of this worker's
        owner id, so N workers hitting the same ready wave start
        claiming at different units instead of racing door-to-door in
        lockstep.  (Batched solves are batch-size invariant, so a unit
        split by a lost race is still byte-identical — just less
        batched.)  An idle worker whose own share is exhausted keeps
        visiting and takes whatever is still unclaimed: work stealing
        falls out of the same loop.
        """
        units: list[tuple[str, Any]] = (
            [("group", akey) for akey in grouped]
            + [("stack", i) for i in range(len(stacks))]
            + [("bucket", i) for i in range(len(buckets))]
        )
        if not units:
            return grouped, stacks, buckets
        seed = hashlib.blake2b(
            claims.owner.encode(), digest_size=4
        ).digest()
        offset = int.from_bytes(seed, "big") % len(units)
        kept_groups: dict[str, list] = {}
        kept_stacks: list[list] = []
        kept_buckets: list[dict] = []
        for shape, ref in units[offset:] + units[:offset]:
            if shape == "group":
                members = [e for e in grouped[ref] if claim_entry(e)]
                if members:
                    kept_groups[ref] = members
            elif shape == "stack":
                members = [e for e in stacks[ref] if claim_entry(e)]
                if members:
                    kept_stacks.append(members)
            else:
                bucket = {
                    name: e
                    for name, e in buckets[ref].items()
                    if claim_entry(e)
                }
                if bucket:
                    kept_buckets.append(bucket)
        return kept_groups, kept_stacks, kept_buckets

    def poll_deferred() -> bool:
        """Resolve deferred nodes; True when any left deferral.

        A deferred node comes back three ways: its holder committed a
        result (read back from the store), its holder quarantined it
        (adopted from the ledger), or its holder died — the lease
        expired, the steal succeeds, and the node returns to our own
        ready set.
        """
        progressed = False
        for key, entry in list(deferred.items()):
            node = entry[0]
            if finish_from_store(entry) or adopt_peer_failure(node):
                del deferred[key]
                progressed = True
            elif claims.acquire(key):
                del deferred[key]
                ready_solve.append(node)
                progressed = True
        return progressed

    def maybe_renew() -> None:
        """Extend this worker's claims well before any can expire."""
        nonlocal last_renew
        now = time.monotonic()
        if claims is not None and now - last_renew >= claims.ttl_s / 3.0:
            claims.renew_all()
            last_renew = now

    def check_drain() -> None:
        """Honour a pending drain request at this safe point.

        Everything that already landed is committed; every lease this
        worker still holds is released so peers (or a later ``--resume``)
        pick the nodes up immediately instead of waiting out the TTL.
        """
        if drain is not None and drain.requested is not None:
            if claims is not None:
                claims.release_all()
            raise DrainError(drain.requested)

    while done < total:
        check_drain()
        progressed = drain_parent_nodes()
        if claims is not None and deferred:
            progressed = poll_deferred() or progressed
        if not ready_solve:
            if progressed:
                continue
            if claims is not None and deferred:
                # every remaining node is in a peer's hands: wait for
                # results (or expired claims) instead of busy-spinning
                check_drain()
                maybe_renew()
                time.sleep(poll_s)
                continue
            raise ExperimentError("execution plan has a dependency cycle")

        batch, ready_solve = ready_solve, []
        dispatch: list[tuple[Any, Any, str | None]] = []
        for node in batch:
            model = node_model(node)
            cache_key = node_cache_key(node, model)
            cached = (
                result_cache.get(cache_key) if cache_key is not None else None
            )
            if cached is not None:
                # persist cache-satisfied nodes too: resume must not depend
                # on the in-memory cache of the killed process
                if store is not None and is_content_key(node.key):
                    store.put_point(node.key, cached.to_payload())
                finish(node, cached, "cache")
                continue
            if resume and store is not None and is_content_key(node.key):
                payload = store.get_point(node.key)
                if payload is not None:
                    try:
                        result = node_payload_result(node, payload)
                    except (KeyError, TypeError, ValueError):
                        # valid JSON, wrong shape (e.g. a healed-over write
                        # from an older schema): treat as a miss and re-solve
                        store.heal_point(node.key)
                    else:
                        if cache_key is not None:
                            result_cache.put(cache_key, result)
                        finish(node, result, "store")
                        continue
            dispatch.append((node, model, cache_key))

        # poison-unit isolation: consult the store's fleet-wide blame
        # ledger before building dispatch units.  A node whose executors
        # have crashed poison_solo_after times (across every worker and
        # every supervisor respawn) is forced out of the batch tiers into
        # solo dispatch; past poison_quarantine_after it goes straight to
        # the failure ledger without costing this worker a single pool
        # rebuild.
        if store is not None and dispatch:
            blame_snapshot = store.blame_counts()
            if blame_snapshot:
                kept: list[tuple[Any, Any, str | None]] = []
                for entry in dispatch:
                    node = entry[0]
                    count = (
                        blame_snapshot.get(node.key, 0)
                        if is_content_key(node.key)
                        else 0
                    )
                    if count >= retry.poison_quarantine_after:
                        increment("plan_poison_quarantined")
                        quarantine(
                            node,
                            NodeFailure(
                                key=node.key,
                                kind=node.kind,
                                error_class="PoisonedUnitError",
                                message=(
                                    f"poison unit: crashed its executor "
                                    f"{count}x fleet-wide (threshold "
                                    f"{retry.poison_quarantine_after})"
                                ),
                                traceback_digest="",
                                attempts=attempts.get(node.key, 0),
                            ),
                        )
                        continue
                    if count >= retry.poison_solo_after and node.key not in solo:
                        solo.add(node.key)
                        if node.key not in poison_forced:
                            poison_forced.add(node.key)
                            increment("plan_poison_degradations")
                    kept.append(entry)
                dispatch = kept

        # matrix groups first: nodes sharing an assembly_key solve the
        # identical system matrix and differ only in their RHS, so they
        # dispatch as one MatrixGroupTask (voxelise/assemble/factor once,
        # back-substitute per member; the shared payload crosses the
        # process boundary once).  Singleton "groups" gain nothing and
        # fall back to per-point batching with everything else.
        # nodes that already failed once dispatch *solo*: out of any matrix
        # group or multi-model bucket, so the retry's blame is unambiguous
        # and one repeat offender cannot sink innocents again
        solo_entries = [e for e in dispatch if e[0].key in solo]
        dispatch = [e for e in dispatch if e[0].key not in solo]

        grouped: dict[str, list[tuple[Any, Any, str | None]]] = {}
        ungrouped: list[tuple[Any, Any, str | None]] = []
        if group_matrices:
            by_assembly: dict[str, list] = defaultdict(list)
            for entry in dispatch:
                akey = entry[0].assembly_key
                if akey is not None:
                    by_assembly[akey].append(entry)
                else:
                    ungrouped.append(entry)
            for akey, members in by_assembly.items():
                if len(members) > 1:
                    grouped[akey] = members
                else:
                    ungrouped.extend(members)
        else:
            ungrouped = list(dispatch)

        # stacked batches second: leftover solve nodes sharing a
        # batch_class_key assemble structurally congruent systems with
        # *different* matrices (a geometry sweep over a small network
        # model), so there is no factor to share — instead every member's
        # dense system is assembled and the whole class solves as one
        # batched (m, n, n) LAPACK call.  Singletons gain nothing and
        # fall through to per-point batching.
        stacks: list[list[tuple[Any, Any, str | None]]] = []
        if stack_batches:
            by_class: dict[str, list] = defaultdict(list)
            rest: list[tuple[Any, Any, str | None]] = []
            for entry in ungrouped:
                node, model, _ = entry
                bkey = (
                    model.batch_class_key(node.stack, node.via)
                    if isinstance(node, SolveNode)
                    else None
                )
                if bkey is not None:
                    by_class[bkey].append(entry)
                else:
                    rest.append(entry)
            for members in by_class.values():
                if len(members) > 1:
                    stacks.append(members)
                else:
                    rest.extend(members)
            ungrouped = rest

        # the rest regroups into per-point tasks, so one dispatch message
        # carries every model of a sweep point (the same batching — and
        # pickling cost — as the eager sweep); two nodes only share a
        # task when their geometry matches and their model names don't
        # collide (e.g. two different model_a_cal fits)
        buckets: list[dict[str, tuple[Any, Any, str | None]]] = []
        by_point: dict[str, list[dict]] = defaultdict(list)
        for node, model, cache_key in ungrouped:
            point_key = content_key(node.stack, node.via, node.power)
            if point_key is None:
                buckets.append({node.model_name: (node, model, cache_key)})
                continue
            for bucket in by_point[point_key]:
                if node.model_name not in bucket:
                    bucket[node.model_name] = (node, model, cache_key)
                    break
            else:
                bucket = {node.model_name: (node, model, cache_key)}
                by_point[point_key].append(bucket)
                buckets.append(bucket)

        for entry in solo_entries:
            buckets.append({entry[0].model_name: entry})

        if claims is not None:
            grouped, stacks, buckets = claim_units(grouped, stacks, buckets)

        # multi-node tiers dispatch before the point buckets: each of
        # their tasks commits many nodes at once, so the stream persists
        # the most points (and unlocks their dependents inline) earliest,
        # and a drain or kill mid-wave leaves the least to re-solve
        tasks: list[SweepTask] = []
        groups = list(grouped.values())
        for i, members in enumerate(groups):
            node, model, _ = members[0]
            increment("plan_matrix_groups")
            increment("plan_grouped_solves", len(members))
            tasks.append(
                MatrixGroupTask(
                    index=i,
                    stack=node.stack,
                    via=node.via,
                    model=model,
                    powers=tuple(m[0].power for m in members),
                )
            )
        for i, members in enumerate(stacks):
            increment("plan_stacked_batches")
            increment("plan_stacked_solves", len(members))
            tasks.append(
                StackedBatchTask(
                    index=i,
                    members=tuple(
                        (model, node.stack, node.via, node.power)
                        for node, model, _ in members
                    ),
                )
            )
        for i, bucket in enumerate(buckets):
            node, _, _ = next(iter(bucket.values()))
            tasks.append(
                PointTask(
                    index=i,
                    value=node.value,
                    stack=node.stack,
                    via=node.via,
                    power=node.power,
                    models=tuple(model for _, model, _ in bucket.values()),
                    # retries draw fresh fault-injection decisions
                    attempt=(
                        attempts.get(node.key, 0) if len(bucket) == 1 else 0
                    ),
                )
            )

        def land(
            node: Any, cache_key: str | None, result: Any, dispatch: str
        ) -> None:
            increment("plan_point_solves")
            if isinstance(node, (TransientNode, NonlinearNode)):
                increment(f"plan_{node.kind}_solves")
            if cache_key is not None:
                result_cache.put(cache_key, result)
            if store is not None and is_content_key(node.key):
                if claims is not None:
                    try:
                        # the zombie write guard: commit only while the
                        # lease is provably still ours (put-before-release)
                        claims.check(node.key)
                    except LeaseLostError:
                        # usurped mid-solve — the usurper publishes; our
                        # byte-identical result still satisfies this
                        # worker's own plan locally
                        finish(node, result, "solved", dispatch)
                        return
                store.put_point(node.key, result.to_payload())
                _record_solve(node.key)
                if node.key in blame_snapshot:
                    # it finally solved cleanly: absolve it so a lingering
                    # blame count cannot poison-quarantine future runs
                    store.clear_blame(node.key)
                    blame_snapshot.pop(node.key, None)
                if claims is not None:
                    claims.release(node.key)
            finish(node, result, "solved", dispatch)

        def task_members(task: SweepTask) -> list[tuple[Any, Any, str | None]]:
            if isinstance(task, MatrixGroupTask):
                # a parallel executor may have split the group into RHS
                # sub-blocks; task.offset realigns them with the members
                return groups[task.index][
                    task.offset : task.offset + len(task.powers)
                ]
            if isinstance(task, StackedBatchTask):
                return stacks[task.index][
                    task.offset : task.offset + len(task.members)
                ]
            return list(buckets[task.index].values())

        def handle_failure(task: SweepTask, failure: TaskFailure) -> None:
            members = task_members(task)
            if len(members) > 1:
                # blame inside a multi-node dispatch is unknowable from the
                # outside (one bad RHS column, one crashing model) — degrade
                # to per-member solo dispatch instead of charging anyone an
                # attempt, so innocents complete and the culprit identifies
                # itself on its own retry
                increment("plan_group_degradations")
                for node, _, _ in members:
                    solo.add(node.key)
                    ready_solve.append(node)
                return
            node = members[0][0]
            n = attempts.get(node.key, 0) + 1
            attempts[node.key] = n
            if (
                store is not None
                and is_content_key(node.key)
                and failure.error_class == "WorkerCrashError"
            ):
                # a solo crash is unambiguous blame: count it in the
                # fleet-wide ledger so peers (and respawned workers) stop
                # feeding this unit to fresh executors, and quarantine it
                # here the moment it crosses the threshold
                count = store.add_blame(node.key)
                if count >= retry.poison_quarantine_after:
                    increment("plan_poison_quarantined")
                    quarantine_task_failure(node, failure, n)
                    return
            if failure.transient and n < retry.max_attempts:
                increment("plan_retries")
                solo.add(node.key)
                time.sleep(retry.delay_s(n, node.key))
                ready_solve.append(node)
                return
            quarantine_task_failure(node, failure, n)

        for task, solved in executor.submit_stream(
            tasks, timeout_s=retry.node_timeout_s
        ):
            # drain between completions: the finished result has been
            # committed by land(); anything still in flight is abandoned
            # (its lease is released, a peer or a resume re-solves it)
            check_drain()
            maybe_renew()
            if isinstance(solved, TaskFailure):
                handle_failure(task, solved)
            elif isinstance(task, (MatrixGroupTask, StackedBatchTask)):
                shape = "group" if isinstance(task, MatrixGroupTask) else "stacked"
                for (node, _, cache_key), result in zip(
                    task_members(task), solved
                ):
                    land(node, cache_key, result, shape)
            else:
                for node, _, cache_key in buckets[task.index].values():
                    land(node, cache_key, solved[node.model_name], "point")
            # calibrations whose samples just landed run immediately,
            # unlocking their calibrated solves for the next wave
            drain_parent_nodes()

    return outcome
