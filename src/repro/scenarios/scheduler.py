"""Topological execution of compiled plans on the sweep executors.

:func:`execute_plan` runs the merged node graph a
:func:`~repro.scenarios.plan.compile_plan` call produced, in three parts:

* **The walk** (:func:`execute_plan`).  A node is ready once its
  dependencies land.  Ready dispatch nodes (solve, transient, nonlinear)
  are looked up (``resume=True``) in the store's point space; the rest
  of the wave is formed into units and streamed over the executor's
  :meth:`~repro.perf.SweepExecutor.submit_stream` as completed.  A
  nonlinear node's k(T) chain is seeded with its landed linear baseline.
  Calibrations and case studies run in this process between
  completions, so calibrated solves dispatch in the next wave.
* **Unit formation** (:func:`form_units`, pure).  Solve nodes sharing a
  ``batch_class_key`` (congruent systems), or for models without one an
  ``assembly_key`` (one matrix), become one
  :class:`~repro.perf.StackedBatchTask`: its shared matrices factor once
  with one right-hand side per node, and its other matrices solve in
  one batched call.  The remainder is bucketed into one
  :class:`~repro.perf.PointTask` per geometry.  ``stack_batches`` turns
  the stacked tier off; both tiers are bit-identical to solo solves
  (``tests/test_golden.py``, ``tests/test_stacked_batches.py``).
* **The commit** (:class:`Committer`), the only code here that reads
  points back from the store or writes them, and so the single home of
  the crash-safety contract.

Failures are results, not exceptions that unwind the walk: a failed
multi-node task degrades to per-member solo dispatch, a solo failure
retries under the :class:`~repro.perf.RetryPolicy` (backoff with
deterministic jitter, a fresh fault-injection draw per attempt), and a
node that exhausts its budget is quarantined into
``ScheduleOutcome.failures`` and the store's ``failures/`` space while
the rest of the plan completes; its dependents cascade into the ledger.
A node whose executors crashed ``poison_solo_after`` times fleet-wide
(the store's ``blame/`` space) dispatches solo, and at
``poison_quarantine_after`` it is quarantined without another dispatch.
With ``claims`` the walk is one member of a fleet
(:mod:`repro.scenarios.fleet`) and streams one claimed unit at a time;
see :func:`execute_plan`.

Solves are deterministic and batched solves are bit-identical to
per-point solves, so store hits, fresh solves and unit membership are
interchangeable.  Counters land in
:func:`repro.perf.stats`: ``plan_point_solves``,
``plan_transient_solves`` / ``plan_nonlinear_solves``,
``plan_stacked_batches`` / ``plan_stacked_solves``,
``plan_calibrations``, ``point_store_hits`` / ``point_store_misses``,
``plan_retries``, ``plan_group_degradations``, ``plan_quarantined``,
``plan_failures_adopted``, ``plan_poison_degradations`` and
``plan_poison_quarantined``.
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
    PointTask,
    SerialExecutor,
    StackedBatchTask,
    SweepExecutor,
    SweepTask,
    content_key,
    increment,
)
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
#: in ``{"solved", "store"}``; ``elapsed_s`` is the wall-clock
#: time since the previous completion (the stream's per-node cadence).
#: Freshly solved nodes additionally carry ``"dispatch"`` — how the solve
#: was dispatched: ``"point"`` (solo/per-point bucket) or ``"stacked"``
#: (stacked unit)
ProgressFn = Callable[[dict[str, Any]], None]

#: audit hook for the chaos harness: when this names a directory, every
#: *fresh* point commit (a solve landed under this process's own lease —
#: not a parent node's commit, not a store read-back) appends its node
#: key to ``<dir>/<pid>.solves``.  The append happens after ``put_point``
#: succeeds and before the lease is released, so a kill at any instant
#: can only under-record, never attribute a commit that did not happen —
#: which is what lets ``scripts/chaos_soak.py`` assert *zero
#: double-solves*: the lease fencing guarantees at most one committed
#: solve per key fleet-wide, and the union of ledgers proves it.
SOLVE_LEDGER_ENV = "REPRO_SOLVE_LEDGER"

#: first sleep of a fleet worker whose remaining nodes are all in a
#: peer's hands; each further idle poll doubles it, up to ``poll_s``
PEER_WAIT_FIRST_S = 0.001


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

#: a dispatchable node with the model it solves with
Entry = tuple[Any, Any]


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
        default_factory=lambda: {"solved": 0, "store": 0}
    )
    failures: dict[str, NodeFailure] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# unit formation
# ---------------------------------------------------------------------------
@dataclass
class DispatchUnits:
    """One wave's dispatch units, in dispatch order within each tier."""

    stacks: list[list[Entry]]  # one shared batch class or assembly each
    buckets: list[dict[str, Entry]]  # one sweep point each, by model name
    poisoned: list[tuple[Entry, int]]  # to quarantine, with the blame count
    forced_solo: set[str]  # keys newly forced solo by their blame count


def _classes(
    entries: list[Entry], key_of: Callable[[Entry], str | None]
) -> tuple[list[list[Entry]], list[Entry]]:
    """Entries sharing a non-None key, two or more to a class; and the rest.

    Singletons gain nothing from a shared unit and fall through with the
    keyless entries (keyless first, then singletons in first-seen order).
    """
    by_key: dict[str, list[Entry]] = defaultdict(list)
    rest: list[Entry] = []
    for entry in entries:
        key = key_of(entry)
        (rest if key is None else by_key[key]).append(entry)
    rest += [members[0] for members in by_key.values() if len(members) == 1]
    return [members for members in by_key.values() if len(members) > 1], rest


def _unit_keys() -> Callable[[Entry], str | None]:
    """The stacked unit a solve node joins: its batch class, else its
    assembly (a model with no batch class batches by shared matrix).

    Nodes with one ``assembly_key`` share their model configuration,
    stack and via, hence their batch class: it is probed once per key.
    """
    by_assembly: dict[str, str | None] = {}

    def unit_key(entry: Entry) -> str | None:
        node, model = entry
        if not isinstance(node, SolveNode):
            return None
        assembly = node.assembly_key
        if assembly is None:
            return model.batch_class_key(node.stack, node.via)
        if assembly not in by_assembly:
            by_assembly[assembly] = (
                model.batch_class_key(node.stack, node.via) or assembly
            )
        return by_assembly[assembly]

    return unit_key


def form_units(
    entries: list[Entry],
    solo: set[str],
    blame: dict[str, int],
    retry: RetryPolicy,
    *,
    stack_batches: bool,
) -> DispatchUnits:
    """Form one wave's dispatch units from its unstored entries.

    Pure: no I/O and no counters.  ``blame`` is the fleet-wide crash
    count per node key: at ``retry.poison_quarantine_after`` an entry is
    returned as poisoned instead of dispatched, at
    ``retry.poison_solo_after`` it is forced solo.  Solo entries (``solo``
    holds the keys that already failed once, so a retry's blame is
    unambiguous) ride in no multi-node unit and go last, one bucket each.
    The rest fill two tiers in order: stacked units, then point buckets
    that carry every model of one sweep point — two
    nodes share a bucket only when their geometry matches and their model
    names do not collide (e.g. two different ``model_a_cal`` fits).
    """
    poisoned: list[tuple[Entry, int]] = []
    forced: set[str] = set()
    kept: list[Entry] = []
    for entry in entries:
        key = entry[0].key
        count = blame.get(key, 0) if is_content_key(key) else 0
        if count >= retry.poison_quarantine_after:
            poisoned.append((entry, count))
            continue
        if count >= retry.poison_solo_after and key not in solo:
            forced.add(key)
        kept.append(entry)
    alone = solo | forced
    rest = [e for e in kept if e[0].key not in alone]

    stacks: list[list[Entry]] = []
    if stack_batches:
        stacks, rest = _classes(rest, _unit_keys())

    buckets: list[dict[str, Entry]] = []
    by_point: dict[str, list[dict[str, Entry]]] = defaultdict(list)
    for entry in rest:
        node = entry[0]
        point_key = content_key(node.stack, node.via, node.power)
        if point_key is None:
            buckets.append({node.model_name: entry})
            continue
        for bucket in by_point[point_key]:
            if node.model_name not in bucket:
                bucket[node.model_name] = entry
                break
        else:
            bucket = {node.model_name: entry}
            by_point[point_key].append(bucket)
            buckets.append(bucket)
    buckets.extend({e[0].model_name: e} for e in kept if e[0].key in alone)
    return DispatchUnits(stacks, buckets, poisoned, forced)


def _rotated(units: list, owner: str) -> list:
    """``units`` rotated by a hash of ``owner``.

    N workers facing the same ready wave start claiming at different
    units instead of racing door-to-door in lockstep; a worker whose own
    share is exhausted walks on and takes whatever is still unclaimed,
    so work stealing falls out of the same walk.
    """
    if not units:
        return units
    seed = hashlib.blake2b(owner.encode(), digest_size=4).digest()
    offset = int.from_bytes(seed, "big") % len(units)
    return units[offset:] + units[:offset]


def _tasks(
    stacks: list[list[Entry]],
    buckets: list[dict[str, Entry]],
    attempts: dict[str, int],
) -> list[SweepTask]:
    """The executor tasks of a wave's units; ``task.index`` is the unit's
    position in its tier.

    Stacked units come first: each of their tasks commits many nodes
    at once, so the stream persists the most points (and unlocks their
    dependents) earliest, and a drain or kill mid-wave leaves the least
    to re-solve.
    """
    tasks: list[SweepTask] = []
    for i, members in enumerate(stacks):
        tasks.append(
            StackedBatchTask(
                index=i,
                members=tuple(
                    (model, node.stack, node.via, node.power)
                    for node, model in members
                ),
            )
        )
    for i, bucket in enumerate(buckets):
        node, _ = next(iter(bucket.values()))
        tasks.append(
            PointTask(
                index=i,
                stack=node.stack,
                via=node.via,
                power=node.power,
                models=tuple(model for _, model in bucket.values()),
                # retries draw fresh fault-injection decisions
                attempt=attempts.get(node.key, 0) if len(bucket) == 1 else 0,
            )
        )
    return tasks


def _task_members(
    task: SweepTask,
    stacks: list[list[Entry]],
    buckets: list[dict[str, Entry]],
) -> list[Entry]:
    """The entries ``task`` carries, in the order of its results."""
    if isinstance(task, StackedBatchTask):
        # a parallel executor may have split the unit into sub-units;
        # task.offset realigns them with the members
        return stacks[task.index][task.offset : task.offset + len(task.members)]
    return list(buckets[task.index].values())


# ---------------------------------------------------------------------------
# the commit
# ---------------------------------------------------------------------------
def _decode(node: Any, payload: dict[str, Any]) -> Any:
    """A stored point payload as the node's result type."""
    if isinstance(node, CalibrationNode):
        return FittingCoefficients(payload["k1"], payload["k2"], payload["c_bond"])
    if isinstance(node, CaseStudyNode):
        return StoredCaseStudy(payload)
    if isinstance(node, TransientNode):
        return TransientResult.from_payload(payload)
    if isinstance(node, NonlinearNode):
        return NonlinearResult.from_payload(payload)
    return ModelResult.from_payload(payload)


def _encode(node: Any, result: Any) -> dict[str, Any]:
    """The point payload of ``result`` (a calibration commits its whole fit)."""
    if isinstance(node, CalibrationNode):
        coefficients = result.coefficients
        return {
            "kind": "calibration",
            "k1": coefficients.k1,
            "k2": coefficients.k2,
            "c_bond": coefficients.c_bond,
            "residual_rms": result.residual_rms,
        }
    return result.to_payload()


class Committer:
    """Every point read back from the store and every commit to it.

    The crash-safety contract lives here alone: a commit is durable
    before its lease is released, a usurped worker publishes nothing,
    and a quarantine is on the failure ledger before its lease is freed.
    Without a store, and for compile-local (non-content) keys, reads miss
    and writes are skipped.
    """

    def __init__(
        self, store: RunStore | None, claims: LeaseManager | None, resume: bool
    ) -> None:
        self.store = store
        self.claims = claims
        self.resume = resume
        #: this wave's snapshot of the store's fleet-wide blame ledger
        self.blame: dict[str, int] = {}

    def _stored(self, node: Any) -> bool:
        return self.store is not None and is_content_key(node.key)

    def read(self, node: Any, *, peer: bool = False) -> Any:
        """The node's stored result, or None.

        A resume read happens only when the run resumes; a ``peer`` read
        (a cooperating worker's commit) happens either way.  A point of
        the wrong shape for the node (an older schema, a healed-over
        write) is healed and read as a miss, so the node solves again.
        """
        if not (self._stored(node) and (peer or self.resume)):
            return None
        payload = self.store.get_point(node.key)
        if payload is None:
            return None
        try:
            return _decode(node, payload)
        except (KeyError, TypeError, ValueError, ExperimentError):
            self.store.heal_point(node.key)
            return None

    def commit(self, node: Any, result: Any, *, fresh: bool) -> None:
        """Write ``result`` as the node's point.

        A ``fresh`` solve (landed under this worker's lease) is fenced,
        written, appended to the solve ledger, absolved of its blame and
        only then released.  Parent nodes are only written.
        """
        if not self._stored(node):
            return
        if fresh and self.claims is not None:
            try:
                # the zombie write guard: commit only while the lease is
                # provably still ours (put-before-release)
                self.claims.check(node.key)
            except LeaseLostError:
                # usurped mid-solve: the usurper publishes; our
                # byte-identical result still serves this worker's plan
                return
        self.store.put_point(node.key, _encode(node, result))
        if not fresh:
            return
        _record_solve(node.key)
        if self.blame.pop(node.key, None) is not None:
            # it finally solved cleanly: a lingering blame count must not
            # poison-quarantine future runs
            self.store.clear_blame(node.key)
        if self.claims is not None:
            self.claims.release(node.key)

    def quarantine(self, node: Any, failure: NodeFailure) -> None:
        """Record ``failure`` on the ledger, then free the node's lease:
        a peer that sees the claim freed finds the record and adopts it
        instead of re-attempting the node."""
        if self._stored(node):
            self.store.put_failure(node.key, failure)
        if self.claims is not None:
            self.claims.release(node.key)


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------
class _Stopwatch:
    """Seconds since the last :meth:`lap`."""

    def __init__(self) -> None:
        self.last = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.last

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self.last = now - self.last, now
        return elapsed


def _node_model(node: Any, results: dict[str, Any]) -> Any:
    """The dispatchable model instance a ready node solves with.

    Solve nodes carry their model (or materialise the calibrated one from
    the landed fit); transient nodes carry their adapter; a nonlinear
    node's chain is seeded with its landed linear baseline.
    """
    if isinstance(node, NonlinearNode):
        return NonlinearModel(node.model, node.params, initial=results[node.linear])
    if node.model is None:
        return calibrated_model_from_fit(
            results[node.calibration], name=node.model_name
        )
    return node.model


def _fit_calibration(node: CalibrationNode, results: dict[str, Any]) -> Any:
    """The fit (a ``CalibrationResult``) of a calibration node whose
    samples landed."""
    targets = [results[k].max_rise for k in node.sample_keys]
    fit = fit_coefficients(list(node.samples), None, targets=targets)
    increment("plan_calibrations")
    return fit


def execute_plan(
    plan: ExecutionPlan,
    *,
    executor: SweepExecutor | None = None,
    store: RunStore | None = None,
    resume: bool = False,
    progress: ProgressFn | None = None,
    on_node: OnNodeFn | None = None,
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
    ``stack_batches`` controls the stacked tier: ready solve nodes sharing
    a ``batch_class_key`` (or, without one, an ``assembly_key``) are
    solved as one unit — shared matrices factored once with one RHS per
    node, different matrices in one batched call — unless disabled;
    results are bit-identical either way.
    ``retry`` is the fault-tolerance policy: transient task failures are
    retried up to ``retry.max_attempts`` dispatches (solo, with backoff),
    multi-node tasks degrade to per-member dispatch on failure, and
    exhausted nodes land in ``ScheduleOutcome.failures`` instead of
    raising.

    ``claims`` turns this scheduler into one cooperating member of a
    *fleet*: every content-keyed dispatch node is solved only under an
    acquired :mod:`~repro.scenarios.lease` claim.  A worker claims one
    dispatch unit at a time, walking the wave's units in an order rotated
    by its owner id, and dispatches and commits that unit before it
    claims the next, so peers share a wave's solves.  A unit (stacked
    unit or point bucket) still claims whole, so the batch tiers survive
    distribution.  Nodes claimed by a peer are
    *deferred* — their results are read back from the store when the
    peer commits them (the wait starts at :data:`PEER_WAIT_FIRST_S`,
    doubles up to ``poll_s`` and resets on progress), a dead peer's claims
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
    committer = Committer(store, claims, resume)
    attempts: dict[str, int] = {}  # failed dispatches per node key
    solo: set[str] = set()  # keys that must dispatch alone (post-failure)
    #: nodes claimed by a cooperating worker, by key
    deferred: dict[str, Entry] = {}
    wall_start = time.time()  # gates peer-failure adoption to this run
    since_completion = _Stopwatch()
    since_renewal = _Stopwatch()

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = defaultdict(list)
    for key, node in nodes.items():
        deps = set(node.deps)
        missing = {dep for dep in deps if dep not in nodes}
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

    def complete(node: Any, source: str, dispatch: str | None = None) -> None:
        """Shared bookkeeping for a node leaving the graph (success or
        quarantine): counts, dependent unlocking — with failed-dependency
        cascade — and the progress event."""
        outcome.counts[source] = outcome.counts.get(source, 0) + 1
        for dep_key in dependents[node.key]:
            indegree[dep_key] -= 1
            if indegree[dep_key] == 0:
                dep = nodes[dep_key]
                failed_deps = sorted(set(dep.deps) & failures.keys())
                if failed_deps:
                    quarantine(
                        dep,
                        "DependencyError",
                        "depends on quarantined node(s): " + ", ".join(failed_deps),
                    )
                elif isinstance(dep, DISPATCH_NODE_TYPES):
                    ready_solve.append(dep)
                else:
                    ready_other.append(dep)
        elapsed = since_completion.lap()
        if progress is not None:
            event = {
                "done": len(results) + len(failures),
                "total": len(nodes),
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

    def quarantine(
        node: Any, error_class: str, message: str, attempts: int = 0, digest: str = ""
    ) -> None:
        """Retire ``node`` into the failure ledger; the plan keeps going."""
        failure = NodeFailure(
            node.key, node.kind, error_class, message, digest, attempts
        )
        failures[node.key] = failure
        increment("plan_quarantined")
        committer.quarantine(node, failure)
        complete(node, "failed")

    def quarantine_task(node: Any, failure: TaskFailure, attempts: int) -> None:
        quarantine(
            node,
            failure.error_class,
            failure.message,
            attempts,
            failure.traceback_digest,
        )

    def finish_stored(node: Any, *, peer: bool = False) -> bool:
        """Finish ``node`` from its stored point; False on a miss."""
        stored = committer.read(node, peer=peer)
        if stored is not None:
            finish(node, stored, "store")
        return stored is not None

    def run_parent_node(node: CalibrationNode | CaseStudyNode) -> None:
        """Run a calibration fit or a case study in this process.

        Parent-side nodes get no retries: a deterministic run that failed
        once fails again, so a failure goes straight to the ledger.
        """
        if finish_stored(node):
            return
        try:
            if isinstance(node, CalibrationNode):
                solved = _fit_calibration(node, results)
            else:
                solved = run_case_study_spec(node.spec)
        except PROPAGATE_TYPES:
            raise
        except Exception as exc:
            quarantine_task(node, failure_from_exception(exc), 1)
            return
        committer.commit(node, solved, fresh=False)
        if isinstance(node, CalibrationNode):
            solved = solved.coefficients
        finish(node, solved, "solved")

    def run_parent_nodes() -> bool:
        ran = bool(ready_other)
        while ready_other:
            run_parent_node(ready_other.popleft())
        return ran

    # fleet cooperation: lease claiming, peer read-back, failure adoption
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

    def claim_entry(entry: Entry) -> bool:
        """Secure ``entry`` for local dispatch; False removes it.

        False means the node left this worker's hands: a peer already
        committed it (finished from store, with no lease taken), a peer
        already quarantined it (adopted), a peer holds its lease
        (deferred — its result will be read back), or a peer's result
        landed between our store read and our claim (finished from
        store).  Nodes without a content key cannot be shared through
        the store at all, so every worker simply computes them locally.
        """
        node, _ = entry
        if not is_content_key(node.key):
            return True
        if finish_stored(node, peer=True) or adopt_peer_failure(node):
            return False
        if not claims.acquire(node.key):
            deferred[node.key] = entry
            return False
        # the claim is ours, but a peer may have completed-and-released
        # this node since the read above: the store is the arbiter
        if finish_stored(node, peer=True):
            claims.release(node.key)
            return False
        return True

    def poll_deferred() -> bool:
        """Resolve deferred nodes; True when any left deferral.

        A deferred node comes back three ways: its holder committed a
        result (read back from the store), its holder quarantined it
        (adopted from the ledger), or its holder died — the lease
        expired, the steal succeeds, and the node returns to our own
        ready set.
        """
        progressed = False
        for key, (node, _) in list(deferred.items()):
            if finish_stored(node, peer=True) or adopt_peer_failure(node):
                del deferred[key]
                progressed = True
            elif claims.acquire(key):
                del deferred[key]
                ready_solve.append(node)
                progressed = True
        return progressed

    def maybe_renew() -> None:
        """Extend this worker's claims well before any can expire."""
        if claims is not None and since_renewal.elapsed() >= claims.ttl_s / 3.0:
            claims.renew_all()
            since_renewal.lap()

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

    def land(node: Any, result: Any, dispatch: str) -> None:
        increment("plan_point_solves")
        if isinstance(node, (TransientNode, NonlinearNode)):
            increment(f"plan_{node.kind}_solves")
        committer.commit(node, result, fresh=True)
        finish(node, result, "solved", dispatch)

    def handle_failure(members: list[Entry], failure: TaskFailure) -> None:
        if len(members) > 1:
            # blame inside a multi-node dispatch is unknowable from the
            # outside (one bad RHS column, one crashing model) — degrade
            # to per-member solo dispatch instead of charging anyone an
            # attempt, so innocents complete and the culprit identifies
            # itself on its own retry
            increment("plan_group_degradations")
            for node, _ in members:
                solo.add(node.key)
                ready_solve.append(node)
            return
        node = members[0][0]
        n = attempts[node.key] = attempts.get(node.key, 0) + 1
        if (
            store is not None
            and is_content_key(node.key)
            and failure.error_class == "WorkerCrashError"
        ):
            # a solo crash is unambiguous blame: count it in the
            # fleet-wide ledger so peers (and respawned workers) stop
            # feeding this unit to fresh executors, and quarantine it
            # here the moment it crosses the threshold
            if store.add_blame(node.key) >= retry.poison_quarantine_after:
                increment("plan_poison_quarantined")
                quarantine_task(node, failure, n)
                return
        if failure.transient and n < retry.max_attempts:
            increment("plan_retries")
            solo.add(node.key)
            time.sleep(retry.delay_s(n, node.key))
            ready_solve.append(node)
            return
        quarantine_task(node, failure, n)

    def dispatch(stacks: list[list[Entry]], buckets: list[dict[str, Entry]]) -> None:
        """Stream the units over the executor, landing each completion."""
        if stacks:
            increment("plan_stacked_batches", len(stacks))
            increment("plan_stacked_solves", sum(map(len, stacks)))
        for task, solved in executor.submit_stream(
            _tasks(stacks, buckets, attempts),
            timeout_s=retry.node_timeout_s,
        ):
            # drain between completions: the finished result has been
            # committed by land(); anything still in flight is abandoned
            # (its lease is released, a peer or a resume re-solves it)
            check_drain()
            maybe_renew()
            members = _task_members(task, stacks, buckets)
            if isinstance(solved, TaskFailure):
                handle_failure(members, solved)
            elif isinstance(task, PointTask):
                for node, _ in members:
                    land(node, solved[node.model_name], "point")
            else:
                for (node, _), result in zip(members, solved):
                    land(node, result, "stacked")
            # calibrations whose samples just landed run immediately,
            # unlocking their calibrated solves for the next wave
            run_parent_nodes()

    peer_wait_s = PEER_WAIT_FIRST_S
    while len(results) + len(failures) < len(nodes):
        check_drain()
        progressed = run_parent_nodes()
        if claims is not None and deferred:
            progressed = poll_deferred() or progressed
        if progressed or ready_solve:
            peer_wait_s = PEER_WAIT_FIRST_S
        if not ready_solve:
            if progressed:
                continue
            if claims is not None and deferred:
                # every remaining node is in a peer's hands: wait for
                # results (or expired claims) instead of busy-spinning,
                # briefly at first, since a peer's unit may be about to land
                check_drain()
                maybe_renew()
                time.sleep(min(peer_wait_s, poll_s))
                peer_wait_s = min(2.0 * peer_wait_s, poll_s)
                continue
            raise ExperimentError("execution plan has a dependency cycle")

        batch = list(ready_solve)
        ready_solve.clear()
        entries: list[Entry] = [
            (node, _node_model(node, results))
            for node in batch
            if not finish_stored(node)
        ]

        # poison-unit isolation: consult the store's fleet-wide blame
        # ledger (every worker, every supervisor respawn) before forming
        # this wave's units
        if store is not None and entries:
            committer.blame = store.blame_counts()
        units = form_units(
            entries,
            solo,
            committer.blame,
            retry,
            stack_batches=stack_batches,
        )
        for (node, _), count in units.poisoned:
            increment("plan_poison_quarantined")
            quarantine(
                node,
                "PoisonedUnitError",
                f"poison unit: crashed its executor {count}x fleet-wide "
                f"(threshold {retry.poison_quarantine_after})",
                attempts.get(node.key, 0),
            )
        if units.forced_solo:
            increment("plan_poison_degradations", len(units.forced_solo))
            solo.update(units.forced_solo)

        if claims is None:
            dispatch(units.stacks, units.buckets)
            continue
        # a fleet member claims, solves and commits one unit at a time,
        # so its peers can take the units it has not reached yet
        for unit in _rotated(units.stacks + units.buckets, claims.owner):
            if isinstance(unit, dict):
                bucket = {name: e for name, e in unit.items() if claim_entry(e)}
                if bucket:
                    dispatch([], [bucket])
            else:
                members = [e for e in unit if claim_entry(e)]
                if members:
                    dispatch([members], [])

    return outcome
