"""Pluggable plan execution: serial by default, process-parallel when asked.

The execution-plan scheduler hands an executor a list of work specs and
consumes ``(task, result)`` pairs as they complete; each task carries the
index the scheduler maps it back to its plan nodes by.  Two task shapes
exist:

* :class:`PointTask` — one sweep point's worth of solves (one geometry,
  several models);
* :class:`StackedBatchTask` — one *stacked unit*: many points that share
  a dense structure
  (:meth:`repro.core.base.ThermalTSVModel.batch_class_key`) or a whole
  matrix (:meth:`repro.core.base.ThermalTSVModel.assembly_key`, the only
  key FEM points batch by), solved by
  :func:`repro.core.base.solve_stacked` — each distinct sparse or shared
  matrix factored once with one right-hand side per point, the remaining
  dense matrices in one batched ``(m, n, n)`` LAPACK call — instead of m
  Python-level round-trips; under parallel dispatch the unit's payload
  is pickled once per (sub-)unit instead of once per point.

:class:`SerialExecutor` is the default and solves tasks in order in this
process; :class:`ParallelExecutor` fans them out over a
``ProcessPoolExecutor`` with chunked dispatch.  Work specs carry plain
dataclass geometry and the model instances themselves, all of which
pickle cleanly; a scenario's configure callback (often a closure) runs
when the plan is compiled, so it never crosses the process boundary.

Determinism: every model solve is deterministic and batched solves are
bit-identical to per-point solves, so serial, parallel, stacked and
unstacked execution all produce numerically identical results regardless
of how tasks land on workers or in which order they complete.

Failures are results: :meth:`SweepExecutor.submit_stream` returns a
worker exception as a picklable :class:`~repro.perf.retry.TaskFailure`
instead of unwinding the iterator, per-task wall-clock deadlines are
enforced worker-side, and :class:`ParallelExecutor` survives a broken
pool by rebuilding it and resubmitting only unacknowledged tasks
(degrading to in-parent execution after repeated pool deaths).
"""

from __future__ import annotations

import abc
import math
import multiprocessing
import os
import pickle
import warnings
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Union

from .. import faults
from .._lazy import import_solver_stack
from ..errors import ValidationError
from .retry import PROPAGATE_TYPES, failure_from_exception, node_deadline
from .stats import increment


@dataclass(frozen=True)
class PointTask:
    """One sweep point's worth of solves, picklable for dispatch.

    ``index`` is the task's position in the scheduler's unit list (used to
    map results back to plan nodes); ``models`` holds only the models
    whose results were not already stored.  ``attempt`` is the retry
    round that dispatched this task — it does not affect the solve, but
    gives every retry an independent fault-injection draw (see
    :mod:`repro.faults`).
    """

    index: int
    stack: Any
    via: Any
    power: Any
    models: tuple[Any, ...]
    attempt: int = 0


@dataclass(frozen=True)
class StackedBatchTask:
    """A stacked unit: many points solved by one :func:`solve_stacked` call.

    Members share a
    :meth:`~repro.core.base.ThermalTSVModel.batch_class_key` — same node
    count and topology of a dense system — or, for models without one, an
    :meth:`~repro.core.base.ThermalTSVModel.assembly_key`.  Inside the
    unit, each matrix is factored once and back-substituted per member
    that holds it; the remaining dense systems are solved by one batched
    call (:func:`repro.core.base.solve_stacked`).  ``members`` holds
    ``(model, stack, via, power)`` tuples in member order starting at
    ``offset`` (non-zero when :class:`ParallelExecutor` splits a large
    unit across workers).  Results align positionally with ``members``
    and are bit-identical to per-member solo solves.
    """

    index: int
    members: tuple[tuple[Any, Any, Any, Any], ...]
    offset: int = 0
    attempt: int = 0


#: anything an executor can be handed
SweepTask = Union[PointTask, StackedBatchTask]


def solve_task(task: PointTask) -> dict[str, Any]:
    """Solve every model of one point task; runs in the parent or a worker."""
    results: dict[str, Any] = {}
    for m in task.models:
        if faults.active():
            faults.inject("solve", f"{task.index}/{m.name}#a{task.attempt}")
        results[m.name] = m.solve(task.stack, task.via, task.power)
    return results


def solve_work(task: SweepTask) -> Any:
    """Solve any task shape: a result dict (point) or list (batch)."""
    if isinstance(task, StackedBatchTask):
        if faults.active():
            faults.inject(
                "stacked-solve", f"s{task.index}+{task.offset}#a{task.attempt}"
            )
        from ..core.base import solve_stacked  # local: avoid import cycle

        return solve_stacked(task.members)
    return solve_task(task)


def solve_work_safe(task: SweepTask, timeout_s: float | None = None) -> Any:
    """Solve one task, capturing failures as :class:`TaskFailure` results.

    The wall-clock deadline is enforced here — in the worker's main
    thread under parallel dispatch — and is scaled by member count for
    stacked units, which legitimately do many nodes' work in one
    dispatch.  Configuration mistakes (:data:`PROPAGATE_TYPES`) still
    raise: quarantining a bad spec would hide the diagnostic.
    """
    budget = timeout_s
    if budget and isinstance(task, StackedBatchTask):
        budget = budget * len(task.members)
    try:
        with node_deadline(budget):
            return solve_work(task)
    except PROPAGATE_TYPES:
        raise
    except Exception as exc:
        return failure_from_exception(exc)


def solve_chunk(
    tasks: list[SweepTask], timeout_s: float | None = None
) -> list[Any]:
    """Capture-mode chunk dispatch: one result-or-failure per task."""
    return [solve_work_safe(t, timeout_s) for t in tasks]


class SweepExecutor(abc.ABC):
    """Strategy interface: solve tasks, streaming results as they land."""

    @abc.abstractmethod
    def submit_stream(
        self, tasks: Iterable[SweepTask], *, timeout_s: float | None = None
    ) -> Iterator[tuple[SweepTask, Any]]:
        """Yield one ``(task, result)`` pair per task as tasks complete.

        Completion order is unspecified — callers route results by
        ``task.index``.  The execution-plan scheduler consumes this to
        react to each solved point (or stacked unit) as soon as it lands
        (progress callbacks, point-store writes, unlocking dependents).
        A failed task yields ``(task, TaskFailure)`` instead of raising;
        only :data:`~repro.perf.retry.PROPAGATE_TYPES` unwind the
        iterator.  ``timeout_s`` bounds each task's solve wall-clock.
        """


class SerialExecutor(SweepExecutor):
    """The default: every task in order, in this process."""

    def submit_stream(
        self, tasks: Iterable[SweepTask], *, timeout_s: float | None = None
    ) -> Iterator[tuple[SweepTask, Any]]:
        for task in tasks:
            yield task, solve_work_safe(task, timeout_s)


#: dispatch messages per worker a task list is split into
CHUNKS_PER_WORKER = 2
#: broken pools a stream rebuilds before running the rest in-parent
MAX_POOL_REBUILDS = 3


def place_on_cpu(rank: int) -> None:
    """Move this process to CPU ``rank`` of its mask without pinning it.

    A one-CPU mask migrates the process there; the full mask, restored at
    once, leaves it free to move, but the scheduler has no reason to.
    Without this, the workers of a pool or fleet can all stay on the CPU
    their parent forked them on and take turns on it.  A no-op where
    ``os.sched_setaffinity`` does not exist or the kernel refuses it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})
    except OSError:
        return
    os.sched_setaffinity(0, cpus)


def _place_pool_worker(ranks: Any) -> None:
    """Pool initializer: take the pool's next rank and place on its CPU."""
    with ranks.get_lock():
        rank = ranks.value
        ranks.value += 1
    place_on_cpu(rank)


def _pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose forked workers inherit the solver stack.

    The parent imports the stack once before the fork; otherwise every
    worker would import it again on its first task.  Each worker takes
    its own rank from a counter shared by the pool and places itself on
    that CPU (:func:`place_on_cpu`).
    """
    import_solver_stack()
    ranks = multiprocessing.get_context().Value("i", 0)
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_place_pool_worker, initargs=(ranks,)
    )


class ParallelExecutor(SweepExecutor):
    """Process-pool execution with chunked dispatch.

    ``jobs`` is the worker process count; it defaults to the machine's
    CPU count.  The task list goes out in :data:`CHUNKS_PER_WORKER`
    chunks per worker to amortise pickling overhead; a
    :class:`StackedBatchTask` counts as one task but carries a whole
    unit, so its payload is pickled once however the chunks fall.

    Worker exceptions (bad geometry, singular systems) come back as
    :class:`~repro.perf.retry.TaskFailure` results exactly as in serial
    mode.  Unpicklable work degrades to in-parent execution with a
    warning instead of failing the sweep.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1

    def _split_groups(self, tasks: list[SweepTask]) -> list[SweepTask]:
        """Split large stacked units into per-worker sub-units.

        A single indivisible unit would serialise a whole sweep onto one
        worker, so each unit is split into roughly ``jobs / len(tasks)``
        sub-units — just enough to fill the idle workers.  When the task
        list already saturates the pool, nothing is split: a sub-unit
        that cuts a shared-matrix set costs a redundant factorization in
        its worker (each sub-unit factors its own copy of the matrix),
        which only pays off while workers would otherwise sit idle.  A unit whose members all share one matrix
        stays whole: the factorization, not the per-member
        back-substitution, dominates it, so every split would only add
        one.  Splitting is deterministic and each sub-unit carries its
        ``offset``, so results stay bit-identical and realignable with
        the original member order.
        """
        from ..core.base import shared_matrix_sets  # local: avoid import cycle

        per_task = self.jobs // max(1, len(tasks))
        if per_task <= 1:
            return tasks
        expanded: list[SweepTask] = []
        for task in tasks:
            if (
                isinstance(task, StackedBatchTask)
                and len(shared_matrix_sets(task.members)) > 1
            ):
                n_sub = min(per_task, len(task.members))
                size = math.ceil(len(task.members) / n_sub)
                for start in range(0, len(task.members), size):
                    expanded.append(
                        replace(
                            task,
                            members=task.members[start : start + size],
                            offset=task.offset + start,
                        )
                    )
                continue
            expanded.append(task)
        return expanded

    def submit_stream(
        self, tasks: Iterable[SweepTask], *, timeout_s: float | None = None
    ) -> Iterator[tuple[SweepTask, Any]]:
        """Chunked capture-mode stream that survives worker death.

        A broken pool (a worker ``os._exit``/OOM-kill takes every pending
        future down with it) does not unwind the stream: results that
        already landed are kept, the pool is rebuilt, and only the
        *unacknowledged* chunks are resubmitted — one task per dispatch on
        the rebuilt pool, so a deterministic crasher can take down at most
        one task's worth of innocents per death.  After
        :data:`MAX_POOL_REBUILDS` deaths the remainder runs in-parent,
        where a crash becomes a capturable
        :class:`~repro.errors.WorkerCrashError` instead of a dead pool.
        Pool deaths are counted as ``pool_rebuilds`` in
        :func:`repro.perf.stats`.
        """
        tasks = list(tasks)
        if self.jobs > 1:
            tasks = self._split_groups(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            yield from SerialExecutor().submit_stream(tasks, timeout_s=timeout_s)
            return
        workers = min(self.jobs, len(tasks))
        chunk = max(1, math.ceil(len(tasks) / (workers * CHUNKS_PER_WORKER)))
        pending: dict[int, list[SweepTask]] = {
            i: tasks[start : start + chunk]
            for i, start in enumerate(range(0, len(tasks), chunk))
        }
        deaths = 0
        while pending:
            try:
                with _pool(workers) as pool:
                    futures = {
                        pool.submit(solve_chunk, c, timeout_s): i
                        for i, c in pending.items()
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        results = future.result()  # raises if the pool died
                        chunk_tasks = pending.pop(index)
                        yield from zip(chunk_tasks, results)
                return
            except (pickle.PicklingError, BrokenProcessPool, OSError) as exc:
                deaths += 1
                increment("pool_rebuilds")
                n_left = sum(len(c) for c in pending.values())
                if (
                    isinstance(exc, pickle.PicklingError)
                    or deaths > MAX_POOL_REBUILDS
                ):
                    warnings.warn(
                        f"worker pool died {deaths} time(s) ({exc}); running "
                        f"the remaining {n_left} task(s) in-parent",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                warnings.warn(
                    f"worker pool died ({exc}); rebuilding and resubmitting "
                    f"{n_left} unacknowledged task(s)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                # isolate blame on the rebuilt pool: one task per dispatch,
                # so the next death loses at most one task's result
                pending = {
                    i: [t]
                    for i, t in enumerate(
                        t for c in pending.values() for t in c
                    )
                }
        for c in pending.values():
            for task in c:
                yield task, solve_work_safe(task, timeout_s)


def get_executor(jobs: int | None) -> SweepExecutor:
    """Executor for a ``--jobs N`` request: serial for N in (None, 0, 1)."""
    if not jobs or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)
