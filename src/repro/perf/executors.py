"""Pluggable sweep execution: serial today, process-parallel when asked.

The sweep engine and the execution-plan scheduler hand an executor a list
of work specs and consume ``(task, result)`` pairs as they complete; each
task carries the index its caller merges it back by.  Three task shapes
exist:

* :class:`PointTask` — one sweep point's worth of solves (one geometry,
  several models), the historical unit of dispatch;
* :class:`MatrixGroupTask` — one *matrix group*: a single model solved at
  one geometry under many power specs.  The members share the exact
  system matrix (see
  :meth:`repro.core.base.ThermalTSVModel.assembly_key`), so the group is
  solved through the model's ``solve_batch`` — voxelise/assemble/factor
  once, back-substitute per member — and, under parallel dispatch, the
  shared geometry/model payload is pickled *once per group* instead of
  once per point;
* :class:`StackedBatchTask` — one *stacked batch*: many structurally
  congruent points (same node count/topology, different matrices — see
  :meth:`repro.core.base.ThermalTSVModel.batch_class_key`) solved by a
  single batched ``(m, n, n)`` LAPACK call instead of m Python-level
  round-trips.

:class:`SerialExecutor` is the default and reproduces the historical
strictly-serial loop bit-for-bit; :class:`ParallelExecutor` fans tasks out
over a ``ProcessPoolExecutor`` with chunked dispatch.  Work specs carry
plain dataclass geometry and the model instances themselves, all of which
pickle cleanly; the configure callback (often a closure) is evaluated in
the parent before dispatch, so it never crosses the process boundary.

Determinism: every model solve is deterministic and batched solves are
bit-identical to per-point solves, so serial, parallel, grouped and
ungrouped execution all produce numerically identical results regardless
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
from .retry import (
    PROPAGATE_TYPES,
    TaskFailure,
    failure_from_exception,
    node_deadline,
)
from .stats import increment


@dataclass(frozen=True)
class PointTask:
    """One sweep point's worth of solves, picklable for dispatch.

    ``index`` is the point's position in the sweep (used by the caller to
    merge results back); ``models`` holds only the models whose results
    were not already cached.  ``attempt`` is the retry round that
    dispatched this task — it does not affect the solve, but gives every
    retry an independent fault-injection draw (see :mod:`repro.faults`).
    """

    index: int
    value: Any
    stack: Any
    via: Any
    power: Any
    models: tuple[Any, ...]
    attempt: int = 0


@dataclass(frozen=True)
class MatrixGroupTask:
    """A matrix group: one model, one geometry, many right-hand sides.

    ``index`` is the group's position in the caller's group list;
    ``powers`` lists one power spec per member, in member order, starting
    at member ``offset`` (non-zero when :class:`ParallelExecutor` splits
    a large group into per-worker RHS sub-blocks — each sub-block still
    factorises only once per worker, but the group no longer serialises
    a whole sweep onto one process).  Solved via ``model.solve_batch`` —
    results align positionally with ``powers`` and are bit-identical to
    per-point solves.  The shared (model, stack, via) payload crosses
    the process boundary once per (sub-)group, which is where parallel
    dispatch of shared-matrix sweeps recovers its pickling/IPC overhead.
    """

    index: int
    stack: Any
    via: Any
    model: Any
    powers: tuple[Any, ...]
    offset: int = 0
    attempt: int = 0


@dataclass(frozen=True)
class StackedBatchTask:
    """A stacked batch: many congruent systems solved as one array call.

    The tier below :class:`MatrixGroupTask`: members share a
    :meth:`~repro.core.base.ThermalTSVModel.batch_class_key` — same node
    count and topology — but *not* a matrix, so there is nothing to
    factor once; instead every member's dense system is assembled and all
    of them are solved by one batched LAPACK call
    (:func:`repro.core.base.solve_stacked`).  ``members`` holds
    ``(model, stack, via, power)`` tuples in member order starting at
    ``offset`` (non-zero when :class:`ParallelExecutor` chunks a large
    batch across workers — stacking has no shared factor, so chunking
    costs nothing but keeps every worker busy).  Results align
    positionally with ``members`` and are bit-identical to per-member
    solo solves.
    """

    index: int
    members: tuple[tuple[Any, Any, Any, Any], ...]
    offset: int = 0
    attempt: int = 0


#: anything an executor can be handed
SweepTask = Union[PointTask, MatrixGroupTask, StackedBatchTask]


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
    if isinstance(task, MatrixGroupTask):
        if faults.active():
            faults.inject(
                "group-solve", f"g{task.index}+{task.offset}#a{task.attempt}"
            )
        return task.model.solve_batch(task.stack, task.via, task.powers)
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
    matrix groups, which legitimately do many nodes' work in one
    dispatch.  Configuration mistakes (:data:`PROPAGATE_TYPES`) still
    raise: quarantining a bad spec would hide the diagnostic.
    """
    budget = timeout_s
    if budget and isinstance(task, MatrixGroupTask):
        budget = budget * len(task.powers)
    elif budget and isinstance(task, StackedBatchTask):
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
        react to each solved point (or matrix group) as soon as it lands
        (progress callbacks, point-store writes, unlocking dependents).
        A failed task yields ``(task, TaskFailure)`` instead of raising;
        only :data:`~repro.perf.retry.PROPAGATE_TYPES` unwind the
        iterator.  ``timeout_s`` bounds each task's solve wall-clock.
        """


class SerialExecutor(SweepExecutor):
    """The default in-process loop — identical to the historical sweep."""

    def submit_stream(
        self, tasks: Iterable[SweepTask], *, timeout_s: float | None = None
    ) -> Iterator[tuple[SweepTask, Any]]:
        for task in tasks:
            yield task, solve_work_safe(task, timeout_s)


def _pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose forked workers inherit the solver stack.

    The parent imports the stack once before the fork; otherwise every
    worker would import it again on its first task.
    """
    import_solver_stack()
    return ProcessPoolExecutor(max_workers=workers)


class ParallelExecutor(SweepExecutor):
    """Process-pool execution with chunked dispatch.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to the machine's CPU count.
    chunksize:
        Tasks per dispatch message; default splits the task list into
        roughly two chunks per worker to amortise pickling overhead.
        A :class:`MatrixGroupTask` counts as one task but carries a whole
        group — its shared payload is pickled once however the chunks
        fall.
    max_pool_rebuilds:
        How many broken pools :meth:`submit_stream` rebuilds before
        degrading to in-parent execution of whatever is left.

    Worker exceptions (bad geometry, singular systems) come back as
    :class:`~repro.perf.retry.TaskFailure` results exactly as in serial
    mode.  Unpicklable work degrades to in-parent execution with a
    warning instead of failing the sweep.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunksize: int | None = None,
        max_pool_rebuilds: int = 3,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        if chunksize is not None and chunksize < 1:
            raise ValidationError(f"chunksize must be >= 1, got {chunksize}")
        self.chunksize = chunksize
        if max_pool_rebuilds < 0:
            raise ValidationError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.max_pool_rebuilds = max_pool_rebuilds

    def _split_groups(self, tasks: list[SweepTask]) -> list[SweepTask]:
        """Split large batch tasks into per-worker sub-blocks.

        A single indivisible group would serialise a whole shared-matrix
        sweep onto one worker, so each group is split into roughly
        ``jobs / len(tasks)`` sub-blocks — just enough to fill the idle
        workers.  When the task list already saturates the pool, nothing
        is split: every extra sub-block costs a redundant factorization
        in its worker (sub-blocks of one group land on different
        processes with cold factor caches), which only pays off while
        workers would otherwise sit idle.  Stacked batches chunk by the
        same rule (their members share no factor, so sub-blocks cost
        nothing beyond the smaller batched calls).  Splitting is
        deterministic and each sub-block carries its ``offset``, so
        results stay bit-identical and realignable with the original
        member order.
        """
        per_task = self.jobs // max(1, len(tasks))
        if per_task <= 1:
            return tasks
        expanded: list[SweepTask] = []
        for task in tasks:
            if isinstance(task, MatrixGroupTask) and len(task.powers) > 1:
                n_sub = min(per_task, len(task.powers))
                size = math.ceil(len(task.powers) / n_sub)
                for start in range(0, len(task.powers), size):
                    expanded.append(
                        replace(
                            task,
                            powers=task.powers[start : start + size],
                            offset=task.offset + start,
                        )
                    )
                continue
            if isinstance(task, StackedBatchTask) and len(task.members) > 1:
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
        ``max_pool_rebuilds`` deaths the remainder runs in-parent, where a
        crash becomes a capturable
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
        chunk = self.chunksize or max(1, math.ceil(len(tasks) / (workers * 2)))
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
                    or deaths > self.max_pool_rebuilds
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
