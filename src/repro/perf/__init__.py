"""Performance subsystem: executors and counters.

Public surface:

* :func:`stats` / :func:`reset` — the process's named counters (e.g.
  CG→direct fallbacks, sparse factorizations, plan point solves), and
  the reset that tests and timings use between runs;
* :class:`SerialExecutor` / :class:`ParallelExecutor` /
  :func:`get_executor` — the sweep execution strategies behind ``--jobs``;
* :class:`PointTask` / :class:`StackedBatchTask` — the two dispatch
  shapes: per-point solves and stacked units (shared matrices factored
  once, congruent systems in one batched solve);
* :func:`calibration_key` — the identity of a coefficient fit (its plan
  node key).

The process keeps no cache: a voxelisation or a matrix factor lives as
long as the solve (or shared-matrix set) that needs it, and finished
results outlive a run only in the run store.

Speed is measured outside the package: ``perfbench/`` end to end and
``scripts/same_run_gate.py`` as same-run paired ratios.
"""

from .._lazy import lazy_exports

# eager: the ``stats`` function shares its submodule's name (see repro._lazy)
from .stats import counter, increment, reset, stats

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".executors": (
            "ParallelExecutor",
            "PointTask",
            "SerialExecutor",
            "StackedBatchTask",
            "SweepExecutor",
            "SweepTask",
            "get_executor",
            "solve_task",
            "solve_work",
        ),
        ".keys": (
            "calibration_key",
            "content_key",
            "model_key",
            "solve_key",
        ),
        ".retry": (
            "DEFAULT_RETRY",
            "NodeFailure",
            "RetryPolicy",
            "TaskFailure",
            "failure_from_exception",
            "node_deadline",
        ),
    },
)

__all__ = [
    "DEFAULT_RETRY",
    "NodeFailure",
    "ParallelExecutor",
    "PointTask",
    "RetryPolicy",
    "SerialExecutor",
    "StackedBatchTask",
    "SweepExecutor",
    "SweepTask",
    "TaskFailure",
    "calibration_key",
    "content_key",
    "counter",
    "failure_from_exception",
    "get_executor",
    "node_deadline",
    "increment",
    "model_key",
    "reset",
    "solve_key",
    "solve_task",
    "solve_work",
    "stats",
]
