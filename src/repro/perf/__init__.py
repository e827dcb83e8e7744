"""Performance subsystem: executors, caches, counters and benchmarks.

Public surface:

* :func:`stats` / :func:`reset` — hit/miss counters for every cache plus
  free-standing counters (e.g. CG→direct fallbacks), and the cold-start
  reset the benchmark harness uses between measurements;
* :func:`configure` — resize or disable the assembly/result/factor caches;
* :class:`SerialExecutor` / :class:`ParallelExecutor` /
  :func:`get_executor` — the sweep execution strategies behind ``--jobs``;
* :class:`PointTask` / :class:`StackedBatchTask` — the two dispatch
  shapes: per-point solves and stacked units (shared matrices factored
  once, congruent systems in one batched solve);
* :func:`cached_solve` — a model solve through the global result cache;
* :func:`calibration_key` / :func:`calibration_fit_key` — the shared
  identity of a coefficient fit (plan node key and fit-cache key);
* :class:`FactorizationCache` — reusable matrix factorizations.

The benchmark-regression harness lives in :mod:`repro.perf.bench` and is
reachable as ``python -m repro bench``.
"""

from .._lazy import lazy_exports

# eager: the ``stats`` function shares its submodule's name (see repro._lazy)
from .stats import counter, increment, stats

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".cache": (
            "FactorizationCache",
            "LRUCache",
            "assembly_cache",
            "configure",
            "factor_cache",
            "matrix_fingerprint",
            "reset",
            "result_cache",
        ),
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
            "calibration_fit_key",
            "calibration_key",
            "content_key",
            "model_key",
            "solve_key",
        ),
        ".memo": ("cached_solve",),
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
    "FactorizationCache",
    "LRUCache",
    "NodeFailure",
    "ParallelExecutor",
    "PointTask",
    "RetryPolicy",
    "SerialExecutor",
    "StackedBatchTask",
    "SweepExecutor",
    "SweepTask",
    "TaskFailure",
    "assembly_cache",
    "cached_solve",
    "calibration_fit_key",
    "calibration_key",
    "configure",
    "content_key",
    "counter",
    "factor_cache",
    "failure_from_exception",
    "get_executor",
    "node_deadline",
    "increment",
    "matrix_fingerprint",
    "model_key",
    "reset",
    "result_cache",
    "solve_key",
    "solve_task",
    "solve_work",
    "stats",
]
