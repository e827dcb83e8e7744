"""In-memory span recorder and the wrappers it installs on the program.

A span is ``[name, start, end, parent]``: ``parent`` indexes the span that
was open on the same thread when this one began (-1 for none).  Times
are ``time.perf_counter()`` readings, which on Linux share one
``CLOCK_MONOTONIC`` across processes, so spans from forked pool and
fleet workers line up with their parent's.

:func:`install` wraps each layer's public functions where callers look
them up: a module-level function is replaced in every ``repro`` module
that holds a reference to it, a method on its class.  Forked children
inherit the wrappers; each process keeps its spans in memory and writes
them to ``<dir>/<pid>.json`` when it exits (the launcher's process after
``main`` returns, forked workers from their multiprocessing exit hook).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

now = time.perf_counter
_real_sleep = time.sleep


class Tracer:
    """One process's spans and counters, written out once at exit."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        #: perf counters inherited at fork, subtracted at flush
        self.perf_base: dict[str, int] = {}
        self.flushed = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, now(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = now()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def after_fork(self) -> None:
        """In a forked child: start empty, counting perf deltas from here."""
        self._reset()
        self.perf_base = perf_snapshot()

    def _flush_at_process_exit(self) -> None:
        # multiprocessing clears its exit hooks in a new child before it
        # runs its after-fork callbacks, so the hook is registered here
        from multiprocessing import util

        util.Finalize(None, self.flush, exitpriority=100)

    def flush(self, role: str = "child") -> None:
        if self.flushed or os.getpid() != self.pid:
            return
        self.flushed = True
        for span in self.spans:  # spans cut short by an exception or exit
            if span[2] is None:
                span[2] = now()
        current = perf_snapshot()
        perf = {k: v - self.perf_base.get(k, 0) for k, v in current.items()}
        record = {
            "pid": self.pid,
            "role": role,
            "spans": self.spans,
            "counts": self.counts,
            "perf": perf,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.pid}.json"
        path.write_text(json.dumps(record))


def perf_snapshot() -> dict[str, int]:
    """``repro.perf.stats()`` flattened to ``name -> int`` (empty if unloaded)."""
    perf = sys.modules.get("repro.perf")
    if perf is None:
        return {}
    stats = perf.stats()
    flat = {f"counter.{k}": int(v) for k, v in stats.get("counters", {}).items()}
    for cache, info in stats.get("caches", {}).items():
        for field in ("hits", "misses"):
            flat[f"cache.{cache}.{field}"] = int(info.get(field, 0))
    return flat


def _traced_generator(tracer: Tracer, name: str, gen):
    """Time each resume of ``gen`` as one span (consumer time excluded)."""
    try:
        while True:
            index = tracer.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield item
    finally:
        gen.close()


def traced(
    tracer: Tracer,
    fn: Callable,
    name: str | Callable[..., str],
    on_call: Callable[..., None] | None = None,
    on_result: Callable[..., None] | None = None,
) -> Callable:
    """``fn`` recording a span per call (per resume for generators).

    ``name`` may be a function of the call's arguments; ``on_call`` sees
    ``(tracer, args, kwargs)`` before the call and ``on_result`` sees
    ``(tracer, args, kwargs, result)`` after it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(*args, **kwargs) if callable(name) else name
        if on_call is not None:
            on_call(tracer, args, kwargs)
        index = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if inspect.isgenerator(result):
            return _traced_generator(tracer, span, result)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def patch_function(fn: Callable, wrapper: Callable) -> int:
    """Replace ``fn`` by ``wrapper`` in every loaded ``repro`` module."""
    patched = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                patched += 1
    if patched == 0:
        raise RuntimeError(f"no module holds {fn.__module__}.{fn.__qualname__}")
    return patched


def patch_method(cls: type, attr: str, tracer: Tracer, name, **hooks) -> None:
    setattr(cls, attr, traced(tracer, getattr(cls, attr), name, **hooks))


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------
def _plan_result(tracer, args, kwargs, plan) -> None:
    tracer.count("plan.nodes", plan.stats.get("nodes_total", 0))
    tracer.count("plan.deduped", plan.stats.get("nodes_deduped", 0))


def _stream_call(tracer, args, kwargs) -> None:
    # a stream opened by the scheduler is one wave; streams an executor
    # opens inside its own (serial fallback) are not
    if tracer.top() == "scheduler.execute":
        tracer.count("scheduler.waves")
        tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
        tracer.count("scheduler.units", len(tasks))


def _stacked_items(tracer, args, kwargs) -> None:
    tracer.count("solve.stacked_items", len(args[0]))


def _acquire_result(tracer, args, kwargs, won) -> None:
    tracer.count("lease.acquire_won", 1 if won else 0)


def _bytes_result(tracer, args, kwargs, text) -> None:
    tracer.count("store.bytes_written", len(text.encode()))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; the program must already be imported."""
    import concurrent.futures as cf

    import scipy.sparse.linalg as spla

    import repro.__main__ as cli
    import repro.perf as perf
    from repro.core.base import solve_stacked
    from repro.core.model_1d import Model1D
    from repro.core.model_a import ModelA
    from repro.core.model_b import ModelB
    from repro.fem import voxelize
    from repro.fem.reference import FEMReference
    from repro.network import solve as network_solve
    from repro.perf import executors
    from repro.scenarios import fleet, lease, plan, scheduler, store

    def fn(target, span, **hooks):
        patch_function(target, traced(tracer, target, span, **hooks))

    fn(plan.compile_plan, "plan.compile", on_result=_plan_result)
    fn(plan.assemble_scenario, "runner.assemble")
    fn(scheduler.execute_plan, "scheduler.execute")

    for cls in (executors.SweepExecutor, executors.SerialExecutor, executors.ParallelExecutor):
        for attr in ("submit_stream", "submit_stream_safe"):
            if attr in vars(cls):
                patch_method(cls, attr, tracer, "executor.stream", on_call=_stream_call)
    fn(executors.solve_work_safe, "executor.task")
    patch_method(cf.ProcessPoolExecutor, "__init__", tracer, "executor.pool_start",
                 on_call=lambda t, a, k: t.count("executor.pool_starts"))
    patch_method(cf.ProcessPoolExecutor, "_launch_processes", tracer, "executor.pool_start")

    kinds = {ModelA: "a", ModelB: "b", Model1D: "1d", FEMReference: "fem"}

    def model_span(kind):
        return f"model.{kind}.solve"

    for cls, kind in kinds.items():
        for attr in ("solve", "solve_batch", "assemble_system"):
            patch_method(cls, attr, tracer, model_span(kind))

    def stacked_span(members):
        model = members[0][0] if members else None
        for cls, kind in kinds.items():
            if isinstance(model, cls):
                return model_span(kind)
        return "model.other.solve"

    fn(solve_stacked, stacked_span)

    for name in ("solve_dense", "solve_sparse", "solve_sparse_multi", "solve_dense_multi",
                 "solve_linear_system_multi", "factorized_solver", "solve_linear_system"):
        fn(getattr(network_solve, name), "solve.network")
    for name in ("solve_dense_stacked", "solve_sparse_stacked"):
        fn(getattr(network_solve, name), "solve.network", on_call=_stacked_items)
    spla.splu = traced(tracer, spla.splu, "solve.factor")

    for name in ("build_axisym_grids", "build_axisym_geometry", "axisym_source_density",
                 "build_cartesian_grids", "build_cartesian_geometry",
                 "cartesian_source_density"):
        fn(getattr(voxelize, name), "fem.voxelize")

    patch_method(store.RunStore, "put_point", tracer, "store.put_point")
    patch_method(store.RunStore, "put", tracer, "store.put")
    patch_method(store.RunStore, "get", tracer, "store.get")
    fn(store.render_artifact, "store.encode", on_result=_bytes_result)
    os.fsync = traced(tracer, os.fsync, "store.fsync")

    patch_method(lease.LeaseManager, "acquire", tracer, "lease.acquire",
                 on_result=_acquire_result)
    patch_method(lease.LeaseManager, "renew", tracer, "lease.renew")
    patch_method(lease.LeaseManager, "release", tracer, "lease.release")

    fn(fleet.run_fleet, "fleet.run")
    fn(fleet._worker_main, "fleet.worker")
    time.sleep = traced(tracer, _real_sleep, "sleep")

    fn(cli._print_result, "cli.render")

    # a fleet worker resets the perf counters it inherited: so do we
    real_reset = perf.reset

    @functools.wraps(real_reset)
    def reset(*args, **kwargs):
        tracer.perf_base = {}
        return real_reset(*args, **kwargs)

    patch_function(real_reset, reset)
    os.register_at_fork(after_in_child=tracer.after_fork)
    from multiprocessing import util

    util.register_after_fork(tracer, Tracer._flush_at_process_exit)
