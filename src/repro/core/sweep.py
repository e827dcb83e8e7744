"""Parameter-sweep engine.

Every figure of the paper is a sweep: vary one parameter (radius, liner
thickness, substrate thickness, cluster size), run several models on each
point, and compare the resulting max-ΔT series.  :func:`sweep` captures that
pattern once for the eager reference path
(:func:`repro.experiments.harness.run_sweep_experiment`), which supplies the
per-point configuration callback; the planned path lowers the same points
with :func:`expand_points` and reassembles them with :func:`assemble_sweep`.

Execution is pluggable: the default :class:`~repro.perf.SerialExecutor`
runs the historical in-process loop, while
:class:`~repro.perf.ParallelExecutor` fans sweep points out over a process
pool.  Either way the configure callback runs in the parent, streamed
results are merged back by point index, and — because every solve is
deterministic — serial and parallel sweeps are numerically identical.

Solved points are also memoized in the global result cache keyed on
(model, stack, via, power) content: calibration samples that overlap the
sweep grid and repeated sweeps under multi-scenario traffic skip the
solves entirely.  Cache lookups happen in the parent before dispatch, so
caching never changes which results a sweep returns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ExperimentError, ValidationError
from ..perf.retry import TaskFailure
from .result import ModelResult

if TYPE_CHECKING:
    from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster
    from ..perf.executors import SweepExecutor
    from .base import ThermalTSVModel

#: a configuration callback maps a swept value to (stack, via, power)
Configurator = Callable[[Any], "tuple[Stack3D, TSV | TSVCluster, PowerSpec]"]


def expand_points(
    values: Sequence[Any], configure: Configurator
) -> list[tuple[Stack3D, "TSV | TSVCluster", PowerSpec]]:
    """The (stack, via, power) triple at every swept value, in sweep order.

    This is the "emit" half of a sweep: the execution-plan compiler
    (:mod:`repro.scenarios.plan`) lowers these triples into content-keyed
    solve nodes instead of dispatching them directly.
    """
    return [configure(value) for value in values]


def assemble_sweep(
    parameter: str,
    values: Sequence[Any],
    model_names: Sequence[str],
    point_results: Sequence[dict[str, ModelResult]],
    metadata: dict[str, Any] | None = None,
) -> SweepResult:
    """Build a :class:`SweepResult` from already-solved per-point results.

    ``point_results[i]`` must hold one :class:`ModelResult` per model name
    at ``values[i]``; the result dicts are re-keyed in ``model_names``
    order so assembly is independent of solve order (serial, parallel, or
    plan-scheduled execution produce identical sweeps).
    """
    points = [
        SweepPoint(
            value=value,
            results={name: point_results[i][name] for name in model_names},
        )
        for i, value in enumerate(values)
    ]
    return SweepResult(
        parameter=parameter, points=tuple(points), metadata=metadata or {}
    )


@dataclass(frozen=True)
class SweepPoint:
    """All model results at one swept value."""

    value: Any
    results: dict[str, ModelResult]

    def rise(self, model_name: str) -> float:
        try:
            return self.results[model_name].max_rise
        except KeyError:
            known = ", ".join(self.results)
            raise ValidationError(
                f"no model {model_name!r} at sweep point {self.value!r}; "
                f"known: {known}"
            ) from None


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: one :class:`SweepPoint` per value."""

    parameter: str
    points: tuple[SweepPoint, ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def values(self) -> list[Any]:
        return [p.value for p in self.points]

    @property
    def model_names(self) -> list[str]:
        if not self.points:
            return []
        return list(self.points[0].results)

    def series(self, model_name: str) -> list[float]:
        """Max-ΔT values of one model across the sweep."""
        return [p.rise(model_name) for p in self.points]

    def result_series(self, model_name: str) -> list[ModelResult]:
        """Full results of one model across the sweep."""
        return [p.results[model_name] for p in self.points]

    def rows(self) -> list[list[Any]]:
        """Tabular view: one row per swept value, one column per model."""
        names = self.model_names
        out: list[list[Any]] = [["value", *names]]
        for p in self.points:
            out.append([p.value, *(p.rise(n) for n in names)])
        return out


def sweep(
    parameter: str,
    values: Iterable[Any],
    models: Sequence[ThermalTSVModel],
    configure: Configurator,
    *,
    metadata: dict[str, Any] | None = None,
    executor: SweepExecutor | None = None,
    cache: bool = True,
) -> SweepResult:
    """Run every model at every swept value.

    Parameters
    ----------
    parameter:
        Name of the swept quantity (for reports).
    values:
        The swept values, in plot order.
    models:
        Model instances; their ``name`` attributes index the results and
        must be unique.
    configure:
        Callback mapping a swept value to the (stack, via, power) triple
        the models should solve.
    executor:
        Execution strategy for the point solves; defaults to the serial
        in-process loop.  Pass a :class:`~repro.perf.ParallelExecutor` to
        fan points out over worker processes.
    cache:
        Consult/populate the global result cache for each (model, point)
        pair (default on; identical results either way).

    The first failed point raises :class:`~repro.errors.ExperimentError`
    naming its swept value and the captured failure;
    :class:`~repro.errors.ValidationError` propagates unchanged.
    """
    models = list(models)
    names = [m.name for m in models]
    if len(set(names)) != len(names):
        raise ValidationError(f"model names must be unique, got {names}")
    values = list(values)
    if not values:
        raise ValidationError("sweep needs at least one value")
    # the executors and scipy (via the cache) load with the first sweep:
    # importing repro.core, as every spec does, stays light
    from ..perf.cache import result_cache
    from ..perf.executors import PointTask, SerialExecutor
    from ..perf.keys import solve_key

    executor = executor or SerialExecutor()
    specs = expand_points(values, configure)

    # parent-side cache partition: dispatch only the missing solves
    point_results: list[dict[str, ModelResult]] = [{} for _ in values]
    point_keys: list[dict[str, str]] = [{} for _ in values]
    tasks: list[PointTask] = []
    for i, (stack, via, power) in enumerate(specs):
        missing: list[ThermalTSVModel] = []
        for m in models:
            key = solve_key(m, stack, via, power) if cache else None
            cached = result_cache.get(key) if key is not None else None
            if cached is not None:
                point_results[i][m.name] = cached
            else:
                if key is not None:
                    point_keys[i][m.name] = key
                missing.append(m)
        if missing:
            tasks.append(
                PointTask(
                    index=i,
                    value=values[i],
                    stack=stack,
                    via=via,
                    power=power,
                    models=tuple(missing),
                )
            )

    for task, solved in executor.submit_stream(tasks):
        if isinstance(solved, TaskFailure):
            raise ExperimentError(
                f"sweep point {parameter}={task.value!r} failed: "
                f"{solved.summary()}"
            )
        point_results[task.index].update(solved)
        for name, result in solved.items():
            key = point_keys[task.index].get(name)
            if key is not None:
                result_cache.put(key, result)

    return assemble_sweep(parameter, values, names, point_results, metadata)
