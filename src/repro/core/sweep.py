"""Sweep points and results.

Every figure of the paper is a sweep: vary one parameter (radius, liner
thickness, substrate thickness, cluster size), run several models on each
point, and compare the resulting max-ΔT series.  The execution-plan
compiler (:mod:`repro.scenarios.plan`) lowers the points of a sweep with
:func:`expand_points` into content-keyed solve nodes, the scheduler solves
them, and :func:`assemble_sweep` puts the solved points back together in
sweep order, whatever order they were solved in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ValidationError
from .result import ModelResult

if TYPE_CHECKING:
    from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster

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

    def series(self, model_name: str) -> list[float]:
        """Max-ΔT values of one model across the sweep."""
        return [p.rise(model_name) for p in self.points]

    def result_series(self, model_name: str) -> list[ModelResult]:
        """Full results of one model across the sweep."""
        return [p.results[model_name] for p in self.points]

