"""Experiment assembly: a solved sweep + a reference model + error metrics.

The execution-plan compiler (:mod:`repro.scenarios.plan`) picks a
scenario's calibration samples with :func:`calibration_sample_indexes`,
the scheduler turns a finished fit into a model with
:func:`calibrated_model_from_fit`, and :func:`assemble_experiment` builds
the :class:`~repro.scenarios.results.ExperimentResult` from the solved
points.

A stored run never loads this module: its result type lives in
:mod:`repro.scenarios.results`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis.metrics import series_errors
from ..errors import ExperimentError
from ..scenarios.results import ExperimentResult

if TYPE_CHECKING:
    from ..core.model_a import ModelA
    from ..core.sweep import SweepResult


def calibration_sample_indexes(n_values: int, n_samples: int = 4) -> list[int]:
    """Indexes of the sweep values calibration samples at.

    Up to ``n_samples`` evenly spaced positions; the execution-plan
    compiler lowers the values at these positions into the reference
    solves a calibration node fits to.
    """
    if n_samples < 2:
        raise ExperimentError("calibration needs at least two samples")
    step = max(1, (n_values - 1) // (n_samples - 1)) if n_values > 1 else 1
    picked = list(range(n_values))[::step][:n_samples]
    if len(picked) < 2:
        picked = list(range(n_values))[:2]
    return picked


def calibrated_model_from_fit(
    coefficients: Any, *, name: str = "model_a_cal"
) -> ModelA:
    """The ``model_a_cal`` instance a finished coefficient fit defines."""
    from ..core.model_a import ModelA

    model = ModelA(coefficients)
    model.name = name
    return model


def assemble_experiment(
    *,
    experiment_id: str,
    title: str,
    x_label: str,
    values: Sequence[Any],
    model_names: Sequence[str],
    reference_name: str,
    result: SweepResult,
    metadata: dict[str, Any] | None = None,
) -> ExperimentResult:
    """Derive an :class:`ExperimentResult` from an already-solved sweep.

    Series, errors against the reference and mean runtimes are pure
    functions of the solved points, so the result does not depend on the
    order or the dispatch tier the plan nodes were solved in.
    """
    all_names = list(model_names) + [reference_name]
    reference_series = result.series(reference_name)
    series = {name: result.series(name) for name in all_names}
    errors = {
        name: series_errors(series[name], reference_series) for name in model_names
    }
    runtimes = {
        name: float(
            np.mean([r.solve_time for r in result.result_series(name)]) * 1e3
        )
        for name in all_names
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        x_values=list(values),
        series=series,
        reference_name=reference_name,
        errors=errors,
        runtimes_ms=runtimes,
        metadata=metadata or {},
        sweep_result=result,
    )
