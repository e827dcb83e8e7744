"""Shared experiment harness.

An experiment = a sweep + a reference model + error metrics.  The eager
reference path (:func:`run_sweep_experiment`) and the execution-plan
reassembly (:mod:`repro.scenarios.plan`) both build their
:class:`~repro.scenarios.results.ExperimentResult` through
:func:`assemble_experiment`, and both pick calibration samples with
:func:`calibration_sample_indexes`.

A stored run never loads this module: its result type lives in
:mod:`repro.scenarios.results`.  The sweep driver, the models and the
calibration fit load when a function here first solves something.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..analysis.metrics import series_errors
from ..errors import ExperimentError
from ..perf.keys import calibration_fit_key, calibration_key, model_key, solve_key
from ..scenarios.results import ExperimentResult

if TYPE_CHECKING:
    from ..core.base import ThermalTSVModel
    from ..core.model_a import ModelA
    from ..core.sweep import Configurator, SweepResult
    from ..perf.executors import SweepExecutor


def calibration_sample_indexes(n_values: int, n_samples: int = 4) -> list[int]:
    """Indexes of the sweep values calibration samples at.

    Up to ``n_samples`` evenly spaced positions.  Shared by the eager path
    (:func:`calibrated_model_a`) and the execution-plan compiler, which
    lowers the same samples into plan nodes — both must pick identical
    values for the fitted coefficients to match.
    """
    if n_samples < 2:
        raise ExperimentError("calibration needs at least two samples")
    step = max(1, (n_values - 1) // (n_samples - 1)) if n_values > 1 else 1
    picked = list(range(n_values))[::step][:n_samples]
    if len(picked) < 2:
        picked = list(range(n_values))[:2]
    return picked


def calibration_sample_values(
    values: Sequence[Any], n_samples: int = 4
) -> list[Any]:
    """The sweep values calibration samples at (see the index variant)."""
    values = list(values)
    return [values[i] for i in calibration_sample_indexes(len(values), n_samples)]


def calibrated_model_from_fit(
    coefficients: Any, *, name: str = "model_a_cal"
) -> ModelA:
    """The ``model_a_cal`` instance a finished coefficient fit defines."""
    from ..core.model_a import ModelA

    model = ModelA(coefficients)
    model.name = name
    return model


def calibrated_model_a(
    values: Sequence[Any],
    configure: Configurator,
    reference: ThermalTSVModel,
    *,
    n_samples: int = 4,
    name: str = "model_a_cal",
) -> ModelA:
    """Model A with coefficients fitted to the experiment's own reference.

    This is the paper's actual workflow — k1/k2 come from "the simulation
    of a block" — re-run against *our* FEM.  Samples are taken at up to
    ``n_samples`` evenly spaced sweep values.

    Finished fits are memoized in the global result cache keyed on
    (reference config, sample solve keys) — the same
    :func:`repro.perf.calibration_key` identity the execution-plan
    compiler uses — so repeated in-process batches skip the least-squares
    fit itself, whichever path (eager or planned) ran first.  The fit is
    deterministic, so a cache hit returns identical coefficients.
    """
    from ..calibration import fit_coefficients
    from ..perf.memo import memoized_fit

    samples = [configure(v) for v in calibration_sample_values(values, n_samples)]
    fit_key = calibration_fit_key(
        calibration_key(
            model_key(reference),
            (solve_key(reference, *sample) for sample in samples),
            name,
        )
    )
    fit, _ = memoized_fit(fit_key, lambda: fit_coefficients(samples, reference))
    return calibrated_model_from_fit(fit.coefficients, name=name)


def run_sweep_experiment(
    *,
    experiment_id: str,
    title: str,
    x_label: str,
    values: Sequence[Any],
    configure: Configurator,
    models: Sequence[ThermalTSVModel],
    reference: ThermalTSVModel,
    metadata: dict[str, Any] | None = None,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Sweep all models plus the reference and compute errors against it.

    ``executor`` selects the sweep execution strategy (serial by default;
    see :class:`repro.perf.ParallelExecutor` for ``--jobs N`` fan-out).
    """
    from ..core.sweep import sweep

    all_models = list(models) + [reference]
    names = [m.name for m in all_models]
    if len(set(names)) != len(names):
        raise ExperimentError(f"duplicate model names in experiment: {names}")
    result = sweep(
        x_label, values, all_models, configure, metadata=metadata,
        executor=executor,
    )
    return assemble_experiment(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        values=values,
        model_names=[m.name for m in models],
        reference_name=reference.name,
        result=result,
        metadata=metadata,
    )


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

    The "assemble" half of :func:`run_sweep_experiment`: series, errors
    against the reference and mean runtimes are pure functions of the
    solved points, so the execution-plan scheduler reuses this unchanged
    to reassemble per-scenario results from plan nodes — guaranteeing the
    planned and eager paths build byte-identical payloads.
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
