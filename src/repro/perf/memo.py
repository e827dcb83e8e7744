"""Content-keyed memoization of model solves.

A sweep point is fully described by (model configuration, stack, via,
power), all of which are plain frozen dataclasses — so a solved
:class:`~repro.core.result.ModelResult` can be reused whenever the same
configuration reappears: calibration samples that overlap the sweep grid,
repeated sweeps under multi-scenario traffic, Table I re-deriving the
Fig. 5 sweep.  Results are deterministic, so a cache hit is numerically
identical to a fresh solve (the recorded ``solve_time`` is the original
solve's).
"""

from __future__ import annotations

from typing import Any

from .cache import result_cache
from .keys import (  # noqa: F401  (re-exported)
    calibration_fit_key,
    calibration_key,
    content_key,
    model_key,
    solve_key,
)


def memoized_fit(fit_key: str | None, compute: Any) -> Any:
    """A coefficient fit through the result cache (the fit-level cache).

    The single implementation of the fit-memoization contract shared by
    the eager path (:func:`repro.experiments.harness.calibrated_model_a`)
    and the plan scheduler — same counters
    (``calibration_fit_hits``/``_misses``), same None-key bypass, same
    cached type (the full CalibrationResult) — so the two paths can never
    drift apart and split the cache.  The fit is deterministic, so a hit
    returns coefficients identical to recomputing.  Returns
    ``(fit, from_cache)``.
    """
    from .stats import increment

    fit = result_cache.get(fit_key) if fit_key is not None else None
    if fit is not None:
        increment("calibration_fit_hits")
        return fit, True
    if fit_key is not None:
        increment("calibration_fit_misses")
    fit = compute()
    if fit_key is not None:
        result_cache.put(fit_key, fit)
    return fit, False


def cached_solve(model: Any, stack: Any, via: Any, power: Any) -> Any:
    """``model.solve(...)`` through the global result cache."""
    key = solve_key(model, stack, via, power)
    if key is None:
        return model.solve(stack, via, power)
    result = result_cache.get(key)
    if result is None:
        result = model.solve(stack, via, power)
        result_cache.put(key, result)
    return result
