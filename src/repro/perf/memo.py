"""A model solve through the global result cache.

A solve is fully described by (model configuration, stack, via, power),
all of which are plain frozen dataclasses, so :func:`cached_solve` reuses
a solved :class:`~repro.core.result.ModelResult` whenever the same
configuration reappears (the calibration fit solves its reference
samples through it).  The plan scheduler reads and fills the same cache
under the same :func:`~repro.perf.keys.solve_key`.  Results are
deterministic, so a cache hit is numerically identical to a fresh solve
(the recorded ``solve_time`` is the original solve's).
"""

from __future__ import annotations

from typing import Any

from .cache import result_cache
from .keys import solve_key


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
