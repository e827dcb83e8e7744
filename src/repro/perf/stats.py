"""Global performance counters and the ``perf.stats()`` snapshot.

Every cache in :mod:`repro.perf.cache` registers itself here so one call
exposes hit/miss/eviction rates for the whole process; tier-1 tests
assert on them and ``perfbench/`` reports them per layer.  Free-standing
counters (e.g. the CG→direct fallback in :mod:`repro.network.solve`) use
:func:`increment`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

_lock = threading.Lock()
_counters: dict[str, int] = {}
_providers: dict[str, Callable[[], dict[str, Any]]] = {}


def increment(name: str, amount: int = 1) -> None:
    """Bump a named global counter (thread-safe)."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + amount


def counter(name: str) -> int:
    """Current value of a named counter (0 if never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def register_provider(name: str, provider: Callable[[], dict[str, Any]]) -> None:
    """Attach a stats provider (normally a cache) under ``name``."""
    with _lock:
        _providers[name] = provider


def stats() -> dict[str, Any]:
    """Snapshot of every cache and counter in the process."""
    from . import cache  # noqa: F401  (the caches register as it loads)

    with _lock:
        providers = dict(_providers)
        counters = dict(_counters)
    return {
        "caches": {name: provider() for name, provider in providers.items()},
        "counters": counters,
    }


def reset_counters() -> None:
    """Zero the free-standing counters (caches clear themselves)."""
    with _lock:
        _counters.clear()
