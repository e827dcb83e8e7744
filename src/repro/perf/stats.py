"""Global performance counters and the ``perf.stats()`` snapshot.

Code anywhere in the package bumps a named counter with
:func:`increment` (e.g. the CG→direct fallback in
:mod:`repro.network.solve`); tier-1 tests assert on the counters and
``perfbench/`` reports them per layer.  :func:`reset` zeroes them all.
"""

from __future__ import annotations

import threading
from typing import Any

_lock = threading.Lock()
_counters: dict[str, int] = {}


def increment(name: str, amount: int = 1) -> None:
    """Bump a named global counter (thread-safe)."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + amount


def counter(name: str) -> int:
    """Current value of a named counter (0 if never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def stats() -> dict[str, Any]:
    """Snapshot of every counter in the process."""
    with _lock:
        return {"counters": dict(_counters)}


def reset() -> None:
    """Zero every counter (cold-start state)."""
    with _lock:
        _counters.clear()
