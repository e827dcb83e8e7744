"""Size-bounded caches: the LRU store and the voxelisation cache.

:data:`assembly_cache` holds voxelisation grids keyed on geometry
content (:func:`repro.fem.voxelize.build_axisym_grids` et al.).  Matrix
factors are not cached: each one lives as long as the solve that needs
it (see :func:`repro.network.solve.factorize`).

Every cache exposes hit/miss/eviction counters through
:func:`repro.perf.stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any

from .stats import register_provider, reset_counters


class LRUCache:
    """A thread-safe least-recently-used cache with stats counters.

    ``maxsize == 0`` disables the cache entirely: every ``get`` misses and
    ``put`` is a no-op, so call sites never need to special-case it.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = int(maxsize)
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        register_provider(name, self.stats)

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            if self.maxsize and key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            if not self.maxsize:
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hit_rate": self.hits / total if total else 0.0,
            }


#: process-wide cache instance (importable singleton)
assembly_cache = LRUCache("assembly_cache", 32)


def reset() -> None:
    """Empty every cache and zero every counter (cold-start state)."""
    assembly_cache.clear()
    reset_counters()
