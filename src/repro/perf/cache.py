"""Size-bounded caches: LRU store, content hashing and factorization reuse.

Three process-wide caches back the sweep engine:

* :data:`assembly_cache` — voxelisation grids keyed on geometry content
  (:func:`repro.fem.voxelize.build_axisym_grids` et al.);
* :data:`result_cache` — full :class:`~repro.core.result.ModelResult`
  objects keyed on (model, stack, via, power) content;
* :data:`factor_cache` — SuperLU / LAPACK factorizations keyed on the
  matrix bytes, so repeated solves against an identical matrix (transient
  stepping, duplicated sweep points) skip the factorisation.

All caches expose hit/miss/eviction counters through
:func:`repro.perf.stats`, and :func:`configure` resizes (or disables,
with size 0) each of them at runtime.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import OrderedDict
from collections.abc import Callable
from threading import Lock
from typing import Any

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .keys import content_key  # noqa: F401  (re-exported)
from .stats import register_provider, reset_counters

#: defaults, overridable via :func:`configure`
DEFAULT_ASSEMBLY_CACHE_SIZE = 32
DEFAULT_RESULT_CACHE_SIZE = 256
DEFAULT_FACTOR_CACHE_SIZE = 16
#: factors of systems larger than this are computed but never cached
#: (3-D fill-in makes huge factors memory-expensive; see FactorizationCache)
DEFAULT_FACTOR_CACHE_MAX_UNKNOWNS = 50_000


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

    def resize(self, maxsize: int) -> None:
        with self._lock:
            self.maxsize = int(maxsize)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

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


def matrix_fingerprint(matrix: Any) -> bytes:
    """Digest of a matrix's exact content (shape, sparsity and values)."""
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        h.update(b"csr")
        h.update(np.asarray(csr.shape, dtype=np.int64).tobytes())
        h.update(csr.indptr.tobytes())
        h.update(csr.indices.tobytes())
        h.update(csr.data.tobytes())
    else:
        arr = np.ascontiguousarray(matrix)
        h.update(b"dense")
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    return h.digest()


class FactorizationCache(LRUCache):
    """LRU of reusable matrix factorizations keyed on matrix content.

    :meth:`solver` hands back a ``solve(rhs) -> x`` callable: SuperLU for
    sparse matrices, a LAPACK LU for dense ones.  A cache hit skips the
    factorisation entirely — only the triangular solves remain, which is
    where transient stepping and repeated sweep points win big.

    Matrices larger than ``max_unknowns`` are factorised but *not* stored:
    a huge 3-D factor (with fill-in) can run to hundreds of MB, and a cold
    sweep of unique matrices would pin ``maxsize`` of them for zero hits.
    Callers that reuse one factor across many right-hand sides
    (:func:`repro.network.solve.factorized_solver`) hold the returned
    callable themselves, so they are unaffected by the cap.

    Factorisation is deterministic, so results are identical whether the
    factor came from the cache or was computed fresh.

    Sparse factors can request a specific SuperLU column ordering via
    ``permc_spec`` (the stacked FEM tier needs ``"NATURAL"`` for its
    batch-size-invariance guarantee); the ordering is part of the cache
    key, so a NATURAL factor never masquerades as a COLAMD one.  Dense
    matrices ignore the ordering (LAPACK LU has no analogue).
    """

    def __init__(
        self,
        name: str,
        maxsize: int,
        *,
        max_unknowns: int = DEFAULT_FACTOR_CACHE_MAX_UNKNOWNS,
    ) -> None:
        super().__init__(name, maxsize)
        self.max_unknowns = int(max_unknowns)

    def solver(
        self, matrix: Any, permc_spec: str | None = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        if matrix.shape[0] > self.max_unknowns:
            return self._factorize(matrix, permc_spec)
        key = (matrix_fingerprint(matrix), permc_spec)
        cached = self.get(key)
        if cached is not None:
            return cached
        solve = self._factorize(matrix, permc_spec)
        self.put(key, solve)
        return solve

    @staticmethod
    def _factorize(
        matrix: Any, permc_spec: str | None = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        if sp.issparse(matrix):
            lu = spla.splu(matrix.tocsc(), permc_spec=permc_spec)
            return lu.solve
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(np.asarray(matrix, dtype=float))
        if np.any(np.diag(lu) == 0.0):
            # LAPACK getrf only warns on exact singularity; raise the same
            # RuntimeError SuperLU uses so callers translate it uniformly
            # (and the junk factor is never cached)
            raise RuntimeError("dense factorization is exactly singular")

        def solve(rhs: np.ndarray) -> np.ndarray:
            return la.lu_solve((lu, piv), rhs)

        return solve


#: process-wide cache instances (importable singletons)
assembly_cache = LRUCache("assembly_cache", DEFAULT_ASSEMBLY_CACHE_SIZE)
result_cache = LRUCache("result_cache", DEFAULT_RESULT_CACHE_SIZE)
factor_cache = FactorizationCache("factor_cache", DEFAULT_FACTOR_CACHE_SIZE)


def configure(
    *,
    assembly_cache_size: int | None = None,
    result_cache_size: int | None = None,
    factor_cache_size: int | None = None,
    factor_cache_max_unknowns: int | None = None,
) -> None:
    """Resize the global caches; a size of 0 disables that cache."""
    if assembly_cache_size is not None:
        assembly_cache.resize(assembly_cache_size)
    if result_cache_size is not None:
        result_cache.resize(result_cache_size)
    if factor_cache_size is not None:
        factor_cache.resize(factor_cache_size)
    if factor_cache_max_unknowns is not None:
        factor_cache.max_unknowns = int(factor_cache_max_unknowns)


def reset() -> None:
    """Empty every cache and zero every counter (cold-start state)."""
    assembly_cache.clear()
    result_cache.clear()
    factor_cache.clear()
    reset_counters()
