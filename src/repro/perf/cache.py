"""Size-bounded caches: LRU store, content hashing and factorization reuse.

Two process-wide caches back the sweep engine:

* :data:`assembly_cache` — voxelisation grids keyed on geometry content
  (:func:`repro.fem.voxelize.build_axisym_grids` et al.);
* :data:`factor_cache` — banded-Cholesky / SuperLU / LAPACK
  factorizations keyed on the matrix bytes, so repeated solves against
  an identical matrix (transient stepping, duplicated sweep points) skip
  the factorisation.

All caches expose hit/miss/eviction counters through
:func:`repro.perf.stats`.
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
from .stats import increment, register_provider, reset_counters

#: factors of systems larger than this are computed but never cached
#: (3-D fill-in makes huge factors memory-expensive; see FactorizationCache)
DEFAULT_FACTOR_CACHE_MAX_UNKNOWNS = 50_000
#: ``splu`` arguments of the fallback for default-ordered sparse matrices
#: that are not symmetric positive definite: minimum-degree ordering on
#: ``A + Aᵀ`` with symmetric-mode SuperLU (see FactorizationCache)
SYMMETRIC_SPLU: dict[str, Any] = {
    "permc_spec": "MMD_AT_PLUS_A",
    "options": {"SymmetricMode": True},
}


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


class BandedCholesky:
    """``P A Pᵀ = Uᵀ U`` of a sparse SPD matrix, ``U`` in LAPACK band storage.

    ``perm`` is the reverse Cuthill–McKee order ``P`` and ``factor`` the
    ``(bw + 1, n)`` upper band that ``dpbtrf`` wrote.  Like ``SuperLU`` it
    exposes ``nnz`` (the band entries it stores) and ``solve``.
    """

    __slots__ = ("perm", "factor")

    def __init__(self, perm: np.ndarray, factor: np.ndarray) -> None:
        self.perm = perm
        self.factor = factor

    @property
    def nnz(self) -> int:
        return self.factor.size

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a vector or, column by column, an ``(n, k)`` block.

        Every column goes through its own ``dpbtrs`` call, so column ``j``
        of a block is bit-for-bit the solve of that column alone.
        """
        b = np.asarray(rhs, dtype=float)
        x = np.empty_like(b)
        if b.ndim == 1:
            x[self.perm] = la.lapack.dpbtrs(self.factor, b[self.perm])[0]
        else:
            for j in range(b.shape[1]):
                x[self.perm, j] = la.lapack.dpbtrs(self.factor, b[self.perm, j])[0]
        return x


def banded_cholesky(matrix: Any) -> BandedCholesky | None:
    """Banded Cholesky of a sparse matrix, or None if it is not SPD.

    None means the matrix is not exactly symmetric (in values and in
    stored structure) or LAPACK found a leading minor that is not
    positive definite (a floating block, say).
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    csr = matrix.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    transposed = csr.tocsc()  # its arrays are the canonical CSR of Aᵀ
    for mine, theirs in (
        (csr.indptr, transposed.indptr),
        (csr.indices, transposed.indices),
        (csr.data, transposed.data),
    ):
        if not np.array_equal(mine, theirs):
            return None
    perm = reverse_cuthill_mckee(csr, symmetric_mode=True)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size, dtype=perm.dtype)
    entries = csr.tocoo()
    row, col = inverse[entries.row], inverse[entries.col]
    upper = row <= col
    offset = (col - row)[upper]
    bw = int(offset.max(initial=0))
    band = np.zeros((bw + 1, perm.size), order="F")
    band[bw - offset, col[upper]] = entries.data[upper]
    try:
        factor = la.cholesky_banded(
            band, overwrite_ab=True, lower=False, check_finite=False
        )
    except la.LinAlgError:
        return None
    return BandedCholesky(perm, factor)


class FactorizationCache(LRUCache):
    """LRU of reusable matrix factorizations keyed on matrix content.

    :meth:`solver` hands back a ``solve(rhs) -> x`` callable: a banded
    Cholesky or SuperLU for sparse matrices, a LAPACK LU for dense ones.
    A cache hit skips the factorisation entirely — only the triangular
    solves remain, which is where transient stepping and repeated sweep
    points win big.

    Matrices larger than ``max_unknowns`` are factorised but *not* stored:
    a huge 3-D factor (with fill-in) can run to hundreds of MB, and a cold
    sweep of unique matrices would pin ``maxsize`` of them for zero hits.
    Callers that reuse one factor across many right-hand sides
    (:func:`repro.network.solve.factorized_solver`) hold the returned
    callable themselves, so they are unaffected by the cap.

    Factorisation is deterministic, so results are identical whether the
    factor came from the cache or was computed fresh.

    Every conductance matrix factored here is symmetric positive definite
    (harmonic-mean face conductances, a grounded sink), so the default
    sparse factor is a Cholesky: :func:`banded_cholesky` orders the
    matrix by reverse Cuthill–McKee and factors its band with LAPACK
    ``dpbtrf``, whose blocked updates run on the optimised BLAS.  On the
    3-D Fig. 7 block that is about 3x faster than SuperLU.  A matrix
    that is not exactly symmetric, or that LAPACK rejects as not positive
    definite, falls back to SuperLU in symmetric mode with a
    minimum-degree ordering on ``A + Aᵀ`` (:data:`SYMMETRIC_SPLU`), so a
    singular system still raises SuperLU's ``RuntimeError``.

    Sparse factors can instead request a specific SuperLU column ordering
    via ``permc_spec`` (the stacked FEM tier needs ``"NATURAL"`` for its
    batch-size-invariance guarantee); the ordering is part of the cache
    key, so a NATURAL factor never masquerades as a default one.  Dense
    matrices ignore the ordering (LAPACK LU has no analogue).

    Each sparse factorisation bumps the ``sparse_factorizations`` and
    ``sparse_factor_nnz`` (the entries the factor stores: the band, or
    SuperLU's ``L`` and ``U``) counters of :func:`repro.perf.stats`, so
    the fill is visible beside the hit rates; ``sparse_factor_fallbacks``
    counts the default-ordered matrices that went to SuperLU.
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
            if permc_spec is not None:
                lu = spla.splu(matrix.tocsc(), permc_spec=permc_spec)
            else:
                lu = banded_cholesky(matrix)
                if lu is None:
                    increment("sparse_factor_fallbacks")
                    lu = spla.splu(matrix.tocsc(), **SYMMETRIC_SPLU)
            increment("sparse_factorizations")
            # the factor's own count of its stored entries; reading
            # lu.L / lu.U of a SuperLU instead would copy the whole factor
            increment("sparse_factor_nnz", lu.nnz)
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
assembly_cache = LRUCache("assembly_cache", 32)
factor_cache = FactorizationCache("factor_cache", 16)


def reset() -> None:
    """Empty every cache and zero every counter (cold-start state)."""
    assembly_cache.clear()
    factor_cache.clear()
    reset_counters()
