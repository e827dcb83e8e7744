"""Linear-system back-ends for thermal networks.

Small systems (Model A: a handful of nodes) use a dense LAPACK solve;
large systems (Model B with hundreds of π-segments, FVM grids) use
scipy.sparse.  :func:`solve_linear_system` picks automatically.

The sparse direct path factorises through :func:`factorize`.  Every
conductance matrix here is symmetric positive definite, so the default
factor is a banded Cholesky (reverse Cuthill–McKee ordering, LAPACK
``dpbtrf``); a matrix that is not symmetric, or not positive definite,
falls back to symmetric-mode SuperLU.  No factor is cached: each one
lives as long as the solve that needs it, and a caller that solves one
matrix many times holds the factor itself (:func:`factorized_solver`
for transient stepping, the multi-RHS entry points below for a
shared-matrix set).

Multi-RHS entry points (:func:`solve_sparse_multi`,
:func:`solve_dense_multi`, :func:`solve_linear_system_multi`) solve one
matrix against an ``(n, k)`` block of right-hand sides: the matrix is
factorised exactly once and each column is back-substituted through the
shared factor.  Columns are solved *individually* (not as one BLAS block
solve) on purpose — blocked triangular solves reorder floating-point
operations, and a shared-matrix set of the stacked tier requires column ``j``
of a batched solve to be bit-for-bit identical to the corresponding
single-RHS solve.  The finite-temperature guard is applied column-wise,
naming the offending columns.

:func:`solve_dense_stacked` solves *many independent dense systems* at
once — the tier below multi-RHS: ``m`` different matrices with one RHS
each, hoisted into a single ``(m, n, n)`` batched LAPACK call,
bit-for-bit identical per item to :func:`solve_dense`.  Sparse systems
have no stacked factor: each distinct matrix gets its own banded
factor, which is batch-size invariant by construction
(:func:`solve_sparse_stacked` keeps that per-item loop under its old
name).  Guards name the offending stacked item.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SingularNetworkError, SolverError
from ..perf import increment
from .circuit import DENSE_CUTOFF


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a dense SPD-ish system, raising library errors on failure."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(
            "conductance matrix is singular — some node has no path to ground"
        ) from exc


#: above this many unknowns, prefer preconditioned CG over direct solve
#: (the direct factor remains faster than ILU+CG for the moderately sized
#: 3-D grids used here; CG is the safety net against the band or fill-in
#: blowing up on huge grids)
ITERATIVE_CUTOFF = 150_000


#: ``splu`` arguments of the fallback for default-ordered sparse matrices
#: that are not symmetric positive definite: minimum-degree ordering on
#: ``A + Aᵀ`` with symmetric-mode SuperLU (see :func:`factorize`)
SYMMETRIC_SPLU: dict[str, Any] = {
    "permc_spec": "MMD_AT_PLUS_A",
    "options": {"SymmetricMode": True},
}


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


def factorize(matrix: Any) -> Callable[[np.ndarray], np.ndarray]:
    """Factor ``matrix`` once and return its ``solve(rhs) -> x``.

    A sparse matrix gets a :func:`banded_cholesky`; one that is not
    exactly symmetric, or that LAPACK rejects as not positive definite,
    falls back to SuperLU in symmetric mode with a minimum-degree
    ordering on ``A + Aᵀ`` (:data:`SYMMETRIC_SPLU`), so a singular system
    still raises SuperLU's ``RuntimeError``.  A dense matrix gets a
    LAPACK LU.

    Each sparse factorisation bumps the ``sparse_factorizations`` and
    ``sparse_factor_nnz`` (the entries the factor stores: the band, or
    SuperLU's ``L`` and ``U``) counters of :func:`repro.perf.stats`;
    ``sparse_factor_fallbacks`` counts the matrices that went to
    SuperLU.  The factor is referenced only by the returned
    callable, so it is freed with it.
    """
    if sp.issparse(matrix):
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
        raise RuntimeError("dense factorization is exactly singular")

    def solve(rhs: np.ndarray) -> np.ndarray:
        return la.lu_solve((lu, piv), rhs)

    return solve


def _as_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """CSR view of a sparse matrix without copying when already CSR."""
    if isinstance(matrix, sp.csr_matrix):
        return matrix
    return matrix.tocsr()


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve a sparse SPD system.

    Direct factorisation up to :data:`ITERATIVE_CUTOFF`
    unknowns; beyond that, conjugate gradients with an incomplete-LU
    preconditioner — the conductance matrices here are symmetric positive
    definite, for which CG is the method of choice and avoids 3-D fill-in
    blow-up.

    The direct factor is the banded Cholesky of :func:`factorize`, with
    symmetric-mode SuperLU as its fallback; a singular matrix raises
    :class:`~repro.errors.SingularNetworkError` either way.
    """
    csr = _as_csr(matrix)
    n = rhs.shape[0]
    if n > ITERATIVE_CUTOFF:
        solution = _solve_cg(csr, rhs)
        if solution is not None:
            return solution
    try:
        solution = factorize(csr)(rhs)
    except RuntimeError as exc:  # superlu signals singularity this way
        raise SingularNetworkError(
            "sparse conductance matrix is singular — some node has no path to ground"
        ) from exc
    arr = np.asarray(solution, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SolverError("sparse solve produced non-finite temperatures")
    return arr


def _cg_preconditioner(csr: sp.csr_matrix) -> spla.LinearOperator | None:
    """ILU preconditioner for CG, or None to fall back to the direct solver.

    Building the preconditioner is deterministic, so one preconditioner
    shared across a block of right-hand sides yields the same iterates as
    rebuilding it per solve — the multi-RHS path relies on this.
    """
    try:
        ilu = spla.spilu(csr.tocsc(), drop_tol=1e-5, fill_factor=8.0)
    except RuntimeError as exc:
        increment("cg_ilu_fallbacks")
        warnings.warn(
            f"ILU preconditioner failed ({exc}); falling back to the direct "
            "sparse solver",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return spla.LinearOperator(csr.shape, ilu.solve)


def _cg_iterate(
    csr: sp.csr_matrix, rhs: np.ndarray, preconditioner: spla.LinearOperator
) -> np.ndarray | None:
    """One preconditioned CG solve; None means fall back to direct."""
    solution, info = spla.cg(
        csr, rhs, rtol=1e-10, atol=0.0, maxiter=2000, M=preconditioner
    )
    if info != 0 or not np.all(np.isfinite(solution)):
        increment("cg_convergence_fallbacks")
        warnings.warn(
            f"preconditioned CG did not converge (info={info}); falling back "
            "to the direct sparse solver",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return np.asarray(solution, dtype=float)


def _solve_cg(csr: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray | None:
    """Preconditioned CG; returns None to fall back to the direct solver."""
    preconditioner = _cg_preconditioner(csr)
    if preconditioner is None:
        return None
    return _cg_iterate(csr, rhs, preconditioner)


def _check_finite_columns(solution: np.ndarray, what: str) -> np.ndarray:
    """Column-wise finite-temperature guard shared by the multi-RHS paths."""
    arr = np.asarray(solution, dtype=float)
    if not np.all(np.isfinite(arr)):
        if arr.ndim == 1:
            raise SolverError(f"{what} produced non-finite temperatures")
        bad = sorted(np.nonzero(~np.isfinite(arr).all(axis=0))[0].tolist())
        raise SolverError(
            f"{what} produced non-finite temperatures in RHS column(s) {bad}"
        )
    return arr


def _check_finite_items(solution: np.ndarray, what: str) -> np.ndarray:
    """Item-wise finite-temperature guard for the stacked-solve paths.

    ``solution`` is ``(m, n)`` — one row per stacked system.  Non-finite
    temperatures name the offending item indices so a degraded re-dispatch
    (or a human) can find the bad point.
    """
    arr = np.asarray(solution, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad = sorted(
            np.nonzero(~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1))[
                0
            ].tolist()
        )
        raise SolverError(
            f"{what} produced non-finite temperatures in stacked item(s) {bad}"
        )
    return arr


def solve_dense_stacked(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m`` independent dense systems in one batched LAPACK call.

    ``matrices`` is ``(m, n, n)``, ``rhs`` is ``(m, n)``; row ``i`` of the
    result solves ``matrices[i] @ x = rhs[i]``.  numpy broadcasts the solve
    through the same ``gesv`` gufunc a single :func:`solve_dense` call
    uses, so each row is bit-for-bit identical to
    ``solve_dense(matrices[i], rhs[i])`` — the stacked execution tier
    relies on this (asserted by the identity tests).

    A singular item fails the whole batched call, so on failure each item
    is probed individually to *name* the singular point(s); a non-finite
    row likewise names its item.
    """
    stack = np.asarray(matrices, dtype=float)
    block = np.asarray(rhs, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise SolverError(
            f"stacked dense solves need an (m, n, n) matrix stack, got "
            f"shape {stack.shape}"
        )
    if block.shape != stack.shape[:2]:
        raise SolverError(
            f"stacked dense solves need an (m, n) RHS stack matching the "
            f"matrices, got {block.shape} against {stack.shape}"
        )
    if stack.shape[0] == 0:
        return block.copy()
    try:
        # rhs must broadcast as a stack of column vectors: (m, n) -> (m, n, 1)
        solution = np.linalg.solve(stack, block[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        bad = []
        for i in range(stack.shape[0]):
            try:
                np.linalg.solve(stack[i], block[i])
            except np.linalg.LinAlgError:
                bad.append(i)
        raise SingularNetworkError(
            f"conductance matrix is singular in stacked item(s) {bad} — "
            "some node has no path to ground"
        ) from exc
    return _check_finite_items(solution, "stacked dense solve")


def solve_sparse_stacked(
    matrices: Sequence[sp.spmatrix], rhs_list: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Solve independent sparse systems, one :func:`solve_sparse` each.

    Item ``i`` of the result is bit-for-bit ``solve_sparse(matrices[i],
    rhs_list[i])``: each matrix gets its own banded factor, so a batch
    changes nothing.  No code in the package calls this any more — the
    stacked tier solves each distinct sparse matrix as a shared-matrix
    set — but the name stays because ``perfbench/tracer.py`` patches it.
    A singular or non-finite item is named by its index.
    """
    mats = [_as_csr(m) for m in matrices]
    if len(mats) != len(rhs_list):
        raise SolverError(
            f"stacked sparse solves need matching matrices and RHS lists, "
            f"got {len(mats)} matrices against {len(rhs_list)} RHS"
        )
    for i, (m, b) in enumerate(zip(mats, rhs_list)):
        if m.shape[0] != m.shape[1] or np.shape(b) != (m.shape[0],):
            raise SolverError(
                f"stacked item {i} is not a square system with a matching "
                f"RHS: matrix {m.shape}, rhs {np.shape(b)}"
            )
    out = []
    for i, (m, b) in enumerate(zip(mats, rhs_list)):
        try:
            out.append(solve_sparse(m, np.asarray(b, dtype=float)))
        except SingularNetworkError as exc:
            raise SingularNetworkError(
                f"sparse conductance matrix is singular in stacked item(s) "
                f"[{i}] — some node has no path to ground"
            ) from exc
        except SolverError as exc:
            raise SolverError(
                f"stacked sparse solve produced non-finite temperatures in "
                f"stacked item(s) [{i}]"
            ) from exc
    return out


def _as_rhs_block(rhs_block: np.ndarray) -> np.ndarray:
    block = np.asarray(rhs_block, dtype=float)
    if block.ndim != 2:
        raise SolverError(
            f"multi-RHS solves need an (n, k) block, got shape {block.shape}"
        )
    return block


def solve_sparse_multi(matrix: sp.spmatrix, rhs_block: np.ndarray) -> np.ndarray:
    """Solve a sparse SPD system against an ``(n, k)`` RHS block.

    One factorisation plus one back-substitution per column; column
    ``j`` of the result is bit-for-bit identical to
    ``solve_sparse(matrix, rhs_block[:, j])``.  Above
    :data:`ITERATIVE_CUTOFF` unknowns the ILU preconditioner is built once
    and shared across the per-column CG solves (identical iterates);
    columns that fail to converge fall back to the shared direct factor,
    exactly as their single-RHS counterparts would.
    """
    block = _as_rhs_block(rhs_block)
    csr = _as_csr(matrix)
    n, k = block.shape
    if k == 0:
        return block.copy()
    columns: list[np.ndarray | None] = [None] * k
    if n > ITERATIVE_CUTOFF:
        preconditioner = _cg_preconditioner(csr)
        if preconditioner is not None:
            for j in range(k):
                columns[j] = _cg_iterate(csr, block[:, j], preconditioner)
    if any(c is None for c in columns):
        try:
            solve = factorize(csr)
        except RuntimeError as exc:
            raise SingularNetworkError(
                "sparse conductance matrix is singular — some node has no "
                "path to ground"
            ) from exc
        for j in range(k):
            if columns[j] is None:
                columns[j] = solve(block[:, j])
    return _check_finite_columns(np.column_stack(columns), "sparse solve")


def solve_dense_multi(matrix: np.ndarray, rhs_block: np.ndarray) -> np.ndarray:
    """Solve a dense system against an ``(n, k)`` RHS block.

    One LAPACK LU factorisation plus one per-column back-substitution.  ``getrf``+``getrs`` on a single column
    is the same computation :func:`solve_dense` performs via
    ``numpy.linalg.solve`` (``gesv``), so columns match their single-RHS
    solves bit-for-bit when numpy and scipy resolve to the same LAPACK
    build (asserted by the identity tests on this environment; on split
    BLAS installs the columns may differ in the last ulp).  The sparse
    path — the one FEM shared-matrix sets actually use — carries the
    unconditional guarantee: both sides use the same deterministic sparse
    factor.
    """
    block = _as_rhs_block(rhs_block)
    if block.shape[1] == 0:
        return block.copy()
    try:
        solve = factorize(np.asarray(matrix, dtype=float))
    except RuntimeError as exc:
        raise SingularNetworkError(
            "conductance matrix is singular — some node has no path to ground"
        ) from exc
    columns = [solve(block[:, j]) for j in range(block.shape[1])]
    return _check_finite_columns(np.column_stack(columns), "dense solve")


def solve_linear_system_multi(matrix, rhs_block: np.ndarray) -> np.ndarray:
    """Dispatch an ``(n, k)`` RHS block to the dense or sparse back-end."""
    block = _as_rhs_block(rhs_block)
    n = block.shape[0]
    if sp.issparse(matrix):
        if n <= DENSE_CUTOFF:
            return solve_dense_multi(matrix.toarray(), block)
        return solve_sparse_multi(matrix, block)
    if n <= DENSE_CUTOFF:
        return solve_dense_multi(np.asarray(matrix, dtype=float), block)
    return solve_sparse_multi(sp.csr_matrix(matrix), block)


def factorized_solver(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """A reusable ``solve(rhs)`` for repeated solves against one matrix.

    Dispatches like :func:`solve_linear_system` (dense LAPACK LU below
    :data:`DENSE_CUTOFF` unknowns, the sparse factor above) but
    factorises exactly once; the factor lives as long as the returned
    callable.  Transient stepping uses this to turn n_steps full solves
    into one factorisation plus n_steps back-substitutions.

    The returned solve also accepts an ``(n, k)`` RHS block; the dense LU
    and a SuperLU fallback back-substitute blocks natively, and blocked
    triangular solves are *not* bit-identical to per-column solves —
    callers that need column-exact identity with single-RHS solves use
    :func:`solve_linear_system_multi` instead.

    Every returned solve applies the same finite-temperature guard as
    :func:`solve_sparse`, column-wise for RHS blocks: a numerically
    singular factor that slips past the factorisation (SuperLU can
    produce inf/nan instead of raising) raises
    :class:`~repro.errors.SolverError` instead of silently propagating
    non-finite values through transient stepping.
    """
    n = matrix.shape[0]
    try:
        if sp.issparse(matrix):
            if n <= DENSE_CUTOFF:
                solve = factorize(matrix.toarray())
            else:
                solve = factorize(_as_csr(matrix))
        else:
            solve = factorize(np.asarray(matrix, dtype=float))
    except RuntimeError as exc:
        raise SingularNetworkError(
            "matrix is singular — some node has no path to ground"
        ) from exc

    def checked_solve(rhs: np.ndarray) -> np.ndarray:
        return _check_finite_columns(solve(rhs), "factorized solve")

    return checked_solve


def solve_linear_system(matrix, rhs: np.ndarray) -> np.ndarray:
    """Dispatch to the dense or sparse back-end based on system size."""
    n = rhs.shape[0]
    if sp.issparse(matrix):
        if n <= DENSE_CUTOFF:
            return solve_dense(matrix.toarray(), rhs)
        return solve_sparse(matrix, rhs)
    if n <= DENSE_CUTOFF:
        return solve_dense(np.asarray(matrix, dtype=float), rhs)
    return solve_sparse(sp.csr_matrix(matrix), rhs)
