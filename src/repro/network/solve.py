"""Linear-system back-ends for thermal networks.

Small systems (Model A: a handful of nodes) use a dense LAPACK solve;
large systems (Model B with hundreds of π-segments, FVM grids) use
scipy.sparse.  :func:`solve_linear_system` picks automatically.

The sparse direct path factorises through the global
:data:`repro.perf.factor_cache`: solving the same matrix again (transient
stepping, duplicated sweep points) reuses the factor and pays only the
triangular solves.  Every conductance matrix here is symmetric positive
definite, so the default factor is a banded Cholesky (reverse
Cuthill–McKee ordering, LAPACK ``dpbtrf``); a matrix that is not
symmetric, or not positive definite, falls back to symmetric-mode
SuperLU (see :class:`~repro.perf.cache.FactorizationCache`).
Factorisation is deterministic, so cached and fresh solves produce
identical results.  :func:`factorized_solver` exposes the same machinery
for callers that solve one matrix against many right-hand sides.

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

Stacked entry points (:func:`solve_dense_stacked`,
:func:`solve_sparse_stacked`) solve *many independent systems* at once —
the tier below multi-RHS: ``m`` different matrices with one RHS each,
hoisted into a single ``(m, n, n)`` batched LAPACK call (dense) or one
block-diagonal SuperLU factorisation with natural ordering (sparse).
The dense path is bit-for-bit identical per item to :func:`solve_dense`;
guards name the offending stacked item.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SingularNetworkError, SolverError
from ..perf import factor_cache, increment
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


def _as_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """CSR view of a sparse matrix without copying when already CSR."""
    if isinstance(matrix, sp.csr_matrix):
        return matrix
    return matrix.tocsr()


def solve_sparse(
    matrix: sp.spmatrix, rhs: np.ndarray, *, permc_spec: str | None = None
) -> np.ndarray:
    """Solve a sparse SPD system.

    Direct factorisation (cached) up to :data:`ITERATIVE_CUTOFF`
    unknowns; beyond that, conjugate gradients with an incomplete-LU
    preconditioner — the conductance matrices here are symmetric positive
    definite, for which CG is the method of choice and avoids 3-D fill-in
    blow-up.

    The default (``permc_spec=None``) direct factor is the banded
    Cholesky of :class:`~repro.perf.cache.FactorizationCache`, with
    symmetric-mode SuperLU as its fallback; a singular matrix raises
    :class:`~repro.errors.SingularNetworkError` either way.  A
    ``permc_spec`` asks for a SuperLU factor with that column ordering.
    Callers whose solves must slot bit-for-bit into the block-diagonal
    stacked tier (:func:`solve_sparse_stacked`) pass ``"NATURAL"`` so solo
    and stacked factors agree exactly.
    """
    csr = _as_csr(matrix)
    n = rhs.shape[0]
    if n > ITERATIVE_CUTOFF:
        solution = _solve_cg(csr, rhs)
        if solution is not None:
            return solution
    try:
        solution = factor_cache.solver(csr, permc_spec)(rhs)
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
    """Solve independent sparse systems through one block-diagonal factor.

    The systems are assembled into one ``scipy.sparse.block_diag`` matrix
    and factorised by a single SuperLU call with *natural* ordering
    (``permc_spec="NATURAL"``): the block-diagonal structure makes natural
    ordering batch-size invariant — item ``i``'s slice of the solution is
    identical whether it is factorised alone or inside any batch — which
    the identity tests assert.  (The default banded Cholesky is *not*
    batch-size invariant, and natural ordering differs from
    :func:`solve_sparse`'s default factor in the last ulps, so this path
    trades exact equality with the solo sparse path for batch-size
    invariance; use it where the batch itself is the reference.)

    A singular item fails the combined factorisation, so on failure each
    item is factorised individually to name the singular point(s); the
    finite-temperature guard likewise names bad items.
    """
    mats = [_as_csr(m) for m in matrices]
    if len(mats) != len(rhs_list):
        raise SolverError(
            f"stacked sparse solves need matching matrices and RHS lists, "
            f"got {len(mats)} matrices against {len(rhs_list)} RHS"
        )
    if not mats:
        return []
    sizes = [m.shape[0] for m in mats]
    for i, (m, b) in enumerate(zip(mats, rhs_list)):
        if m.shape[0] != m.shape[1] or np.shape(b) != (m.shape[0],):
            raise SolverError(
                f"stacked item {i} is not a square system with a matching "
                f"RHS: matrix {m.shape}, rhs {np.shape(b)}"
            )
    block = sp.block_diag(mats, format="csc")
    try:
        lu = spla.splu(block, permc_spec="NATURAL")
    except RuntimeError as exc:
        bad = []
        for i, m in enumerate(mats):
            try:
                spla.splu(m.tocsc(), permc_spec="NATURAL")
            except RuntimeError:
                bad.append(i)
        raise SingularNetworkError(
            f"sparse conductance matrix is singular in stacked item(s) "
            f"{bad} — some node has no path to ground"
        ) from exc
    joined = lu.solve(np.concatenate([np.asarray(b, dtype=float) for b in rhs_list]))
    offsets = np.cumsum([0] + sizes)
    out = []
    for i in range(len(mats)):
        piece = np.asarray(joined[offsets[i] : offsets[i + 1]], dtype=float)
        if not np.all(np.isfinite(piece)):
            raise SolverError(
                f"stacked sparse solve produced non-finite temperatures in "
                f"stacked item(s) [{i}]"
            )
        out.append(piece)
    return out


def _as_rhs_block(rhs_block: np.ndarray) -> np.ndarray:
    block = np.asarray(rhs_block, dtype=float)
    if block.ndim != 2:
        raise SolverError(
            f"multi-RHS solves need an (n, k) block, got shape {block.shape}"
        )
    return block


def solve_sparse_multi(
    matrix: sp.spmatrix,
    rhs_block: np.ndarray,
    *,
    permc_spec: str | None = None,
) -> np.ndarray:
    """Solve a sparse SPD system against an ``(n, k)`` RHS block.

    One factorisation (through the global factor cache) plus one
    back-substitution per column; column ``j`` of the result is bit-for-bit
    identical to ``solve_sparse(matrix, rhs_block[:, j])`` under the same
    ``permc_spec`` (see :func:`solve_sparse`).  Above
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
            solve = factor_cache.solver(csr, permc_spec)
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

    One LAPACK LU factorisation (through the global factor cache) plus one
    per-column back-substitution.  ``getrf``+``getrs`` on a single column
    is the same computation :func:`solve_dense` performs via
    ``numpy.linalg.solve`` (``gesv``), so columns match their single-RHS
    solves bit-for-bit when numpy and scipy resolve to the same LAPACK
    build (asserted by the identity tests on this environment; on split
    BLAS installs the columns may differ in the last ulp).  The sparse
    path — the one FEM shared-matrix sets actually use — carries the
    unconditional guarantee: both sides share one cached sparse factor.
    """
    block = _as_rhs_block(rhs_block)
    if block.shape[1] == 0:
        return block.copy()
    try:
        solve = factor_cache.solver(np.asarray(matrix, dtype=float))
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
    factorises exactly once, through the global factor cache.  Transient
    stepping uses this to turn n_steps full solves into one factorisation
    plus n_steps back-substitutions.

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
                solve = factor_cache.solver(matrix.toarray())
            else:
                solve = factor_cache.solver(_as_csr(matrix))
        else:
            solve = factor_cache.solver(np.asarray(matrix, dtype=float))
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
