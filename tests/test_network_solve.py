"""Linear-system back-ends: dispatch, singularity detection, agreement."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import perf
from repro.errors import SingularNetworkError, SolverError
from repro.network import solve as solve_module
from repro.network.solve import (
    DENSE_CUTOFF,
    BandedCholesky,
    factorize,
    factorized_solver,
    solve_dense,
    solve_linear_system,
    solve_sparse,
)


def laplacian_chain(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grounded 1-D chain conductance matrix and a unit-source RHS."""
    g = np.zeros((n, n))
    for i in range(n):
        g[i, i] = 2.0
        if i > 0:
            g[i, i - 1] = -1.0
        if i < n - 1:
            g[i, i + 1] = -1.0
    g[n - 1, n - 1] = 1.0  # free top end; grounded at the bottom
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return g, rhs


class TestBackends:
    def test_dense_solves_chain(self):
        g, rhs = laplacian_chain(5)
        t = solve_dense(g, rhs)
        assert t[-1] == pytest.approx(5.0)

    def test_sparse_matches_dense(self):
        g, rhs = laplacian_chain(50)
        dense = solve_dense(g, rhs)
        sparse = solve_sparse(sp.csr_matrix(g), rhs)
        assert np.allclose(dense, sparse)

    def test_dispatch_small_dense_input(self):
        g, rhs = laplacian_chain(10)
        assert np.allclose(solve_linear_system(g, rhs), solve_dense(g, rhs))

    def test_dispatch_small_sparse_input(self):
        g, rhs = laplacian_chain(10)
        out = solve_linear_system(sp.csr_matrix(g), rhs)
        assert np.allclose(out, solve_dense(g, rhs))

    def test_dispatch_large(self):
        n = DENSE_CUTOFF + 50
        g, rhs = laplacian_chain(n)
        out = solve_linear_system(sp.csr_matrix(g), rhs)
        assert out[-1] == pytest.approx(float(n))

    def test_dense_singular_raises(self):
        g = np.zeros((3, 3))
        with pytest.raises(SingularNetworkError):
            solve_dense(g, np.ones(3))

    def test_sparse_nonfinite_detected(self):
        # a floating block makes the system singular: LAPACK rejects it as
        # not positive definite, and SuperLU, the fallback, as singular
        g = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
        before = perf.counter("sparse_factor_fallbacks")
        with pytest.raises(SingularNetworkError):
            solve_sparse(g, np.array([1.0, 1.0, 1.0]))
        assert perf.counter("sparse_factor_fallbacks") == before + 1


class TestSparseFactor:
    """The default sparse factor: banded Cholesky, SuperLU as fallback."""

    def test_spd_matrix_gets_a_banded_cholesky(self):
        g, rhs = laplacian_chain(DENSE_CUTOFF + 60)
        before = perf.counter("sparse_factor_fallbacks")
        solve = factorize(sp.csr_matrix(g))
        assert isinstance(solve.__self__, BandedCholesky)
        assert solve.__self__.nnz == 2 * g.shape[0]  # bandwidth 1
        assert np.allclose(solve(rhs), solve_dense(g, rhs))
        assert perf.counter("sparse_factor_fallbacks") == before

    def test_nonsymmetric_matrix_falls_back_to_superlu(self):
        g, rhs = laplacian_chain(DENSE_CUTOFF + 40)
        g[0, 7] = -0.5  # a one-way coupling: no longer symmetric
        before = perf.counter("sparse_factor_fallbacks")
        out = solve_sparse(sp.csr_matrix(g), rhs)
        assert perf.counter("sparse_factor_fallbacks") == before + 1
        assert isinstance(factorize(sp.csr_matrix(g)).__self__, spla.SuperLU)
        np.testing.assert_allclose(out, np.linalg.solve(g, rhs), rtol=1e-10)

    def test_indefinite_symmetric_matrix_falls_back_to_superlu(self):
        g, rhs = laplacian_chain(DENSE_CUTOFF + 20)
        g[3, 3] = -2.0  # symmetric and regular, but not positive definite
        before = perf.counter("sparse_factor_fallbacks")
        out = solve_sparse(sp.csr_matrix(g), rhs)
        assert perf.counter("sparse_factor_fallbacks") == before + 1
        np.testing.assert_allclose(out, np.linalg.solve(g, rhs), rtol=1e-10)


class TestIterativePath:
    """The CG branch of solve_sparse, forced by lowering ITERATIVE_CUTOFF."""

    def test_cg_success_matches_direct(self, monkeypatch):
        g, rhs = laplacian_chain(80)
        expected = solve_dense(g, rhs)
        calls = []
        real_cg = spla.cg

        def spying_cg(*args, **kwargs):
            calls.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(solve_module, "ITERATIVE_CUTOFF", 10)
        monkeypatch.setattr(solve_module.spla, "cg", spying_cg)
        out = solve_sparse(sp.csr_matrix(g), rhs)
        assert calls, "CG was not used despite n > ITERATIVE_CUTOFF"
        assert np.allclose(out, expected, rtol=1e-8)

    def test_ilu_failure_falls_back_to_direct(self, monkeypatch):
        g, rhs = laplacian_chain(80)
        monkeypatch.setattr(solve_module, "ITERATIVE_CUTOFF", 10)

        def broken_spilu(*args, **kwargs):
            raise RuntimeError("factor is exactly singular")

        monkeypatch.setattr(solve_module.spla, "spilu", broken_spilu)
        before = perf.counter("cg_ilu_fallbacks")
        with pytest.warns(RuntimeWarning, match="ILU preconditioner failed"):
            out = solve_sparse(sp.csr_matrix(g), rhs)
        assert perf.counter("cg_ilu_fallbacks") == before + 1
        assert np.allclose(out, solve_dense(g, rhs))

    def test_cg_nonconvergence_falls_back_to_direct(self, monkeypatch):
        g, rhs = laplacian_chain(80)
        monkeypatch.setattr(solve_module, "ITERATIVE_CUTOFF", 10)

        def stalled_cg(A, b, **kwargs):
            return np.zeros_like(b), 7  # info != 0: not converged

        monkeypatch.setattr(solve_module.spla, "cg", stalled_cg)
        before = perf.counter("cg_convergence_fallbacks")
        with pytest.warns(RuntimeWarning, match="did not converge"):
            out = solve_sparse(sp.csr_matrix(g), rhs)
        assert perf.counter("cg_convergence_fallbacks") == before + 1
        assert np.allclose(out, solve_dense(g, rhs))


class TestFactorizedSolver:
    def test_reusable_solve_matches_direct(self):
        g, rhs = laplacian_chain(50)
        solve = factorized_solver(sp.csr_matrix(g))
        assert np.allclose(solve(rhs), solve_dense(g, rhs))
        assert np.allclose(solve(2.0 * rhs), 2.0 * solve_dense(g, rhs))

    def test_nonfinite_solve_raises(self, monkeypatch):
        # same finite-temperature guard as solve_sparse: a numerically
        # singular factor that SuperLU accepts must not propagate NaNs
        # (transient stepping reuses the returned solve for every step)
        g, rhs = laplacian_chain(5)

        def degenerate_factor(matrix):
            return lambda r: np.full(r.shape, np.inf)

        monkeypatch.setattr(solve_module, "factorize", degenerate_factor)
        solve = factorized_solver(g)
        with pytest.raises(SolverError):
            solve(rhs)
