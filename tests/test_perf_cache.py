"""The perf layer: content keys, the uncached factor, the counters."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import paper_stack, perf
from repro.network.solve import _solve_cg, factorize, solve_sparse
from repro.perf import calibration_key, content_key, solve_key
from repro.units import um


@pytest.fixture(autouse=True)
def _clean_counters():
    """Every test starts and ends with zeroed counters."""
    perf.reset()
    yield
    perf.reset()


class TestContentKey:
    def test_equal_values_equal_keys(self):
        stack_a = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
        stack_b = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
        assert stack_a is not stack_b
        assert content_key(stack_a) == content_key(stack_b)

    def test_different_values_differ(self):
        stack_a = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
        stack_b = paper_stack(t_si_upper=um(46), t_ild=um(7), t_bond=um(1))
        assert content_key(stack_a) != content_key(stack_b)

    def test_unpicklable_returns_none(self):
        assert content_key(lambda x: x) is None

    def test_model_configuration_is_part_of_the_key(
        self, block_stack, block_tsv, block_power
    ):
        from repro import ModelB

        key_100 = solve_key(ModelB(100), block_stack, block_tsv, block_power)
        key_500 = solve_key(ModelB(500), block_stack, block_tsv, block_power)
        assert key_100 != key_500

    def test_calibration_key_propagates_none(self):
        assert calibration_key(None, ("a",), "m") is None
        assert calibration_key("ref", ("a", None), "m") is None
        assert calibration_key("ref", ("a", "b"), "m") is not None


class TestFactorize:
    def test_solves_correctly(self):
        g = sp.csr_matrix(
            np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        )
        rhs = np.array([1.0, 0.0, 1.0])
        x = factorize(g)(rhs)
        assert np.allclose(x, np.linalg.solve(g.toarray(), rhs))
        assert perf.counter("sparse_factorizations") == 1

    def test_dense_path(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        x = factorize(a)(rhs)
        assert np.allclose(x, np.linalg.solve(a, rhs))
        # a dense LU is not a sparse factor
        assert perf.counter("sparse_factorizations") == 0

    def test_dense_singular_raises(self):
        with pytest.raises(RuntimeError):
            factorize(np.diag([1.0, 0.0, 1.0]))


class TestSolveSparseReuse:
    def test_repeated_identical_solves_factor_again(self, factorizations):
        n = 300  # above DENSE_CUTOFF so the sparse path is taken
        g = sp.diags(
            [2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]
        ).tocsr()
        rhs = np.ones(n)
        x1 = solve_sparse(g, rhs)
        x2 = solve_sparse(g, rhs)
        # no factor outlives its solve, and factoring is deterministic
        assert factorizations == [n, n]
        assert perf.counter("sparse_factorizations") == 2
        assert np.array_equal(x1, x2)

    def test_singular_still_raises(self):
        g = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
        # pad above the dense cutoff is unnecessary: call solve_sparse directly
        with pytest.raises(Exception):
            solve_sparse(g, np.array([1.0, 1.0, 1.0]))

    def test_transient_singular_dense_lhs_raises_network_error(self):
        """factorized_solver keeps the SingularNetworkError contract on the
        dense path (LAPACK getrf only warns on exact singularity)."""
        from repro.errors import SingularNetworkError
        from repro.network.solve import factorized_solver

        with pytest.raises(SingularNetworkError):
            factorized_solver(np.diag([1.0, 0.0, 1.0]))

    def test_cg_ilu_failure_warns_and_counts(self):
        singular = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
        with pytest.warns(RuntimeWarning, match="ILU preconditioner failed"):
            out = _solve_cg(singular, np.ones(3))
        assert out is None
        assert perf.counter("cg_ilu_fallbacks") == 1


class TestFactorLifetime:
    def test_no_factor_outlives_its_solve(self, monkeypatch):
        """A shared-matrix set holds one factor for all its points, and
        nothing in the process keeps a factor once the plan has run."""
        import gc
        import weakref

        from repro.network import solve as solve_module
        from repro.scenarios import SCENARIOS
        from repro.scenarios.plan import compile_plan
        from repro.scenarios.scheduler import execute_plan

        refs = []
        real = solve_module.banded_cholesky

        def tracking(matrix):
            lu = real(matrix)
            if lu is not None:
                refs.append(weakref.ref(lu.factor))
            return lu

        monkeypatch.setattr(solve_module, "banded_cholesky", tracking)
        # a 3-D FEM power sweep: its points share one matrix
        spec = SCENARIOS.get("fem3d_power").resolved(fast=True)
        run = execute_plan(compile_plan([spec]))
        assert len(run.results) == len(compile_plan([spec]).nodes)
        assert len(refs) == 1  # one banded factor for both fem3d points
        gc.collect()
        assert [ref() for ref in refs] == [None]


class TestCrossRunReuse:
    """Finished results outlive a run only in the run store; the process
    keeps no result cache of its own."""

    def test_sweep_reuses_points_across_runs(self, block_sweep, tmp_path):
        from repro.scenarios import RunStore, run_scenario

        spec = block_sweep(("a",), (2.0, 5.0))
        store = RunStore(tmp_path / "store")
        first = run_scenario(spec, store=store).result
        solves = perf.counter("plan_point_solves")
        assert solves == 4  # both models at both points
        second = run_scenario(spec, store=store).result
        assert perf.counter("plan_point_solves") == solves
        assert perf.counter("run_store_hits") == 1
        assert first.series == second.series


class TestStatsAPI:
    def test_snapshot_shape(self):
        perf.increment("probe", 2)
        # counters only: the process keeps no cache to report
        assert perf.stats() == {"counters": {"probe": 2}}

    def test_reset_clears_everything(self):
        perf.increment("probe")
        perf.reset()
        assert perf.counter("probe") == 0
        assert perf.stats() == {"counters": {}}
