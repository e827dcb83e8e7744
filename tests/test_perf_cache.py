"""The perf caches: LRU semantics, content keys, factorization reuse."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import paper_stack, perf
from repro.fem import build_axisym_grids
from repro.network.solve import _solve_cg, solve_sparse
from repro.perf import (
    FactorizationCache,
    LRUCache,
    calibration_key,
    content_key,
    matrix_fingerprint,
    solve_key,
)
from repro.units import um


@pytest.fixture(autouse=True)
def _clean_caches():
    """Every test starts and ends with cold caches."""
    perf.reset()
    yield
    perf.reset()


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache("t_hits", 4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_eviction_is_lru(self):
        cache = LRUCache("t_lru", 2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_size_disables(self):
        cache = LRUCache("t_off", 0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


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


class TestFactorizationCache:
    def _system(self, scale=1.0):
        g = sp.csr_matrix(
            np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
            * scale
        )
        return g, np.array([1.0, 0.0, 1.0])

    def test_reuse_and_correctness(self):
        cache = FactorizationCache("t_factor", 4)
        g, rhs = self._system()
        x1 = cache.solver(g)(rhs)
        x2 = cache.solver(g)(rhs)
        assert cache.stats()["hits"] == 1
        expected = np.linalg.solve(g.toarray(), rhs)
        assert np.allclose(x1, expected)
        assert np.array_equal(x1, x2)

    def test_mutated_matrix_is_a_fresh_entry(self):
        """Same sparsity pattern, different values -> different factor."""
        cache = FactorizationCache("t_mutate", 4)
        g, rhs = self._system()
        x1 = cache.solver(g)(rhs)
        g2 = g.copy()
        g2.data = g2.data * 2.0  # mutate values, keep the pattern
        x2 = cache.solver(g2)(rhs)
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 2
        assert np.allclose(x2, np.linalg.solve(g2.toarray(), rhs))
        assert not np.allclose(x1, x2)

    def test_fingerprint_tracks_values_and_pattern(self):
        g, _ = self._system()
        same = sp.csr_matrix(g.toarray())
        assert matrix_fingerprint(g) == matrix_fingerprint(same)
        other = g.copy()
        other.data = other.data + 1e-12
        assert matrix_fingerprint(g) != matrix_fingerprint(other)

    def test_eviction_keeps_solves_correct(self):
        cache = FactorizationCache("t_evict", 2)
        systems = [self._system(scale) for scale in (1.0, 2.0, 3.0)]
        for _ in range(2):  # cycle so the oldest entry is always evicted
            for g, rhs in systems:
                x = cache.solver(g)(rhs)
                assert np.allclose(x, np.linalg.solve(g.toarray(), rhs))
        assert cache.stats()["evictions"] > 0

    def test_dense_path(self):
        cache = FactorizationCache("t_dense", 2)
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        x = cache.solver(a)(rhs)
        assert np.allclose(x, np.linalg.solve(a, rhs))
        cache.solver(a)
        assert cache.stats()["hits"] == 1

    def test_dense_singular_raises_and_is_not_cached(self):
        cache = FactorizationCache("t_dense_singular", 2)
        singular = np.diag([1.0, 0.0, 1.0])
        with pytest.raises(RuntimeError):
            cache.solver(singular)
        assert len(cache) == 0

    def test_oversized_matrices_solve_but_never_cache(self):
        cache = FactorizationCache("t_cap", 4, max_unknowns=10)
        n = 20
        g = sp.diags(
            [2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]
        ).tocsr()
        rhs = np.ones(n)
        x = cache.solver(g)(rhs)
        assert np.allclose(g @ x, rhs)
        assert len(cache) == 0  # factor computed, deliberately not pinned


class TestSolveSparseReuse:
    def test_repeated_identical_solves_hit_global_cache(self):
        n = 300  # above DENSE_CUTOFF so the sparse path is taken
        g = sp.diags(
            [2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]
        ).tocsr()
        rhs = np.ones(n)
        x1 = solve_sparse(g, rhs)
        before = perf.factor_cache.stats()["hits"]
        x2 = solve_sparse(g, rhs)
        assert perf.factor_cache.stats()["hits"] == before + 1
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


class TestAssemblyMemoization:
    def test_identical_build_hits(self, block_stack, block_tsv, block_power):
        g1 = build_axisym_grids(block_stack, block_tsv, block_power)
        before = perf.assembly_cache.stats()
        g2 = build_axisym_grids(block_stack, block_tsv, block_power)
        after = perf.assembly_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert np.array_equal(g1.conductivity, g2.conductivity)
        assert np.array_equal(g1.source_density, g2.source_density)

    def test_changed_kwargs_miss(self, block_stack, block_tsv, block_power):
        build_axisym_grids(block_stack, block_tsv, block_power, nr=20, nz=40)
        before = perf.assembly_cache.stats()
        build_axisym_grids(block_stack, block_tsv, block_power, nr=22, nz=40)
        after = perf.assembly_cache.stats()
        # a changed mesh misses all three cache levels (full grids, the
        # power-free geometry half, the conductivity-free frame) and
        # hits none
        assert after["misses"] == before["misses"] + 3
        assert after["hits"] == before["hits"]

    def test_changed_power_shares_geometry(
        self, block_stack, block_tsv, block_power
    ):
        from dataclasses import replace

        build_axisym_grids(block_stack, block_tsv, block_power, nr=20, nz=40)
        before = perf.assembly_cache.stats()
        hotter = replace(
            block_power, device_power_density=block_power.device_power_density * 2
        )
        build_axisym_grids(block_stack, block_tsv, hotter, nr=20, nz=40)
        after = perf.assembly_cache.stats()
        # a changed power misses the power-keyed grids cache but reuses
        # the power-free geometry (mesh + conductivity) built before
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1

    def test_disabled_cache_still_builds(
        self, block_stack, block_tsv, block_power, monkeypatch
    ):
        monkeypatch.setattr(perf.assembly_cache, "maxsize", 0)
        grids = build_axisym_grids(block_stack, block_tsv, block_power)
        assert grids.conductivity.shape[0] == grids.r_edges.size - 1


class TestResultCache:
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
        snapshot = perf.stats()
        assert "caches" in snapshot and "counters" in snapshot
        for name in ("assembly_cache", "factor_cache"):
            assert name in snapshot["caches"]

    def test_reset_clears_everything(self, block_stack, block_tsv, block_power):
        build_axisym_grids(block_stack, block_tsv, block_power)
        perf.increment("probe")
        perf.reset()
        assert perf.assembly_cache.stats()["misses"] == 0
        assert perf.counter("probe") == 0
