"""The cross-matrix stacked solve tier: batched dense/block-diagonal
solvers, model stacking hooks, scheduler regrouping and byte-identity."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults, perf
from repro.core.base import solve_stacked
from repro.core.factory import make_model
from repro.core.model_a import ModelA
from repro.errors import SingularNetworkError, SolverError
from repro.experiments.params import fig4_config, fig5_config
from repro.fem import FEMReference
from repro.geometry import TSVCluster
from repro.network.solve import (
    solve_dense,
    solve_dense_stacked,
    solve_sparse,
    solve_sparse_stacked,
)
from repro.perf import ParallelExecutor, SerialExecutor, StackedBatchTask, solve_work
from repro.resistances import FittingCoefficients
from repro.scenarios import SCENARIOS, AxisSpec, ScenarioSpec, run_scenario


def _spd_stack(m: int, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(m, n, n) well-conditioned matrices + (m, n) RHS, all distinct."""
    rng = np.random.RandomState(seed)
    mats = np.empty((m, n, n))
    for i in range(m):
        a = rng.randn(n, n)
        mats[i] = a @ a.T + n * (1.0 + 0.1 * i) * np.eye(n)
    return mats, rng.randn(m, n)


def geometry_spec(scenario_id="radius_sweep", values=(2.0, 3.0, 4.0), **overrides):
    """A Model A geometry sweep: every point assembles a different matrix."""
    kwargs = dict(
        scenario_id=scenario_id,
        title="Radius sweep",
        axis=AxisSpec(parameter="radius_um", values=values),
        models=("a:paper",),
        reference="fem:coarse",
        calibrate=False,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSolveDenseStacked:
    @pytest.mark.parametrize("m,n", [(1, 3), (4, 7), (9, 20), (3, 64)])
    def test_items_bitwise_equal_single_solves(self, m, n):
        mats, rhs = _spd_stack(m, n, seed=m * 100 + n)
        stacked = solve_dense_stacked(mats, rhs)
        for i in range(m):
            assert np.array_equal(stacked[i], solve_dense(mats[i], rhs[i]))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_input_dtypes_normalised_to_float64(self, dtype):
        mats, rhs = _spd_stack(3, 5, seed=7)
        cast_m = (10.0 * mats).astype(dtype)
        cast_r = (10.0 * rhs).astype(dtype)
        stacked = solve_dense_stacked(cast_m, cast_r)
        assert stacked.dtype == np.float64
        for i in range(3):
            assert np.array_equal(
                stacked[i],
                solve_dense(
                    np.asarray(cast_m[i], dtype=float),
                    np.asarray(cast_r[i], dtype=float),
                ),
            )

    def test_empty_stack_returns_empty(self):
        out = solve_dense_stacked(np.empty((0, 4, 4)), np.empty((0, 4)))
        assert out.shape == (0, 4)

    def test_rejects_non_stack_shapes(self):
        with pytest.raises(SolverError, match=r"\(m, n, n\)"):
            solve_dense_stacked(np.eye(4), np.ones(4))
        with pytest.raises(SolverError, match=r"\(m, n, n\)"):
            solve_dense_stacked(np.ones((2, 4, 3)), np.ones((2, 4)))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(SolverError, match="matching"):
            solve_dense_stacked(np.ones((2, 4, 4)), np.ones((3, 4)))
        with pytest.raises(SolverError, match="matching"):
            solve_dense_stacked(np.ones((2, 4, 4)), np.ones((2, 5)))

    def test_singular_items_named(self):
        mats, rhs = _spd_stack(4, 6, seed=3)
        mats[1] = 0.0
        mats[3] = 0.0
        with pytest.raises(SingularNetworkError, match=r"stacked item\(s\) \[1, 3\]"):
            solve_dense_stacked(mats, rhs)

    def test_nonfinite_items_named(self, monkeypatch):
        mats, rhs = _spd_stack(3, 4, seed=5)
        bad = np.zeros((3, 4, 1))
        bad[2, 0, 0] = np.inf
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: bad)
        with pytest.raises(SolverError, match=r"stacked item\(s\) \[2\]"):
            solve_dense_stacked(mats, rhs)


def _spd_sparse(n: int, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.RandomState(seed)
    a = sp.random(n, n, density=0.05, random_state=rng, format="csr")
    return (a + a.T + sp.diags(np.full(n, 10.0))).tocsr()


class TestSolveSparseStacked:
    def test_batch_size_invariant(self):
        # natural ordering on a block-diagonal matrix: item i's slice is
        # identical whether factorised alone or inside any batch
        mats = [_spd_sparse(n, seed=n) for n in (40, 60, 80)]
        rhs = [np.random.RandomState(n).randn(n) for n in (40, 60, 80)]
        full = solve_sparse_stacked(mats, rhs)
        for i in range(3):
            (solo,) = solve_sparse_stacked([mats[i]], [rhs[i]])
            assert np.array_equal(full[i], solo)
        pair = solve_sparse_stacked(mats[:2], rhs[:2])
        assert np.array_equal(full[0], pair[0])
        assert np.array_equal(full[1], pair[1])

    def test_close_to_solo_sparse_solves(self):
        # the default symmetric-mode MMD(A+Aᵀ) factor (solve_sparse) vs
        # natural ordering differ in the last ulps only
        mats = [_spd_sparse(n, seed=n + 1) for n in (50, 70)]
        rhs = [np.random.RandomState(n).randn(n) for n in (50, 70)]
        stacked = solve_sparse_stacked(mats, rhs)
        for i in range(2):
            np.testing.assert_allclose(
                stacked[i], solve_sparse(mats[i], rhs[i]), rtol=1e-12
            )

    def test_empty_list(self):
        assert solve_sparse_stacked([], []) == []

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SolverError, match="matching"):
            solve_sparse_stacked([_spd_sparse(10)], [])

    def test_rejects_bad_item_shape(self):
        with pytest.raises(SolverError, match="stacked item 1"):
            solve_sparse_stacked(
                [_spd_sparse(10), _spd_sparse(12)],
                [np.ones(10), np.ones(11)],
            )

    def test_singular_items_named(self):
        mats = [_spd_sparse(20, seed=2), sp.csr_matrix((20, 20))]
        rhs = [np.ones(20), np.ones(20)]
        with pytest.raises(SingularNetworkError, match=r"stacked item\(s\) \[1\]"):
            solve_sparse_stacked(mats, rhs)


def assert_results_identical(stacked, solo):
    assert stacked.max_rise == solo.max_rise
    assert stacked.plane_rises == solo.plane_rises
    assert stacked.node_temperatures == solo.node_temperatures
    assert stacked.n_unknowns == solo.n_unknowns
    assert stacked.model_name == solo.model_name
    assert stacked.metadata == solo.metadata


class TestBatchClassKey:
    def test_model_a_stacks_across_geometry_and_fits(self):
        cfg1, cfg2 = fig5_config(1.0), fig5_config(3.0)
        model = make_model("a:paper")
        key = model.batch_class_key(cfg1.stack, cfg1.via)
        assert key is not None
        # different liner, different radius, different fit: same class
        assert key == model.batch_class_key(cfg2.stack, cfg2.via)
        cfg4 = fig4_config(3.0)
        assert key == model.batch_class_key(cfg4.stack, cfg4.via)
        assert key == ModelA().batch_class_key(cfg1.stack, cfg1.via)

    def test_plane_count_changes_class(self):
        from repro.geometry.builders import paper_stack

        cfg = fig5_config(1.0)
        model = make_model("a:paper")
        other = paper_stack(n_planes=2)
        assert model.batch_class_key(cfg.stack, cfg.via) != model.batch_class_key(
            other, cfg.via
        )

    def test_model_b_paper_scheme_small_systems_stack(self):
        cfg1, cfg2 = fig5_config(1.0), fig5_config(2.0)
        model = make_model("b:10")
        key = model.batch_class_key(cfg1.stack, cfg1.via)
        assert key is not None
        assert key == model.batch_class_key(cfg2.stack, cfg2.via)
        # a different segment count is a different structure
        assert key != make_model("b:20").batch_class_key(cfg1.stack, cfg1.via)

    def test_model_b_large_systems_opt_out(self):
        # b:100 assembles 1 + 2*210 unknowns — past the dense cutoff
        cfg = fig5_config(1.0)
        assert make_model("b:100").batch_class_key(cfg.stack, cfg.via) is None

    def test_fem_coarse_meshes_stack_across_geometry(self):
        cfg1, cfg2 = fig5_config(0.5), fig5_config(1.5)
        model = FEMReference("coarse")
        key = model.batch_class_key(cfg1.stack, cfg1.via)
        assert key is not None
        # different liner thickness: different matrix values, same mesh
        # topology — one stackable class
        assert key == model.batch_class_key(cfg2.stack, cfg2.via)
        # a different stack voxelises to a different mesh: different class
        cfg4 = fig4_config(3.0)
        assert key != model.batch_class_key(cfg4.stack, cfg4.via)

    def test_fem_large_meshes_and_cartesian_and_1d_opt_out(self):
        cfg = fig5_config(1.0)
        # medium voxelises past the natural-ordering cutoff
        assert FEMReference("medium").batch_class_key(cfg.stack, cfg.via) is None
        assert (
            FEMReference("coarse", solver="cartesian").batch_class_key(
                cfg.stack, cfg.via
            )
            is None
        )
        assert make_model("1d").batch_class_key(cfg.stack, cfg.via) is None


class TestSolveStacked:
    def test_model_a_members_bitwise_equal_solo(self):
        model = make_model("a:paper")
        members = [
            (model, cfg.stack, cfg.via, cfg.power)
            for cfg in (fig5_config(0.5), fig5_config(1.5), fig4_config(4.0))
        ]
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_model_a_batch_stamps_each_member_like_its_solo_stamp(self):
        fits = ((1.3, 0.55), (0.8, 2.1), (1.7, 0.4))
        cfgs = (fig5_config(0.5), fig5_config(1.5), fig4_config(4.0))
        members = [
            (ModelA(FittingCoefficients(k1, k2)), cfg.stack, cfg.via, cfg.power)
            for (k1, k2), cfg in zip(fits, cfgs)
        ]
        systems = members[0][0].assemble_batch(members)
        for system, (m, stack, via, power) in zip(systems, members):
            solo = m.assemble_system(stack, via, power)
            assert system.matrix.tobytes() == solo.matrix.tobytes()
            assert system.rhs.tobytes() == solo.rhs.tobytes()
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_model_a_cluster_members(self):
        model = ModelA()
        cfg = fig5_config(1.0)
        members = [
            (model, cfg.stack, TSVCluster(cfg.via, n), cfg.power) for n in (1, 4, 9)
        ]
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_model_b_members_bitwise_equal_solo(self):
        model = make_model("b:10")
        members = [
            (model, cfg.stack, cfg.via, cfg.power)
            for cfg in (fig5_config(1.0), fig5_config(2.5))
        ]
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_fem_members_bitwise_equal_solo(self):
        model = FEMReference("coarse")
        members = [
            (model, cfg.stack, cfg.via, cfg.power)
            for cfg in (fig5_config(0.5), fig5_config(1.0), fig5_config(1.5))
        ]
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_fem_cluster_members_bitwise_equal_solo(self):
        model = FEMReference("coarse")
        cfg = fig5_config(1.0)
        members = [
            (model, cfg.stack, TSVCluster(cfg.via, n), cfg.power) for n in (1, 4, 9)
        ]
        for result, (m, stack, via, power) in zip(solve_stacked(members), members):
            assert_results_identical(result, m.solve(stack, via, power))

    @pytest.mark.parametrize(
        "spec", ["fem3d:10x10x20", "b:200"], ids=["fem3d", "model_b_sparse"]
    )
    def test_a_lone_default_ordered_member_solves_like_solo(self, spec):
        # a fleet worker that loses the lease race for all but one member
        # of a unit dispatches that member alone; its solo solve uses the
        # default factor, which a natural-ordering block stack would not
        cfg = fig5_config(1.0)
        model = make_model(spec)
        (result,) = solve_stacked([(model, cfg.stack, cfg.via, cfg.power)])
        assert_results_identical(result, model.solve(cfg.stack, cfg.via, cfg.power))

    def test_declining_member_falls_back_to_solo_solves(self):
        # the 1-D model never assembles a stackable system: the whole
        # batch degrades to per-member model.solve, still positionally
        # aligned
        cfg = fig5_config(1.0)
        members = [
            (make_model("1d"), cfg.stack, cfg.via, cfg.power),
            (make_model("a:paper"), cfg.stack, cfg.via, cfg.power),
        ]
        results = solve_stacked(members)
        for result, (m, stack, via, power) in zip(results, members):
            assert result.max_rise == m.solve(stack, via, power).max_rise

    def test_mixed_dense_sparse_batch_falls_back_to_solo_solves(self):
        # a batch class is all-dense or all-sparse by construction; a
        # hand-built mix exercises the safety net
        cfg = fig5_config(1.0)
        members = [
            (FEMReference("coarse"), cfg.stack, cfg.via, cfg.power),
            (make_model("a:paper"), cfg.stack, cfg.via, cfg.power),
        ]
        results = solve_stacked(members)
        for result, (m, stack, via, power) in zip(results, members):
            assert_results_identical(result, m.solve(stack, via, power))

    def test_empty(self):
        assert solve_stacked([]) == []


class TestStackedBatchTask:
    def _task(self, liners=(0.5, 1.0, 1.5), attempt=0):
        model = make_model("a:paper")
        members = tuple(
            (model, cfg.stack, cfg.via, cfg.power)
            for cfg in (fig5_config(t) for t in liners)
        )
        return StackedBatchTask(index=0, members=members, attempt=attempt)

    def test_serial_executor_solves_stacked(self):
        task = self._task()
        ((out_task, results),) = list(SerialExecutor().submit_stream([task]))
        assert out_task is task
        solo = [m.solve(s, v, p) for m, s, v, p in task.members]
        assert [r.max_rise for r in results] == [r.max_rise for r in solo]

    def test_parallel_executor_splits_lone_batches(self):
        task = self._task((0.5, 0.75, 1.0, 1.25, 1.5))
        executor = ParallelExecutor(2)
        sub_tasks = executor._split_groups([task])
        assert len(sub_tasks) == 2
        assert [t.offset for t in sub_tasks] == [0, 3]
        assert sum(len(t.members) for t in sub_tasks) == 5
        landed = {}
        for sub, results in executor.submit_stream([task]):
            for i, result in enumerate(results):
                landed[sub.offset + i] = result.max_rise
        serial = solve_work(task)
        assert [landed[i] for i in range(5)] == [r.max_rise for r in serial]

    def test_no_split_when_pool_saturated(self):
        tasks = [self._task((0.5, 1.0)), self._task((1.5, 2.0))]
        assert ParallelExecutor(2)._split_groups(tasks) == tasks

    def test_stacked_solve_fault_site_registered(self):
        assert "stacked-solve" in faults.SITES
        assert faults.SITE_KINDS["stacked-solve"] == ("crash", "delay", "error")

    def test_injected_error_captured_per_batch(self):
        from repro.perf.retry import TaskFailure

        faults.configure(rate=1.0, kinds=("error",), sites=("stacked-solve",))
        try:
            task = self._task()
            ((_, outcome),) = list(
                SerialExecutor().submit_stream([task], timeout_s=None)
            )
        finally:
            faults.reset()
        assert isinstance(outcome, TaskFailure)
        assert outcome.transient

    @pytest.mark.parametrize("run_id", ["fig4/fast", "fem3d_power/fast"])
    def test_failed_units_degrade_to_solo_members(
        self, run_id, cold_planned, eager_digest, golden_snapshot
    ):
        # every stacked unit fails: Model A geometry stacks in fig4, the
        # shared-matrix set of the 3-D FEM sweep in fem3d_power; their
        # members re-dispatch solo and the bytes still match the digests
        faults.configure(rate=1.0, kinds=("error",), sites=("stacked-solve",))
        try:
            payload = cold_planned(run_id)
        finally:
            faults.reset()
        counters = perf.stats()["counters"]
        assert counters["plan_stacked_batches"] >= 1
        assert counters["plan_group_degradations"] == counters["plan_stacked_batches"]
        assert golden_snapshot.payload_digest(payload) == eager_digest(run_id)


class TestStackedScheduling:
    def test_stacking_counters(self):
        spec = geometry_spec(values=(2.0, 3.0, 4.0, 5.0))
        perf.reset()
        run_scenario(spec)
        counters = perf.stats()["counters"]
        # the four model_a points assemble different matrices but share a
        # batch class, and so do the four coarse fem reference points
        # (same mesh topology, different conductivity values): two
        # stacked batches — one dense, one block-diagonal sparse
        assert counters["plan_stacked_batches"] == 2
        assert counters["plan_stacked_solves"] == 8

    def test_no_stacking_when_disabled(self):
        perf.reset()
        run_scenario(geometry_spec(), stack_batches=False)
        assert perf.stats()["counters"].get("plan_stacked_batches", 0) == 0

    def test_power_sweep_prefers_matrix_groups(self):
        # points that share a matrix form a shared-matrix set of their
        # stacked unit: the dense Model B ladder and the sparse FEM matrix
        # are each factored once and never looked up again
        spec = geometry_spec(
            scenario_id="ps_sweep",
            axis=AxisSpec(parameter="power_scale", values=(0.5, 1.0, 1.5)),
            models=("b:10",),
        )
        perf.reset()
        run_scenario(spec)
        counters = perf.stats()["counters"]
        assert counters["plan_stacked_batches"] == 2
        assert counters["plan_stacked_solves"] == 6
        assert counters["sparse_factorizations"] == 1
        factors = perf.factor_cache.stats()
        assert (factors["misses"], factors["hits"]) == (2, 0)

    def test_stacked_dispatch_under_jobs_identical(self):
        spec = geometry_spec(values=(2.0, 3.0, 4.0, 5.0, 6.0))
        perf.reset()
        serial = run_scenario(spec).result
        perf.reset()
        parallel = run_scenario(spec, executor=ParallelExecutor(2)).result
        assert serial.series == parallel.series  # exact float equality
        assert serial.errors == parallel.errors

    def test_progress_events_carry_dispatch_provenance(self, tmp_path):
        from repro.scenarios import RunStore

        # the 1-D model never stacks or groups, so its nodes keep the
        # per-point dispatch provenance next to the stacked ones
        spec = geometry_spec(values=(2.0, 3.0, 4.0), models=("a:paper", "1d"))
        store = RunStore(tmp_path / "store")
        events = []
        perf.reset()
        run_scenario(spec, store=store, progress=events.append)
        solved = [e for e in events if e["source"] == "solved"]
        assert solved and all("dispatch" in e for e in solved)
        assert {e["dispatch"] for e in solved} >= {"stacked", "point"}
        # a store/cache-satisfied node was never dispatched: no provenance
        for path in (tmp_path / "store" / "objects").glob("**/*.json"):
            path.unlink()
        events.clear()
        run_scenario(
            spec, store=RunStore(tmp_path / "store"), resume=True,
            progress=events.append,
        )
        replayed = [e for e in events if e["source"] in ("cache", "store")]
        assert replayed and all("dispatch" not in e for e in replayed)


def _normalize(obj):
    """Recursively drop wall-clock fields from a run payload."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key in ("runtimes_ms", "solve_time"):
                continue
            if key == "table_rows":  # [model, max%, avg%, time ms]
                out[key] = [row[:3] for row in value]
                continue
            out[key] = _normalize(value)
        return out
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    return obj


class TestBuiltinByteIdentity:
    @pytest.mark.parametrize("scenario_id", sorted(SCENARIOS.ids()))
    def test_stacked_vs_grouped_vs_solo_byte_identical(self, scenario_id):
        resolution = (
            None
            if scenario_id in ("fem3d_power", "case_study")
            else "coarse"
        )
        payloads = []
        # stacked units (shared matrices and stacks), then solo dispatch
        for stack_batches in (True, False):
            perf.reset()
            run = run_scenario(
                scenario_id,
                fast=True,
                fem_resolution=resolution,
                stack_batches=stack_batches,
            )
            payloads.append(
                json.dumps(
                    _normalize(run.result.to_payload()), sort_keys=True
                )
            )
        assert payloads[0] == payloads[1]


class TestVoxelFrameCache:
    def test_frames_shared_across_conductivity_changes(self):
        from repro.core.nonlinear import _stack_at_temperatures
        from repro.fem.voxelize import build_axisym_grids, build_cartesian_grids

        cfg = fig5_config(1.0)
        hot = _stack_at_temperatures(cfg.stack, (5.0, 8.0, 11.0))
        perf.reset()
        cold = build_axisym_grids(cfg.stack, cfg.via, cfg.power, nr=12, nz=30)
        warm = build_axisym_grids(hot, cfg.via, cfg.power, nr=12, nz=30)
        counters = perf.stats()["counters"]
        assert counters["voxel_frame_hits"] == 1
        assert counters["voxel_frame_misses"] == 1
        # mesh and sources identical, conductivity re-stamped
        assert np.array_equal(cold.r_edges, warm.r_edges)
        assert np.array_equal(cold.z_edges, warm.z_edges)
        assert np.array_equal(cold.source_density, warm.source_density)
        assert not np.array_equal(cold.conductivity, warm.conductivity)

        perf.reset()
        c_cold = build_cartesian_grids(
            cfg.stack, cfg.via, cfg.power, nx=10, ny=10, nz=20
        )
        c_warm = build_cartesian_grids(hot, cfg.via, cfg.power, nx=10, ny=10, nz=20)
        counters = perf.stats()["counters"]
        assert counters["voxel_frame_hits"] == 1
        assert np.array_equal(c_cold.x_edges, c_warm.x_edges)
        assert not np.array_equal(c_cold.conductivity, c_warm.conductivity)

    def test_nonlinear_fem_iterations_hit_frame_cache(self):
        from repro.core.nonlinear import NonlinearSolver

        cfg = fig5_config(1.0)
        perf.reset()
        solver = NonlinearSolver(FEMReference((10, 24)), tolerance=1e-5)
        result = solver.solve(cfg.stack, cfg.via, cfg.power)
        counters = perf.stats()["counters"]
        # the linear baseline misses once; every k(T) iterate re-stamps
        # conductivity on the cached frame
        assert counters["voxel_frame_misses"] == 1
        assert counters["voxel_frame_hits"] >= result.iterations

    def test_geometry_change_misses(self):
        from repro.fem.voxelize import build_axisym_geometry

        cfg1, cfg2 = fig5_config(1.0), fig5_config(2.0)
        perf.reset()
        build_axisym_geometry(cfg1.stack, cfg1.via, nr=12, nz=30)
        build_axisym_geometry(cfg2.stack, cfg2.via, nr=12, nz=30)
        counters = perf.stats()["counters"]
        assert counters["voxel_frame_misses"] == 2
        assert counters.get("voxel_frame_hits", 0) == 0
