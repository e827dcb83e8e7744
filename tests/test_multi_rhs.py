"""Shared-matrix solves: multi-RHS identity, shared-matrix sets of the
stacked tier, calibration-fit caching and the power_scale axis."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro import perf
from repro.core.base import solve_stacked
from repro.core.factory import make_model
from repro.errors import SolverError, ValidationError
from repro.experiments.params import fig5_config
from repro.fem import (
    FEMReference,
    assemble_axisymmetric,
    assemble_cartesian,
    build_axisym_grids,
    build_cartesian_grids,
    solve_axisymmetric,
    solve_cartesian,
)
from repro.geometry import PowerSpec, TSVCluster
from repro.network.solve import (
    BandedCholesky,
    factorize,
    solve_linear_system,
    solve_linear_system_multi,
    solve_sparse,
    solve_sparse_multi,
)
from repro.perf import ParallelExecutor, SerialExecutor, StackedBatchTask, solve_work
from repro.scenarios import SCENARIOS, AxisSpec, ScenarioSpec, run_scenario
from repro.scenarios.plan import _configurator


def _spd_sparse(n: int, seed: int = 0) -> sp.csr_matrix:
    rng = np.random.RandomState(seed)
    a = sp.random(n, n, density=0.05, random_state=rng, format="csr")
    return (a + a.T + sp.diags(np.full(n, 10.0))).tocsr()


def _rhs_block(n: int, k: int, seed: int = 1) -> np.ndarray:
    return np.random.RandomState(seed).randn(n, k)


def power_scale_spec(scenario_id="ps_sweep", values=(0.5, 1.0, 1.5), **overrides):
    kwargs = dict(
        scenario_id=scenario_id,
        title="Power-scale sweep",
        axis=AxisSpec(parameter="power_scale", values=values),
        models=("1d",),
        reference="fem:coarse",
        calibrate=False,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSolveMulti:
    def test_sparse_columns_bitwise_equal_single_solves(self):
        matrix = _spd_sparse(400)
        block = _rhs_block(400, 5)
        multi = solve_sparse_multi(matrix, block)
        for j in range(block.shape[1]):
            assert np.array_equal(multi[:, j], solve_sparse(matrix, block[:, j]))
        # the identity holds for the default factor, a banded Cholesky
        assert isinstance(factorize(matrix).__self__, BandedCholesky)

    def test_dense_columns_bitwise_equal_single_solves(self):
        rng = np.random.RandomState(2)
        a = rng.randn(60, 60)
        matrix = a @ a.T + 60.0 * np.eye(60)
        block = _rhs_block(60, 4)
        multi = solve_linear_system_multi(matrix, block)
        for j in range(block.shape[1]):
            assert np.array_equal(
                multi[:, j], solve_linear_system(matrix, block[:, j])
            )

    def test_small_sparse_matrix_dispatches_dense(self):
        matrix = _spd_sparse(50)
        block = _rhs_block(50, 3)
        multi = solve_linear_system_multi(matrix, block)
        for j in range(block.shape[1]):
            assert np.array_equal(
                multi[:, j], solve_linear_system(matrix, block[:, j])
            )

    def test_cg_path_columns_match_single_solves(self, monkeypatch):
        import repro.network.solve as solve_mod

        monkeypatch.setattr(solve_mod, "ITERATIVE_CUTOFF", 10)
        matrix = _spd_sparse(300)
        block = _rhs_block(300, 3)
        multi = solve_sparse_multi(matrix, block)
        for j in range(block.shape[1]):
            assert np.array_equal(multi[:, j], solve_sparse(matrix, block[:, j]))

    def test_factorizes_once(self, factorizations):
        perf.reset()
        matrix = _spd_sparse(400)
        solve_sparse_multi(matrix, _rhs_block(400, 6))
        assert factorizations == [400]  # one factorization for six columns
        assert perf.counter("sparse_factorizations") == 1

    def test_singular_matrix_raises(self):
        from repro.errors import SingularNetworkError

        matrix = sp.csr_matrix((300, 300))  # all-zero: exactly singular
        with pytest.raises(SingularNetworkError):
            solve_sparse_multi(matrix, _rhs_block(300, 2))

    def test_nonfinite_guard_names_columns(self, monkeypatch):
        import repro.network.solve as solve_mod

        def bad_factorize(matrix):
            def solve(rhs):
                out = np.zeros(rhs.shape[0])
                out[0] = np.inf
                return out

            return solve

        monkeypatch.setattr(solve_mod, "factorize", bad_factorize)
        with pytest.raises(SolverError, match=r"column\(s\) \[0, 1\]"):
            solve_sparse_multi(_spd_sparse(300), _rhs_block(300, 2))

    def test_one_dimensional_rhs_rejected(self):
        with pytest.raises(SolverError, match="block"):
            solve_sparse_multi(_spd_sparse(300), np.ones(300))

    def test_empty_block_returns_empty(self):
        out = solve_sparse_multi(_spd_sparse(300), np.empty((300, 0)))
        assert out.shape == (300, 0)


class TestFEMMultiSolvers:
    """One assembled FEM matrix against many source grids, the way a
    shared-matrix set solves it: column ``i`` equals the solo solve."""

    def test_axisym_multi_bitwise_equals_single(self):
        cfg = fig5_config(1.0)
        grids = build_axisym_grids(cfg.stack, cfg.via, cfg.power, nr=20, nz=50)
        sources = [grids.source_density * s for s in (0.5, 1.0, 2.0)]
        matrix, volume = assemble_axisymmetric(
            grids.r_edges, grids.z_edges, grids.conductivity
        )
        block = np.column_stack([(q * volume).ravel() for q in sources])
        multi = solve_sparse_multi(matrix, block)
        for j, source in enumerate(sources):
            single = solve_axisymmetric(
                grids.r_edges, grids.z_edges, grids.conductivity, source
            )
            assert np.array_equal(
                multi[:, j].reshape(volume.shape), single.temperatures
            )

    def test_cartesian_multi_bitwise_equals_single(self):
        cfg = fig5_config(1.0)
        grids = build_cartesian_grids(
            cfg.stack, cfg.via, cfg.power, nx=10, ny=10, nz=20
        )
        sources = [grids.source_density * s for s in (0.5, 1.5)]
        matrix, volume = assemble_cartesian(
            grids.x_edges, grids.y_edges, grids.z_edges, grids.conductivity
        )
        multi = solve_sparse_multi(
            matrix, np.column_stack([(q * volume).ravel() for q in sources])
        )
        for j, source in enumerate(sources):
            single = solve_cartesian(
                grids.x_edges, grids.y_edges, grids.z_edges,
                grids.conductivity, source,
            )
            assert np.array_equal(
                multi[:, j].reshape(volume.shape), single.temperatures
            )

    def test_empty_source_list(self):
        assert FEMReference("coarse").assemble_batch([]) == []


def assert_results_identical(batched, individual):
    assert batched.max_rise == individual.max_rise
    assert batched.plane_rises == individual.plane_rises
    assert batched.n_unknowns == individual.n_unknowns
    assert batched.model_name == individual.model_name
    assert batched.metadata == individual.metadata


def stacked(model, stack, via, powers):
    """One geometry under many powers as one stacked unit."""
    return solve_stacked([(model, stack, via, power) for power in powers])


class TestFEMReferenceBatch:
    def powers(self, base, scales=(0.5, 1.0, 1.5)):
        return [base.scaled(s) for s in scales]

    def test_axisym_batch_identical_to_per_point(self):
        cfg = fig5_config(1.0)
        model = FEMReference("coarse")
        powers = self.powers(cfg.power)
        members = [(model, cfg.stack, cfg.via, p) for p in powers]
        # one geometry: one shared matrix object, so one factor
        assert len({id(s.matrix) for s in model.assemble_batch(members)}) == 1
        batched = stacked(model, cfg.stack, cfg.via, powers)
        for result, power in zip(batched, powers):
            assert_results_identical(result, model.solve(cfg.stack, cfg.via, power))

    def test_axisym_cluster_batch_identical(self):
        cfg = fig5_config(1.0)
        model = FEMReference("coarse")
        cluster = TSVCluster(cfg.via, 4)
        powers = self.powers(cfg.power, (0.5, 1.25))
        batched = stacked(model, cfg.stack, cluster, powers)
        for result, power in zip(batched, powers):
            assert_results_identical(result, model.solve(cfg.stack, cluster, power))

    def test_cartesian_batch_identical_to_per_point(self):
        cfg = fig5_config(1.0)
        model = FEMReference((10, 10, 20), solver="cartesian")
        powers = self.powers(cfg.power, (0.75, 1.0))
        batched = stacked(model, cfg.stack, cfg.via, powers)
        for result, power in zip(batched, powers):
            assert_results_identical(result, model.solve(cfg.stack, cfg.via, power))

    def test_network_model_default_batch_loops_solve(self):
        cfg = fig5_config(1.0)
        model = make_model("a:paper")
        powers = self.powers(cfg.power)
        batched = model.solve_batch(cfg.stack, cfg.via, powers)
        for result, power in zip(batched, powers):
            single = model.solve(cfg.stack, cfg.via, power)
            assert result.max_rise == single.max_rise
            assert result.plane_rises == single.plane_rises

    def test_empty_batch(self):
        assert solve_stacked([]) == []

    def test_batch_validates_geometry(self):
        from repro.errors import GeometryError
        from repro.geometry import paper_tsv

        cfg = fig5_config(1.0)
        huge = paper_tsv(radius=cfg.stack.footprint_side)  # cannot fit
        with pytest.raises(GeometryError):
            stacked(FEMReference("coarse"), cfg.stack, huge, self.powers(cfg.power))


class TestAssemblyKey:
    def test_power_independent(self):
        cfg = fig5_config(1.0)
        model = FEMReference("coarse")
        key = model.assembly_key(cfg.stack, cfg.via)
        assert key is not None
        # the key ignores power entirely (it has no power argument); two
        # sweep points differing only in power share it by construction
        assert key == model.assembly_key(cfg.stack, cfg.via)

    def test_geometry_and_resolution_change_key(self):
        cfg1, cfg2 = fig5_config(1.0), fig5_config(2.0)
        model = FEMReference("coarse")
        assert model.assembly_key(cfg1.stack, cfg1.via) != model.assembly_key(
            cfg2.stack, cfg2.via
        )
        assert FEMReference("coarse").assembly_key(
            cfg1.stack, cfg1.via
        ) != FEMReference("medium").assembly_key(cfg1.stack, cfg1.via)

    def test_cluster_normalisation(self):
        cfg = fig5_config(1.0)
        model = FEMReference("coarse")
        assert model.assembly_key(cfg.stack, cfg.via) == model.assembly_key(
            cfg.stack, TSVCluster(cfg.via, 1)
        )
        assert model.assembly_key(cfg.stack, cfg.via) != model.assembly_key(
            cfg.stack, TSVCluster(cfg.via, 4)
        )

    def test_lumped_network_models_opt_out(self):
        # Model A and the 1-D baseline stay per-point; Model B's π-segment
        # matrix is power-independent and declares an assembly since PR 5
        cfg = fig5_config(1.0)
        for spec in ("a:paper", "1d"):
            assert make_model(spec).assembly_key(cfg.stack, cfg.via) is None
        assert make_model("b:10").assembly_key(cfg.stack, cfg.via) is not None

    def test_model_b_assembly_key_semantics(self):
        cfg1, cfg2 = fig5_config(1.0), fig5_config(2.0)
        model = make_model("b:10")
        # power-independent, geometry- and configuration-dependent
        assert model.assembly_key(cfg1.stack, cfg1.via) == make_model(
            "b:10"
        ).assembly_key(cfg1.stack, cfg1.via)
        assert model.assembly_key(cfg1.stack, cfg1.via) != model.assembly_key(
            cfg2.stack, cfg2.via
        )
        assert model.assembly_key(cfg1.stack, cfg1.via) != make_model(
            "b:20"
        ).assembly_key(cfg1.stack, cfg1.via)
        # cluster-normalised like the FEM keys
        assert model.assembly_key(cfg1.stack, cfg1.via) == model.assembly_key(
            cfg1.stack, TSVCluster(cfg1.via, 1)
        )


class TestMatrixGroupTask:
    """A stacked unit holding one shared-matrix set, through the executors."""

    def _group(self, powers):
        cfg = fig5_config(1.0)
        model = FEMReference("coarse")
        return StackedBatchTask(
            index=0,
            members=tuple(
                (model, cfg.stack, cfg.via, cfg.power.scaled(s)) for s in powers
            ),
        )

    def test_serial_executor_solves_groups(self):
        task = self._group((0.5, 1.0))
        ((out_task, results),) = list(SerialExecutor().submit_stream([task]))
        assert out_task is task
        assert len(results) == 2
        assert results[0].max_rise < results[1].max_rise

    def test_parallel_executor_solves_groups(self):
        task = self._group((0.5, 1.0))
        serial = solve_work(task)
        parallel = {
            id(t): results
            for t, results in ParallelExecutor(2).submit_stream(
                [task, self._group((1.5, 2.0))]
            )
        }
        assert [r.max_rise for r in parallel[id(task)]] == [
            r.max_rise for r in serial
        ]

    def _two_groups(self, powers):
        """One unit holding two geometries: two shared-matrix sets."""
        model = FEMReference("coarse")
        half = (len(powers) + 1) // 2
        return StackedBatchTask(
            index=0,
            members=tuple(
                (model, cfg.stack, cfg.via, cfg.power.scaled(s))
                for cfg, s in zip(
                    [fig5_config(1.0)] * half
                    + [fig5_config(2.0)] * (len(powers) - half),
                    powers,
                )
            ),
        )

    def test_parallel_executor_splits_large_groups(self):
        # a lone big unit must not serialise onto one worker: the
        # executor splits it into per-worker sub-units with offsets
        task = self._two_groups((0.5, 0.75, 1.0, 1.25, 1.5))
        executor = ParallelExecutor(2)
        sub_tasks = executor._split_groups([task])
        assert len(sub_tasks) == 2
        assert [t.offset for t in sub_tasks] == [0, 3]
        assert sum(len(t.members) for t in sub_tasks) == 5
        # streamed results realign with the original member order
        landed = {}
        for sub, results in executor.submit_stream([task]):
            for i, result in enumerate(results):
                landed[sub.offset + i] = result.max_rise
        serial = solve_work(task)
        assert [landed[i] for i in range(5)] == [r.max_rise for r in serial]

    def test_no_split_when_pool_already_saturated(self):
        # two units with jobs=2: workers are busy either way, and every
        # extra sub-unit would re-factorise in a cold worker for nothing
        tasks = [self._group((0.5, 1.0, 1.5)), self._group((2.0, 2.5))]
        assert ParallelExecutor(2)._split_groups(tasks) == tasks

    def test_split_fills_idle_workers_only(self):
        task = self._two_groups((0.5, 0.75, 1.0, 1.25, 1.5, 1.75))
        sub_tasks = ParallelExecutor(3)._split_groups([task])
        assert len(sub_tasks) == 3
        assert [t.offset for t in sub_tasks] == [0, 2, 4]

    def test_one_shared_matrix_stays_whole(self):
        # every sub-unit would factor the one matrix again in its worker
        task = self._group((0.5, 0.75, 1.0, 1.25, 1.5, 1.75))
        assert ParallelExecutor(3)._split_groups([task]) == [task]

    def test_serial_executor_never_splits(self):
        task = self._group((0.5, 1.0, 1.5))
        ((out_task, results),) = list(SerialExecutor().submit_stream([task]))
        assert out_task is task and len(results) == 3


class TestGroupedScheduling:
    def test_grouping_counters(self, factorizations):
        spec = power_scale_spec(values=(0.5, 1.0, 1.5, 2.0))
        perf.reset()
        run_scenario(spec)
        counters = perf.stats()["counters"]
        # the four fem reference solves share one matrix: one stacked
        # unit, one factor; the 1d solves stay points
        assert counters["plan_stacked_batches"] == 1
        assert counters["plan_stacked_solves"] == 4
        assert counters["plan_point_solves"] == 8
        assert counters["sparse_factorizations"] == 1
        assert len(factorizations) == 1

    def test_no_grouping_when_disabled(self):
        perf.reset()
        run_scenario(power_scale_spec(), stack_batches=False)
        counters = perf.stats()["counters"]
        assert counters.get("plan_stacked_batches", 0) == 0

    def test_geometry_sweep_has_no_groups(self, factorizations):
        from repro.scenarios.plan import compile_plan

        spec = power_scale_spec(
            scenario_id="radius_sweep",
            axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0)),
        )
        fem = [
            node
            for node in compile_plan([spec.resolved()]).nodes.values()
            if node.model_name == "fem"
        ]
        # every radius assembles its own matrix: no point shares a factor
        assert len({node.assembly_key for node in fem}) == 2
        perf.reset()
        run_scenario(spec)
        # no cross-matrix sparse stack: one banded factor per matrix
        assert perf.counter("plan_stacked_solves") == 0
        assert len(factorizations) == 2
        assert perf.counter("sparse_factorizations") == 2

    def test_coarse_sweep_factors_each_distinct_matrix_once(self, factorizations):
        from repro.scenarios import run_batch
        from repro.scenarios.plan import compile_plan

        specs = [
            power_scale_spec(
                scenario_id="radius_sweep",
                axis=AxisSpec(parameter="radius_um", values=(2.0, 3.0, 5.0, 8.0)),
            ),
            power_scale_spec(values=(0.5, 1.0, 2.0)),
        ]
        plan = compile_plan([spec.resolved() for spec in specs])
        distinct = {
            node.assembly_key
            for node in plan.nodes.values()
            if node.model_name == "fem"
        }
        assert len(distinct) >= 4
        perf.reset()
        run_batch(specs)
        counters = perf.stats()["counters"]
        assert counters["sparse_factorizations"] == len(distinct)
        assert len(factorizations) == len(distinct)
        assert "sparse_factor_fallbacks" not in counters

    @staticmethod
    def _strip_wallclock(payload):
        """Drop wall-clock runtimes: two live runs always differ there."""
        payload.pop("runtimes_ms")
        table_rows = payload.get("metadata", {}).get("table_rows")
        if table_rows:  # table1: [model, max%, avg%, time ms] — drop time
            payload["metadata"]["table_rows"] = [
                row[:3] for row in table_rows
            ]
        return payload

    @pytest.mark.parametrize(
        "scenario_id",
        ["fig4", "fig5", "fig6", "fig7", "table1", "fem3d_power"],
    )
    def test_builtin_grouped_vs_ungrouped_byte_identical(self, scenario_id):
        # fem3d_power keeps its own (small) explicit mesh; the classic
        # figures drop to the coarse preset for speed
        resolution = None if scenario_id == "fem3d_power" else "coarse"
        perf.reset()
        grouped = run_scenario(
            scenario_id, fast=True, fem_resolution=resolution
        )
        perf.reset()
        ungrouped = run_scenario(
            scenario_id, fast=True, fem_resolution=resolution,
            stack_batches=False,
        )
        pg = self._strip_wallclock(grouped.result.to_payload())
        pu = self._strip_wallclock(ungrouped.result.to_payload())
        # both runs solved live, so wall-clock runtimes were dropped;
        # everything numeric must match bit-for-bit
        assert json.dumps(pg, sort_keys=True) == json.dumps(pu, sort_keys=True)

    def test_group_dispatch_under_jobs_identical(self):
        spec = power_scale_spec(values=(0.5, 1.0, 1.5, 2.0))
        perf.reset()
        serial = run_scenario(spec).result
        perf.reset()
        parallel = run_scenario(spec, executor=ParallelExecutor(2)).result
        assert serial.series == parallel.series  # exact float equality
        assert serial.errors == parallel.errors

    def test_grouped_nodes_land_in_store(self, tmp_path):
        from repro.scenarios import RunStore
        from repro.scenarios.plan import compile_plan

        spec = power_scale_spec()
        store = RunStore(tmp_path / "store")
        perf.reset()
        run_scenario(spec, store=store)
        # every node (grouped fem + ungrouped 1d) persisted
        plan = compile_plan([spec.resolved()])
        assert len(store.point_keys()) == plan.stats["nodes_total"]
        # a resumed rerun without the run-level artifact reads every
        # grouped solve back from the point space
        for path in (tmp_path / "store" / "objects").glob("**/*.json"):
            path.unlink()
        perf.reset()
        run_scenario(spec, store=RunStore(tmp_path / "store"), resume=True)
        counters = perf.stats()["counters"]
        assert counters.get("plan_point_solves", 0) == 0
        assert counters["point_store_hits"] == plan.stats["nodes_total"]


class TestFem3dScenario:
    def test_registered(self):
        assert "fem3d_power" in SCENARIOS.ids()
        spec = SCENARIOS.get("fem3d_power")
        assert spec.reference.startswith("fem3d:")
        assert spec.axis.parameter == "power_scale"

    def test_sweep_is_one_stacked_unit_with_one_factor(self, factorizations):
        # both fem3d nodes of `run fem3d_power --fast` dispatch as one
        # stacked unit, whose shared matrix is factored once (per-point
        # solves would factor it once per point)
        from repro.scenarios.plan import compile_plan

        spec = SCENARIOS.get("fem3d_power").resolved(fast=True)
        fem3d = {
            key
            for key, node in compile_plan([spec]).nodes.items()
            if node.model_name == "fem3d"
        }
        assert len(fem3d) == 2
        events = []
        perf.reset()
        run_scenario("fem3d_power", fast=True, progress=events.append)
        dispatch = [e.get("dispatch") for e in events if e["key"] in fem3d]
        assert dispatch == ["stacked", "stacked"]
        counters = perf.stats()["counters"]
        assert counters["plan_stacked_batches"] > 0
        # the only sparse matrix: the network models solve dense
        assert counters["sparse_factorizations"] == 1
        assert len(factorizations) == 1

    def test_power_scale_series_scales_linearly(self):
        run = run_scenario("fem3d_power", fast=True)
        values = run.result.x_values
        fem = run.result.series["fem3d"]
        # steady-state conduction is linear in the heat load
        ratio = fem[1] / fem[0]
        assert ratio == pytest.approx(values[1] / values[0], rel=1e-9)


class TestCalibrationReuse:
    """A calibration fit is reused across runs only through the run store."""

    def test_planned_repeat_skips_fit(self, tmp_path):
        from repro.scenarios import RunStore

        spec = power_scale_spec(
            scenario_id="fit_cache_sweep",
            axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0)),
            calibrate=True,
            calibration_samples=2,
        )
        store = RunStore(tmp_path / "store")
        perf.reset()
        run_scenario(spec, store=store, resume=True)
        assert perf.stats()["counters"]["plan_calibrations"] == 1
        run_scenario(spec, store=store, resume=True)
        assert perf.stats()["counters"]["plan_calibrations"] == 1  # no refit


class TestPowerScaleAxis:
    def test_axis_accepts_power_scale(self):
        axis = AxisSpec(parameter="power_scale", values=(0.5, 1.0))
        assert axis.x_label == "power scale"
        with pytest.raises(ValidationError):
            AxisSpec(parameter="power_scale", values=(0.0,))

    def test_spec_round_trips(self):
        spec = power_scale_spec()
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_configurator_scales_power_only(self):
        spec = power_scale_spec(values=(0.5, 2.0)).resolved()
        configure = _configurator(spec)
        stack1, via1, power1 = configure(0.5)
        stack2, via2, power2 = configure(2.0)
        assert stack1 == stack2 and via1 == via2
        assert power2.device_power_density == pytest.approx(
            4.0 * power1.device_power_density
        )

    def test_power_spec_scaled(self):
        base = PowerSpec(
            plane_powers=(70.0, 7.0, 7.0), ild_fraction=0.2,
        )
        scaled = base.scaled(0.5)
        assert scaled.plane_powers == (35.0, 3.5, 3.5)
        assert scaled.ild_fraction == 0.2
        assert PowerSpec().scaled(2.0).device_power_density == pytest.approx(
            2.0 * PowerSpec().device_power_density
        )
        with pytest.raises(ValidationError):
            base.scaled(-1.0)
        with pytest.raises(ValidationError):
            base.scaled(True)
