"""Physics kinds: transient/nonlinear specs, plans, scheduling and storage."""

import json

import numpy as np
import pytest

from repro import perf
from repro.__main__ import main
from repro.core.factory import make_model
from repro.core.nonlinear import NonlinearResult, NonlinearSolver
from repro.errors import ValidationError
from repro.network import (
    TransientResult,
    pulse_train_scales,
    step_response,
    transient_lhs,
)
from repro.network.solve import factorized_solver
from repro.scenarios import (
    SCENARIOS,
    AxisSpec,
    NonlinearParams,
    RunStore,
    ScenarioSpec,
    TransientParams,
    build_transient_circuit,
    compile_plan,
    execute_plan,
    run_batch,
    run_nonlinear_spec_direct,
    run_scenario,
    run_transient_spec_direct,
)
from repro.scenarios.physics import (
    NonlinearExperiment,
    TransientExperiment,
    default_observed_nodes,
)
from repro.scenarios.plan import (
    NonlinearNode,
    SolveNode,
    TransientNode,
    scenario_axis_points,
)


def transient_spec(scenario_id="phys_transient", **overrides):
    kwargs = dict(
        scenario_id=scenario_id,
        title="Transient test",
        kind="transient",
        models=("a:paper",),
        calibrate=False,
        transient=TransientParams(t_end_s=1e-3, n_steps=40),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def nonlinear_spec(scenario_id="phys_nonlinear", **overrides):
    kwargs = dict(
        scenario_id=scenario_id,
        title="Nonlinear test",
        kind="nonlinear",
        models=("a:paper",),
        calibrate=False,
        nonlinear=NonlinearParams(tolerance=1e-8),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def nonlinear_payload_content(payload):
    """The deterministic slice of a nonlinear payload (solve_time dropped)."""
    return {
        "series": payload["series"],
        "x_values": payload["x_values"],
        "results": {
            name: [
                (
                    r["history"],
                    r["iterations"],
                    r["result"]["max_rise"],
                    r["result"]["plane_rises"],
                )
                for r in results
            ]
            for name, results in payload["results"].items()
        },
    }


# ---------------------------------------------------------------------------
# spec validation and round-trip
# ---------------------------------------------------------------------------
class TestSpecValidation:
    def test_transient_requires_params(self):
        with pytest.raises(ValidationError, match="transient"):
            ScenarioSpec(
                scenario_id="x", title="t", kind="transient",
                models=("a:paper",), calibrate=False,
            )

    def test_nonlinear_requires_params(self):
        with pytest.raises(ValidationError, match="nonlinear"):
            ScenarioSpec(
                scenario_id="x", title="t", kind="nonlinear",
                models=("a:paper",), calibrate=False,
            )

    def test_physics_kinds_reject_calibration(self):
        with pytest.raises(ValidationError, match="calibrate"):
            transient_spec(calibrate=True)
        with pytest.raises(ValidationError, match="calibrate"):
            nonlinear_spec(calibrate=True)

    def test_transient_models_must_be_model_a(self):
        with pytest.raises(ValidationError, match="Model A"):
            transient_spec(models=("b:100",))

    def test_params_rejected_on_wrong_kind(self):
        with pytest.raises(ValidationError, match="only apply"):
            ScenarioSpec(
                scenario_id="x", title="t",
                axis=AxisSpec(parameter="radius_um", values=(5.0,)),
                transient=TransientParams(t_end_s=1e-3),
            )
        with pytest.raises(ValidationError, match="only apply"):
            ScenarioSpec(
                scenario_id="x", title="t",
                axis=AxisSpec(parameter="radius_um", values=(5.0,)),
                nonlinear=NonlinearParams(),
            )

    def test_postprocess_rejected_on_physics_kinds(self):
        with pytest.raises(ValidationError, match="postprocess"):
            transient_spec(postprocess="table1")

    def test_transient_param_bounds(self):
        with pytest.raises(ValidationError):
            TransientParams(t_end_s=0.0)
        with pytest.raises(ValidationError):
            TransientParams(t_end_s=1e-3, n_steps=0)
        with pytest.raises(ValidationError):
            TransientParams(t_end_s=1e-3, capacitance="per_resistor")
        with pytest.raises(ValidationError):
            TransientParams(t_end_s=1e-3, power_scale=0.0)
        with pytest.raises(ValidationError):
            TransientParams(t_end_s=1e-3, observe=("bulk1", ""))

    def test_nonlinear_param_bounds(self):
        with pytest.raises(ValidationError):
            NonlinearParams(tolerance=0.0)
        with pytest.raises(ValidationError):
            NonlinearParams(max_iterations=0)
        with pytest.raises(ValidationError):
            NonlinearParams(relaxation=0.0)
        with pytest.raises(ValidationError):
            NonlinearParams(relaxation=1.5)

    def test_unknown_param_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            TransientParams.from_dict({"t_end_s": 1e-3, "dt": 1.0})
        with pytest.raises(ValidationError, match="unknown"):
            NonlinearParams.from_dict({"tol": 1.0})


class TestSpecRoundTrip:
    def test_transient_dict_round_trip(self):
        spec = transient_spec(
            axis=AxisSpec(parameter="radius_um", values=(2.0, 5.0)),
            transient=TransientParams(
                t_end_s=2e-3, n_steps=100, capacitance="substrate_ild",
                power_scale=3.0, observe=("bulk3",),
            ),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_nonlinear_dict_round_trip(self):
        spec = nonlinear_spec(
            nonlinear=NonlinearParams(
                tolerance=1e-9, max_iterations=50, relaxation=0.7, slope_scale=2.0
            ),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_file_round_trip(self, tmp_path):
        spec = transient_spec()
        path = spec.dump(tmp_path / "t.json")
        assert ScenarioSpec.load(path) == spec

    def test_content_hash_tracks_physics_params(self):
        base = transient_spec()
        changed = transient_spec(
            transient=TransientParams(t_end_s=1e-3, n_steps=41)
        )
        assert base.content_hash() != changed.content_hash()
        assert nonlinear_spec().content_hash() != nonlinear_spec(
            nonlinear=NonlinearParams(tolerance=1e-8, slope_scale=2.0)
        ).content_hash()

    def test_builtin_physics_scenarios_registered(self):
        assert "transient_spike" in SCENARIOS
        assert "nonlinear_hotspot" in SCENARIOS
        assert SCENARIOS.get("transient_spike").kind == "transient"
        assert SCENARIOS.get("nonlinear_hotspot").kind == "nonlinear"


def assert_shared_factor_identical(specs):
    """Same-network drive levels share one C/dt + G factor through the
    factor cache, and their trajectories equal cold per-drive runs."""
    perf.reset()
    shared = execute_plan(compile_plan(specs))
    assert perf.factor_cache.stats()["misses"] == 1
    assert perf.factor_cache.stats()["hits"] == len(specs) - 1
    alone = {}
    for spec in specs:
        perf.reset()
        alone.update(execute_plan(compile_plan([spec])).results)
    assert shared.results.keys() == alone.keys()
    for key in alone:
        assert np.array_equal(
            shared.results[key].temperatures, alone[key].temperatures
        )


def transient_lhs_count(nodes, params):
    """How many distinct C/dt + G matrices the trajectories integrate."""
    dt = params.t_end_s / params.n_steps
    return len(
        {
            perf.matrix_fingerprint(
                transient_lhs(n.model._circuit(n.stack, n.via, n.power), dt)
            )
            for n in nodes
        }
    )


def pulse_params(**overrides):
    kwargs = dict(
        t_end_s=1e-3, n_steps=40, drive="pulse_train", period_s=2e-4, duty=0.5
    )
    kwargs.update(overrides)
    return TransientParams(**kwargs)


class TestDriveShapes:
    def test_drive_grammar_bounds(self):
        with pytest.raises(ValidationError, match="drive"):
            TransientParams(t_end_s=1e-3, drive="sawtooth")
        with pytest.raises(ValidationError, match="period_s and duty"):
            TransientParams(t_end_s=1e-3, drive="pulse_train", period_s=1e-4)
        with pytest.raises(ValidationError, match="period_s and duty"):
            TransientParams(t_end_s=1e-3, drive="pulse_train", duty=0.5)
        with pytest.raises(ValidationError, match="period_s"):
            pulse_params(period_s=0.0)
        with pytest.raises(ValidationError, match="duty"):
            pulse_params(duty=0.0)
        with pytest.raises(ValidationError, match="duty"):
            pulse_params(duty=1.5)
        with pytest.raises(ValidationError, match="pulse_train"):
            TransientParams(t_end_s=1e-3, period_s=1e-4)
        with pytest.raises(ValidationError, match="pulse_train"):
            TransientParams(t_end_s=1e-3, duty=0.5)

    def test_step_spec_serialization_unchanged(self):
        # the grammar extension must not disturb existing specs: a step
        # drive serializes without the drive keys, so stored content
        # hashes from before the extension still match
        data = TransientParams(t_end_s=1e-3, n_steps=40).to_dict()
        assert "drive" not in data
        assert "period_s" not in data
        assert TransientParams.from_dict(data).drive == "step"

    def test_pulse_train_dict_round_trip(self):
        spec = transient_spec(transient=pulse_params())
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()
        assert spec.content_hash() != transient_spec().content_hash()

    def test_pulse_train_scales_square_wave(self):
        scales = pulse_train_scales(8.0, 8, 4.0, 0.5)
        assert np.array_equal(
            scales, [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        )
        with pytest.raises(ValidationError, match="duty"):
            pulse_train_scales(8.0, 8, 4.0, 1.5)

    def test_duty_one_pulse_is_bitwise_step_response(self):
        step = run_transient_spec_direct(transient_spec())
        pulse = run_transient_spec_direct(
            transient_spec(transient=pulse_params(duty=1.0, period_s=1e-3))
        )
        for name, trajectories in step.results.items():
            for solo, driven in zip(trajectories, pulse.results[name]):
                assert np.array_equal(solo.temperatures, driven.temperatures)

    def test_drive_rejects_wrong_length_and_negative_scales(self):
        spec = transient_spec()
        params = spec.transient
        stack, via, power = scenario_axis_points(spec)[2][0]
        circuit = build_transient_circuit(
            make_model("a:paper"), stack, via, power, params.capacitance
        )
        with pytest.raises(ValidationError, match="one scale per step"):
            step_response(
                circuit, t_end=1e-3, n_steps=40, drive=np.ones(39)
            )
        with pytest.raises(ValidationError, match="finite"):
            step_response(
                circuit, t_end=1e-3, n_steps=40, drive=np.full(40, -1.0)
            )

    def test_pulse_planned_equals_direct(self):
        spec = transient_spec(
            scenario_id="pulse_planned",
            axis=AxisSpec(parameter="radius_um", values=(3.0, 6.0)),
            transient=pulse_params(),
        ).resolved()
        direct = run_transient_spec_direct(spec)
        perf.reset()
        run = run_scenario(spec)
        assert run.result.to_payload() == direct.to_payload()

    def test_pulse_grouped_and_ungrouped_identical(self):
        specs = [
            transient_spec(
                scenario_id=f"pulse_g_{s}",
                transient=pulse_params(power_scale=s),
            ).resolved()
            for s in (1.0, 2.0)
        ]
        assert_shared_factor_identical(specs)

    def test_off_phase_cools_and_peak_stays_below_step(self):
        # 40 steps of 25µs; period 200µs, duty 0.5 → 4 steps on, 4 off
        step = run_transient_spec_direct(transient_spec())
        pulse = run_transient_spec_direct(
            transient_spec(transient=pulse_params(period_s=2e-4, duty=0.5))
        )
        for name, trajectories in pulse.results.items():
            for driven, solo in zip(trajectories, step.results[name]):
                trace = driven.temperatures.max(axis=1)
                # cooling during the first off-phase (steps 5..8)
                assert trace[8] < trace[4]
                # and re-heating once the drive returns (steps 9..12)
                assert trace[12] > trace[8]
                assert driven.peak_rise <= solo.peak_rise


# ---------------------------------------------------------------------------
# solver-module round-trips and refactor hooks
# ---------------------------------------------------------------------------
class TestResultPayloads:
    def _trajectory(self):
        spec = transient_spec()
        _, _, points = scenario_axis_points(spec)
        stack, via, power = points[0]
        circuit = build_transient_circuit(
            make_model("a:paper"), stack, via, power
        )
        return step_response(circuit, t_end=1e-3, n_steps=20)

    def test_transient_result_round_trip_exact(self):
        result = self._trajectory()
        restored = TransientResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert np.array_equal(restored.times, result.times)
        assert np.array_equal(restored.temperatures, result.temperatures)
        assert restored.nodes == result.nodes

    def test_transient_payload_rejects_tuple_nodes(self):
        result = self._trajectory()
        bad = TransientResult(
            times=result.times, temperatures=result.temperatures,
            nodes=[("a", 1)] * len(result.nodes),
        )
        with pytest.raises(ValidationError):
            bad.to_payload()

    def test_observed_subset_is_exact(self):
        result = self._trajectory()
        sub = result.observed(["bulk2", "bulk1"])
        assert sub.nodes == ["bulk2", "bulk1"]
        assert np.array_equal(sub.trace("bulk2"), result.trace("bulk2"))
        with pytest.raises(ValidationError):
            result.observed(["no_such_node"])

    def test_nonlinear_result_round_trip_exact(self):
        spec = nonlinear_spec()
        _, _, points = scenario_axis_points(spec)
        result = NonlinearSolver(make_model("a:paper"), tolerance=1e-8).solve(
            *points[0]
        )
        restored = NonlinearResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert restored.history == result.history
        assert restored.iterations == result.iterations
        assert restored.max_rise == result.max_rise
        assert restored.result.plane_rises == result.result.plane_rises

    def test_step_solver_hook_is_bit_identical(self):
        spec = transient_spec()
        _, _, points = scenario_axis_points(spec)
        stack, via, power = points[0]
        circuit = build_transient_circuit(make_model("a:paper"), stack, via, power)
        plain = step_response(circuit, t_end=1e-3, n_steps=20)
        solver = factorized_solver(transient_lhs(circuit, 1e-3 / 20))
        seeded = step_response(
            circuit, t_end=1e-3, n_steps=20, step_solver=solver
        )
        assert np.array_equal(plain.temperatures, seeded.temperatures)

    def test_nonlinear_initial_seed_is_bit_identical(self):
        spec = nonlinear_spec()
        _, _, points = scenario_axis_points(spec)
        stack, via, power = points[0]
        model = make_model("a:paper")
        solver = NonlinearSolver(model, tolerance=1e-8)
        plain = solver.solve(stack, via, power)
        seeded = solver.solve(
            stack, via, power, initial=model.solve(stack, via, power)
        )
        assert seeded.history == plain.history
        assert seeded.result.plane_rises == plain.result.plane_rises

    def test_slope_scale_zero_recovers_linear(self):
        spec = nonlinear_spec()
        _, _, points = scenario_axis_points(spec)
        result = NonlinearSolver(
            make_model("a:paper"), tolerance=1e-8, slope_scale=0.0
        ).solve(*points[0])
        assert result.max_rise == result.linear_rise
        assert result.iterations == 1

    def test_slope_scale_strengthens_feedback(self):
        spec = nonlinear_spec()
        _, _, points = scenario_axis_points(spec)
        mild = NonlinearSolver(make_model("a:paper"), tolerance=1e-8).solve(
            *points[0]
        )
        strong = NonlinearSolver(
            make_model("a:paper"), tolerance=1e-8, slope_scale=3.0
        ).solve(*points[0])
        # silicon k falls with T, so stronger slopes mean hotter stacks
        assert strong.max_rise > mild.max_rise > mild.linear_rise


# ---------------------------------------------------------------------------
# plan compilation
# ---------------------------------------------------------------------------
class TestCompile:
    def test_transient_nodes_and_assembly(self):
        spec = transient_spec(
            axis=AxisSpec(parameter="radius_um", values=(3.0, 6.0))
        ).resolved()
        plan = compile_plan([spec])
        assert plan.stats["transient_nodes"] == 2
        assert plan.stats["solve_nodes"] == 0
        nodes = [n for n in plan.nodes.values() if isinstance(n, TransientNode)]
        # different radii -> different networks -> different C/dt + G
        assert transient_lhs_count(nodes, spec.transient) == 2
        assert all(n.deps == () for n in nodes)
        entry = plan.scenarios[0]
        assert entry.physics is not None and entry.physics.kind == "transient"
        assert entry.physics.model_names == ("transient(model_a)",)

    def test_transient_drive_levels_share_assembly(self):
        specs = [
            transient_spec(
                scenario_id=f"drive_{s}",
                transient=TransientParams(t_end_s=1e-3, n_steps=40, power_scale=s),
            ).resolved()
            for s in (1.0, 2.0)
        ]
        plan = compile_plan(specs)
        nodes = [n for n in plan.nodes.values() if isinstance(n, TransientNode)]
        assert len(nodes) == 2  # different drives: distinct nodes...
        assert transient_lhs_count(nodes, specs[0].transient) == 1  # ...one matrix

    def test_nonlinear_nodes_depend_on_linear_baseline(self):
        spec = nonlinear_spec(
            axis=AxisSpec(parameter="power_scale", values=(1.0, 2.0))
        ).resolved()
        plan = compile_plan([spec])
        assert plan.stats["nonlinear_nodes"] == 2
        assert plan.stats["solve_nodes"] == 2  # the linear baselines
        for node in plan.nodes.values():
            if isinstance(node, NonlinearNode):
                assert node.deps == (node.linear,)
                assert isinstance(plan.nodes[node.linear], SolveNode)

    def test_mixed_batch_dedups_linear_baseline_with_steady_sweep(self):
        # the steady sweep solves model_a at the same (stack, via, power)
        # points the nonlinear scenario's baselines need -> shared nodes
        steady = ScenarioSpec(
            scenario_id="steady_share", title="t",
            axis=AxisSpec(parameter="power_scale", values=(1.0, 2.0)),
            models=("a:paper",), reference="fem:coarse", calibrate=False,
        ).resolved()
        nl = nonlinear_spec(
            axis=AxisSpec(parameter="power_scale", values=(1.0, 2.0))
        ).resolved()
        plan = compile_plan([steady, nl])
        assert plan.stats["nodes_deduped"] == 2  # both baselines shared
        transient = transient_spec().resolved()
        mixed = compile_plan([steady, nl, transient, SCENARIOS.get(
            "case_study").resolved(fast=True, calibrate=False)])
        kinds = {n.kind for n in mixed.nodes.values()}
        assert kinds == {"solve", "nonlinear", "transient", "case_study"}


# ---------------------------------------------------------------------------
# execution: byte-identity, grouping, parallel dispatch
# ---------------------------------------------------------------------------
class TestExecution:
    def test_transient_planned_equals_direct(self):
        spec = SCENARIOS.get("transient_spike").resolved(fast=True)
        direct = run_transient_spec_direct(spec, fast=True)
        perf.reset()
        run = run_scenario("transient_spike", fast=True)
        assert run.result.to_payload() == direct.to_payload()

    def test_nonlinear_planned_equals_direct(self):
        spec = SCENARIOS.get("nonlinear_hotspot").resolved(fast=True)
        direct = run_nonlinear_spec_direct(spec, fast=True)
        perf.reset()
        run = run_scenario("nonlinear_hotspot", fast=True)
        assert nonlinear_payload_content(
            run.result.to_payload()
        ) == nonlinear_payload_content(direct.to_payload())

    def test_grouped_and_ungrouped_transient_identical(self):
        specs = [
            transient_spec(
                scenario_id=f"g_{s}",
                transient=TransientParams(t_end_s=1e-3, n_steps=40, power_scale=s),
            ).resolved()
            for s in (1.0, 2.0, 3.0)
        ]
        assert_shared_factor_identical(specs)

    def test_parallel_dispatch_identical(self):
        from repro.perf import ParallelExecutor

        spec = transient_spec(
            axis=AxisSpec(parameter="radius_um", values=(3.0, 6.0))
        ).resolved()
        nl = nonlinear_spec(scenario_id="par_nl").resolved()
        perf.reset()
        serial = run_batch([spec, nl])
        perf.reset()
        parallel = run_batch([spec, nl], executor=ParallelExecutor(2))
        assert serial.runs[0].result.to_payload() == (
            parallel.runs[0].result.to_payload()
        )
        assert nonlinear_payload_content(
            serial.runs[1].result.to_payload()
        ) == nonlinear_payload_content(parallel.runs[1].result.to_payload())

    def test_mixed_batch_each_node_solved_once(self):
        steady = ScenarioSpec(
            scenario_id="once_steady", title="t",
            axis=AxisSpec(parameter="power_scale", values=(1.0, 2.0)),
            models=("a:paper",), reference="fem:coarse", calibrate=False,
        )
        nl = nonlinear_spec(
            scenario_id="once_nl",
            axis=AxisSpec(parameter="power_scale", values=(1.0, 2.0)),
        )
        tr = transient_spec(scenario_id="once_tr")
        perf.reset()
        batch = run_batch([steady, nl, tr])
        stats = batch.stats
        assert stats["nodes_deduped"] == 2
        counters = perf.stats()["counters"]
        dispatchable = (
            stats["solve_nodes"]
            + stats["transient_nodes"]
            + stats["nonlinear_nodes"]
        )
        assert counters["plan_point_solves"] == dispatchable
        assert counters["plan_transient_solves"] == stats["transient_nodes"]
        assert counters["plan_nonlinear_solves"] == stats["nonlinear_nodes"]


# ---------------------------------------------------------------------------
# store round-trips and resume
# ---------------------------------------------------------------------------
class TestStoreAndResume:
    def test_experiment_payload_round_trips(self):
        spec = transient_spec().resolved()
        direct = run_transient_spec_direct(spec)
        restored = TransientExperiment.from_payload(
            json.loads(json.dumps(direct.to_payload()))
        )
        assert restored.to_payload() == direct.to_payload()

        nl_direct = run_nonlinear_spec_direct(nonlinear_spec().resolved())
        nl_restored = NonlinearExperiment.from_payload(
            json.loads(json.dumps(nl_direct.to_payload()))
        )
        assert nl_restored.to_payload() == nl_direct.to_payload()

    def test_run_store_hit_reconstructs_kind(self, tmp_path):
        store = RunStore(tmp_path)
        first = run_scenario("transient_spike", fast=True, store=store)
        assert not first.from_store
        again = run_scenario("transient_spike", fast=True, store=store)
        assert again.from_store
        assert isinstance(again.result, TransientExperiment)
        assert again.result.to_payload() == first.result.to_payload()

        nl_first = run_scenario("nonlinear_hotspot", fast=True, store=store)
        nl_again = run_scenario("nonlinear_hotspot", fast=True, store=store)
        assert nl_again.from_store
        assert isinstance(nl_again.result, NonlinearExperiment)
        assert nl_again.result.to_payload() == nl_first.result.to_payload()

    def test_resume_after_killed_transient_batch(self, tmp_path):
        spec = transient_spec(
            axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0, 8.0))
        )
        store = RunStore(tmp_path)

        class Killed(RuntimeError):
            pass

        def kill_after_two(event):
            if event["done"] == 2:
                raise Killed()

        perf.reset()
        with pytest.raises(Killed):
            run_batch([spec], store=store, progress=kill_after_two)
        assert len(store.point_keys()) == 2
        assert len(store) == 0  # no run-level artifact landed

        perf.reset()
        run = run_batch([spec], store=store, resume=True).runs[0]
        counters = perf.stats()["counters"]
        assert counters["point_store_hits"] == 2
        assert counters["plan_point_solves"] == 1  # only the third trajectory
        # the resumed payload is byte-identical to an uninterrupted run
        direct = run_transient_spec_direct(spec.resolved())
        assert run.result.to_payload() == direct.to_payload()

    def test_resume_nonlinear_from_points(self, tmp_path):
        spec = nonlinear_spec()
        store = RunStore(tmp_path)
        run_batch([spec], store=store)
        # drop the run-level artifact, keep the points: recompiles + resumes
        store._read_path(store.objects, spec.resolved().content_hash()).unlink()
        perf.reset()
        run = run_batch([spec], store=store, resume=True).runs[0]
        counters = perf.stats()["counters"]
        assert counters.get("plan_point_solves", 0) == 0
        assert nonlinear_payload_content(
            run.result.to_payload()
        ) == nonlinear_payload_content(
            run_nonlinear_spec_direct(spec.resolved()).to_payload()
        )


# ---------------------------------------------------------------------------
# Model B shared-matrix sets
# ---------------------------------------------------------------------------
class TestModelBGroups:
    def test_solve_batch_matches_per_point(self):
        from repro.core.base import solve_stacked
        from repro.experiments.params import fig5_config

        cfg = fig5_config(1.0)
        model = make_model("b:50,500,500")  # sparse: past the dense cutoff
        powers = [cfg.power.scaled(s) for s in (0.5, 1.0, 2.0)]
        perf.reset()
        batch = solve_stacked([(model, cfg.stack, cfg.via, p) for p in powers])
        assert perf.stats()["counters"]["sparse_factorizations"] == 1
        for result, power in zip(batch, powers):
            single = model.solve(cfg.stack, cfg.via, power)
            assert result.max_rise == single.max_rise
            assert result.plane_rises == single.plane_rises
            assert result.node_temperatures == single.node_temperatures
            assert result.metadata == single.metadata

    def test_power_sweep_rides_grouped_dispatch(self):
        spec = ScenarioSpec(
            scenario_id="b_group", title="t",
            axis=AxisSpec(parameter="power_scale", values=(0.5, 1.0, 1.5)),
            models=("b:20,200,200",), reference="fem:coarse", calibrate=False,
        ).resolved()
        perf.reset()
        grouped = execute_plan(compile_plan([spec]))
        counters = perf.stats()["counters"]
        # no batch class past the dense cutoff: the shared matrix forms the unit
        assert counters["plan_stacked_batches"] >= 1
        perf.reset()
        ungrouped = execute_plan(compile_plan([spec]), stack_batches=False)
        model_b_keys = [
            key
            for key, node in compile_plan([spec]).nodes.items()
            if node.model_name.startswith("model_b")
        ]
        assert model_b_keys
        for key in model_b_keys:
            assert grouped.results[key].max_rise == ungrouped.results[key].max_rise
            assert (
                grouped.results[key].plane_rises
                == ungrouped.results[key].plane_rises
            )


# ---------------------------------------------------------------------------
# CLI (satellite): kind awareness + --progress json
# ---------------------------------------------------------------------------
class TestCLI:
    def test_run_transient_via_cli(self, capsys, tmp_path):
        code = main(
            ["run", "transient_spike", "--fast", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "transient(model_a)" in out and "t90" in out
        payload = json.loads((tmp_path / "transient_spike.json").read_text())
        assert payload["kind"] == "transient"

    def test_run_nonlinear_via_cli(self, capsys):
        code = main(["run", "nonlinear_hotspot", "--fast"])
        assert code == 0
        assert "nonlinear(model_a)" in capsys.readouterr().out

    def test_progress_json_stream(self, capsys):
        code = main(["run", "transient_spike", "--fast", "--progress", "json"])
        assert code == 0
        err_lines = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        events = [json.loads(line) for line in err_lines]
        node_events = [e for e in events if e["event"] == "node"]
        assert node_events, "expected one JSON event per completed node"
        for event in node_events:
            assert event["kind"] == "transient"
            assert event["source"] in ("solved", "cache", "store")
            assert event["elapsed_s"] >= 0.0
            assert event["total"] >= event["done"] >= 1
        assert events[-1]["event"] == "done"

    def test_list_shows_kind_column(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kind" in out
        assert "transient" in out and "nonlinear" in out

    def test_batch_mixed_kinds(self, capsys, tmp_path):
        transient_spec(scenario_id="batch_tr").dump(tmp_path / "a.json")
        nonlinear_spec(scenario_id="batch_nl").dump(tmp_path / "b.json")
        code = main(["batch", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[batch_tr] solved" in out
        assert "[batch_nl] solved" in out


class TestObservedNodes:
    def test_observe_restricts_stored_trace(self):
        spec = transient_spec(
            transient=TransientParams(
                t_end_s=1e-3, n_steps=40, observe=("bulk3",)
            ),
        )
        run = run_scenario(spec)
        result = run.result.result_at("transient(model_a)", "base")
        assert result.nodes == ["bulk3"]
        # the kept trace is bitwise the full solve's trace of that node
        full_spec = transient_spec(scenario_id="full_obs")
        full = run_scenario(full_spec).result.result_at(
            "transient(model_a)", "base"
        )
        assert np.array_equal(result.trace("bulk3"), full.trace("bulk3"))

    def test_default_observe_is_plane_bulks(self):
        spec = transient_spec().resolved()
        _, _, points = scenario_axis_points(spec)
        assert default_observed_nodes(points[0][0]) == ("bulk1", "bulk2", "bulk3")
