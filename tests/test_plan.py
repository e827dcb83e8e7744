"""Execution-plan compiler + scheduler: dedup, byte-equivalence, resume."""

import json

import pytest

from repro import perf
from repro.errors import ExperimentError
from repro.perf import ParallelExecutor
from repro.scenarios import (
    SCENARIOS,
    AxisSpec,
    RunStore,
    ScenarioSpec,
    compile_plan,
    execute_plan,
    run_batch,
    run_scenario,
)
from repro.scenarios.plan import (
    CalibrationNode,
    CaseStudyNode,
    SolveNode,
    assemble_scenario,
)
from repro.scenarios.store import parse_artifact


def tiny_spec(scenario_id="plan_tiny", models=("1d",), calibrate=False, **overrides):
    kwargs = dict(
        scenario_id=scenario_id,
        title="Tiny plan sweep",
        axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0)),
        models=models,
        reference="fem:coarse",
        calibrate=calibrate,
        calibration_samples=2,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def shared_calibration_pair():
    """Two scenarios identical up to their model lists: the reference
    solves, the coefficient fit and the calibrated-model solves are all
    shared between them."""
    return [
        tiny_spec(scenario_id="shared_a", models=("1d",), calibrate=True),
        tiny_spec(scenario_id="shared_b", models=("a:paper",), calibrate=True),
    ]


class TestCompile:
    def test_uncalibrated_node_count(self):
        plan = compile_plan([tiny_spec().resolved()])
        # 2 values x (1 model + 1 reference)
        assert plan.stats["solve_nodes"] == 4
        assert plan.stats["calibrate_nodes"] == 0
        assert plan.stats["nodes_deduped"] == 0
        assert all(isinstance(n, SolveNode) for n in plan.nodes.values())

    def test_calibrated_adds_fit_and_cal_solves(self):
        plan = compile_plan([tiny_spec(calibrate=True).resolved()])
        # 4 concrete solves + 2 calibrated-model solves + the fit itself
        assert plan.stats["solve_nodes"] == 6
        assert plan.stats["calibrate_nodes"] == 1
        cal = next(
            n for n in plan.nodes.values() if isinstance(n, CalibrationNode)
        )
        # the fit's dependencies are the sweep's own reference nodes
        entry = plan.scenarios[0]
        ref_keys = entry.assembly.node_keys["fem"]
        assert set(cal.sample_keys) <= set(ref_keys)
        # calibrated solve nodes depend on the fit
        cal_solves = [
            n
            for n in plan.nodes.values()
            if isinstance(n, SolveNode) and n.calibration is not None
        ]
        assert len(cal_solves) == 2
        assert all(n.deps == (cal.key,) for n in cal_solves)
        assert all(n.model is None for n in cal_solves)

    def test_cross_scenario_dedup(self):
        plan = compile_plan([s.resolved() for s in shared_calibration_pair()])
        # per scenario: 2 ref + 2 model + 1 fit + 2 cal solves = 7;
        # shared between them: 2 ref + 1 fit + 2 cal solves = 5
        assert plan.stats["nodes_total"] == 9
        assert plan.stats["nodes_deduped"] == 5
        assert len(plan.scenarios) == 2

    def test_solve_keys_match_result_cache_keys(self):
        from repro.core.factory import make_model
        from repro.perf import solve_key
        from repro.scenarios.plan import _configurator

        spec = tiny_spec().resolved()
        plan = compile_plan([spec])
        configure = _configurator(spec)
        stack, via, power = configure(3.0)
        expected = solve_key(make_model("1d"), stack, via, power)
        assert expected in plan.nodes

    def test_duplicate_model_names_rejected(self):
        spec = tiny_spec(models=("fem:coarse",))  # collides with the reference
        with pytest.raises(ExperimentError):
            compile_plan([spec.resolved()])

    def test_case_study_compiles_to_one_node(self):
        spec = SCENARIOS.get("case_study").resolved(
            fast=True, fem_resolution="coarse", calibrate=False
        )
        plan = compile_plan([spec])
        assert plan.stats["case_study_nodes"] == 1
        assert plan.stats["solve_nodes"] == 0
        (node,) = plan.nodes.values()
        assert isinstance(node, CaseStudyNode)
        assert plan.scenarios[0].node_key == node.key


class TestScheduling:
    def test_execute_and_assemble_matches_run_scenario(self):
        spec = tiny_spec(calibrate=True).resolved()
        plan = compile_plan([spec])
        outcome = execute_plan(plan)
        result = assemble_scenario(plan.scenarios[0], outcome.results)
        via_runner = run_scenario(spec).result
        assert result.series == via_runner.series
        assert result.errors == via_runner.errors

    def test_shared_nodes_solved_exactly_once(self):
        perf.reset()
        batch = run_batch([s for s in shared_calibration_pair()])
        counters = perf.stats()["counters"]
        assert batch.stats["nodes_deduped"] == 5
        # every unique solve node dispatched exactly once, the shared fit
        # computed exactly once
        assert counters["plan_point_solves"] == batch.stats["solve_nodes"] == 8
        assert counters["plan_calibrations"] == 1
        assert counters["plan_nodes_deduped"] == 5

    def test_progress_callback_sees_every_node(self):
        perf.reset()
        events = []
        spec = tiny_spec(calibrate=True)
        run_scenario(spec, progress=events.append)
        plan = compile_plan([spec.resolved()])
        assert len(events) == plan.stats["nodes_total"]
        assert events[-1]["done"] == events[-1]["total"]
        assert {e["source"] for e in events} <= {"solved", "cache", "store"}

    def test_streaming_parallel_executor_identical(self):
        spec = tiny_spec(models=("1d", "a:paper"), calibrate=True)
        perf.reset()
        serial = run_scenario(spec).result
        assert perf.stats()["counters"]["plan_point_solves"] > 0
        perf.reset()
        parallel = run_scenario(spec, executor=ParallelExecutor(2)).result
        assert perf.stats()["counters"]["plan_point_solves"] > 0
        assert serial.series == parallel.series  # exact float equality
        assert serial.errors == parallel.errors


class TestPlannedEqualsEager:
    """Planned payloads are byte-identical to the eager reference path's.

    That path is deleted; the digests of its cold payloads are pinned in
    ``tests/golden/builtin_digests.json`` (see ``tests/test_golden.py``,
    which checks every builtin serially).  Here the planned side runs on
    two worker processes.
    """

    @pytest.mark.parametrize(
        "scenario_id", ["fig4", "fig5", "fig6", "fig7", "table1"]
    )
    def test_builtin_sweeps_byte_identical(
        self, scenario_id, cold_planned, eager_digest, golden_snapshot
    ):
        run_id = f"{scenario_id}/fast"
        want = eager_digest(run_id)
        payload = cold_planned(run_id, executor=ParallelExecutor(2))
        assert golden_snapshot.payload_digest(payload) == want

    def test_case_study_identical_up_to_wallclock(
        self, cold_planned, eager_digest, golden_snapshot
    ):
        # the digest leaves out the recorded wall-clock runtimes
        want = eager_digest("case_study/fast")
        payload = cold_planned("case_study/fast", executor=ParallelExecutor(2))
        assert golden_snapshot.payload_digest(payload) == want


class TestResume:
    def _wipe_run_level(self, store_root):
        for path in (store_root / "objects").glob("**/*.json"):
            path.unlink()

    def test_resume_skips_stored_points(self, tmp_path):
        specs = shared_calibration_pair()
        store = RunStore(tmp_path / "store")
        first = run_batch(specs, store=store)
        assert len(store.point_keys()) == first.stats["nodes_total"]

        # simulate a batch killed after solving everything but before the
        # run-level artifacts landed: point space survives, runs don't
        self._wipe_run_level(tmp_path / "store")
        perf.reset()  # cold caches, as in a fresh process
        resumed = run_batch(specs, store=RunStore(tmp_path / "store"), resume=True)
        counters = perf.stats()["counters"]
        assert counters.get("plan_point_solves", 0) == 0
        assert counters["point_store_hits"] == resumed.stats["nodes_total"]
        assert resumed.stats["store"] == resumed.stats["nodes_total"]
        # byte-identical to the original run (solve times round-trip)
        for a, b in zip(first.runs, resumed.runs):
            assert json.dumps(a.result.to_payload(), sort_keys=True) == json.dumps(
                b.result.to_payload(), sort_keys=True
            )

    def test_partial_resume_solves_only_missing_points(self, tmp_path):
        specs = shared_calibration_pair()
        store = RunStore(tmp_path / "store")
        run_batch(specs, store=store)
        self._wipe_run_level(tmp_path / "store")
        # lose one solved point (pick a model solve, not the calibration)
        victim = next(
            p
            for p in (tmp_path / "store" / "points").glob("**/*.json")
            if "model_name" in parse_artifact(p.read_text())
        )
        victim.unlink()
        perf.reset()
        run_batch(specs, store=RunStore(tmp_path / "store"), resume=True)
        assert perf.stats()["counters"]["plan_point_solves"] == 1

    def test_without_resume_points_are_not_read(self, tmp_path):
        spec = tiny_spec()
        store = RunStore(tmp_path / "store")
        batch = run_batch([spec], store=store)
        self._wipe_run_level(tmp_path / "store")
        perf.reset()
        rerun = run_batch([spec], store=RunStore(tmp_path / "store"))
        counters = perf.stats()["counters"]
        assert counters["plan_point_solves"] == rerun.stats["solve_nodes"]
        assert counters.get("point_store_hits", 0) == 0
        assert batch.runs[0].result.series == rerun.runs[0].result.series

    def test_corrupt_point_is_resolved(self, tmp_path):
        spec = tiny_spec()
        store = RunStore(tmp_path / "store")
        run_batch([spec], store=store)
        self._wipe_run_level(tmp_path / "store")
        for path in (tmp_path / "store" / "points").glob("**/*.json"):
            path.write_text("{truncated")
        perf.reset()
        rerun = run_batch([spec], store=RunStore(tmp_path / "store"), resume=True)
        counters = perf.stats()["counters"]
        assert counters["plan_point_solves"] == rerun.stats["solve_nodes"]
        assert counters.get("point_store_hits", 0) == 0


class TestPartialBatchFailure:
    def test_persistent_failure_quarantines_instead_of_unwinding(
        self, tmp_path, monkeypatch
    ):
        from repro.core.model_1d import Model1D
        from repro.errors import SolverError
        from repro.perf import RetryPolicy

        ok = tiny_spec(scenario_id="ok_first")
        bad = tiny_spec(
            scenario_id="fails_second",
            axis=AxisSpec(parameter="radius_um", values=(3.0, 7.0)),
        )
        real_solve = Model1D.solve

        def failing_solve(self, stack, via, power):
            if abs(via.radius - 7e-6) < 1e-12:
                raise SolverError("injected failure at r=7um")
            return real_solve(self, stack, via, power)

        monkeypatch.setattr(Model1D, "solve", failing_solve)
        perf.reset()
        store = RunStore(tmp_path / "store")
        batch = run_batch(
            [ok, bad],
            store=store,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        good, failed = batch.runs
        assert not good.failed and good.result is not None
        assert failed.failed and failed.result is None
        assert {f.error_class for f in failed.failures} == {"SolverError"}
        assert all(f.attempts == 2 for f in failed.failures)
        # the healthy scenario's artifact landed; the failed one did not,
        # and its quarantine records are in the store's ledger
        assert ok.resolved().content_hash() in store
        assert bad.resolved().content_hash() not in store
        assert set(store.failure_keys()) == {f.key for f in failed.failures}
        counters = perf.stats()["counters"]
        assert counters["plan_quarantined"] == len(failed.failures)
        assert counters["plan_retries"] >= 1


class TestSingleScenarioStore:
    def test_run_scenario_with_store_writes_points(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run = run_scenario(tiny_spec(), store=store)
        assert not run.from_store
        plan = compile_plan([tiny_spec().resolved()])
        assert len(store.point_keys()) == plan.stats["nodes_total"]
        # and the run-level hit still short-circuits everything
        again = run_scenario(tiny_spec(), store=store)
        assert again.from_store
