"""The declarative scenario subsystem: specs, registry, runner, run store."""

import json

import pytest

from repro import perf
from repro.errors import ValidationError
from repro.scenarios.results import ExperimentResult
from repro.scenarios import (
    SCENARIOS,
    AxisSpec,
    GeometryRule,
    RunStore,
    ScenarioRegistry,
    ScenarioSpec,
    run_scenario,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    """A two-point, coarse, calibration-free sweep (fast to solve)."""
    kwargs = dict(
        scenario_id="tiny",
        title="Tiny radius sweep",
        axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0)),
        models=("1d",),
        reference="fem:coarse",
        calibrate=False,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = SCENARIOS.get("fig4")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_hash(self):
        spec = SCENARIOS.get("fig5")
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data).content_hash() == spec.content_hash()

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = spec.dump(tmp_path / "tiny.json")
        loaded = ScenarioSpec.load(path)
        assert loaded == spec
        assert loaded.content_hash() == spec.content_hash()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            ScenarioSpec.load(path)

    def test_unknown_keys_rejected(self):
        data = tiny_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(data)
        axis_bad = tiny_spec().to_dict()
        axis_bad["axis"]["step"] = 0.5
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(axis_bad)

    def test_bad_model_spec_fails_at_load(self):
        with pytest.raises(ValidationError):
            tiny_spec(models=("model_c",))
        with pytest.raises(ValidationError):
            tiny_spec(reference="fem:gigantic")

    def test_sweep_requires_axis_and_models(self):
        with pytest.raises(ValidationError):
            tiny_spec(axis=None)
        with pytest.raises(ValidationError):
            tiny_spec(models=())

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            AxisSpec(parameter="voltage", values=(1.0,))
        with pytest.raises(ValidationError):
            AxisSpec(parameter="radius_um", values=())
        with pytest.raises(ValidationError):
            AxisSpec(parameter="cluster_count", values=(1.5,))

    def test_rule_validation(self):
        with pytest.raises(ValidationError):
            GeometryRule(set={"warp_factor": 9.0}, upto=1.0)
        with pytest.raises(ValidationError):
            GeometryRule(set={"radius_um": 1.0})  # no bounds

    def test_power_keys_validated(self):
        with pytest.raises(ValidationError):
            tiny_spec(power={"laser_power": 1.0})


class TestContentHash:
    def test_stable(self):
        assert tiny_spec().content_hash() == tiny_spec().content_hash()

    def test_sensitive_to_values(self):
        base = tiny_spec()
        changed = tiny_spec(axis=AxisSpec(parameter="radius_um", values=(3.0, 6.0)))
        assert base.content_hash() != changed.content_hash()

    def test_sensitive_to_models_and_reference(self):
        base = tiny_spec()
        assert base.content_hash() != tiny_spec(models=("a:paper",)).content_hash()
        assert base.content_hash() != tiny_spec(reference="fem:fine").content_hash()

    def test_resolved_folds_overrides_into_hash(self):
        spec = SCENARIOS.get("fig4")
        fast = spec.resolved(fast=True)
        assert fast.axis.values == spec.axis.fast_values
        assert fast.content_hash() != spec.content_hash()
        coarse = spec.resolved(fem_resolution="coarse")
        assert coarse.reference == "fem:coarse"
        nocal = spec.resolved(calibrate=False)
        assert not nocal.calibrate
        assert spec.resolved() == spec


class TestRegistry:
    def test_builtin_scenarios_present(self):
        assert {"fig4", "fig5", "fig6", "fig7", "table1", "case_study"} <= set(
            SCENARIOS.ids()
        )

    def test_decorator_registration(self):
        registry = ScenarioRegistry()

        @registry.register
        def my_scenario():
            return tiny_spec(scenario_id="mine")

        assert "mine" in registry
        assert registry.get("mine").scenario_id == "mine"

    def test_duplicate_id_rejected(self):
        registry = ScenarioRegistry()
        registry.add(tiny_spec())
        with pytest.raises(ValidationError):
            registry.add(tiny_spec())
        registry.add(tiny_spec(title="Replaced"), replace=True)
        assert registry.get("tiny").title == "Replaced"

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            SCENARIOS.get("fig99")


class TestLegacyEquivalence:
    """Post-processing the legacy drivers did now happens in the scenario run."""

    def test_table1_postprocess_rows(self):
        run = run_scenario("table1", fast=True, fem_resolution="coarse", calibrate=False)
        rows = run.result.metadata["table_rows"]
        assert [r[0] for r in rows[1:]] == [
            "model_b(1)", "model_b(20)", "model_b(100)", "model_b(500)",
            "model_a", "model_1d",
        ]


class TestRunStore:
    def test_miss_then_hit(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = tiny_spec()
        first = run_scenario(spec, store=store)
        assert not first.from_store
        assert first.key in store and len(store) == 1
        assert store.keys() == [first.key]

        hits_before = perf.stats()["counters"].get("run_store_hits", 0)
        cache_misses_before = perf.stats()["caches"]["result_cache"]["misses"]
        second = run_scenario(spec, store=store)
        assert second.from_store
        assert perf.stats()["counters"]["run_store_hits"] == hits_before + 1
        # a store hit never consults the solver-level caches: nothing solved
        assert (
            perf.stats()["caches"]["result_cache"]["misses"] == cache_misses_before
        )
        assert isinstance(second.result, ExperimentResult)
        assert second.result.series == first.result.series
        assert second.result.errors == first.result.errors
        assert second.result.runtimes_ms == first.result.runtimes_ms

    def test_reopened_store_still_hits(self, tmp_path):
        spec = tiny_spec()
        run_scenario(spec, store=RunStore(tmp_path / "store"))
        again = run_scenario(spec, store=RunStore(tmp_path / "store"))
        assert again.from_store

    def test_changed_spec_misses(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_scenario(tiny_spec(), store=store)
        changed = run_scenario(tiny_spec(reference="fem:36x90"), store=store)
        assert not changed.from_store
        assert len(store) == 2

    def test_corrupt_object_is_a_healed_miss(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = tiny_spec()
        first = run_scenario(spec, store=store)
        # a killed process can no longer truncate an object (writes are
        # atomic), but disk corruption still can: get() must miss, not raise
        store._read_path(store.objects, first.key).write_text('{"series": tru')
        misses_before = perf.stats()["counters"].get("run_store_misses", 0)
        assert store.get(first.key) is None
        assert perf.stats()["counters"]["run_store_misses"] == misses_before + 1
        # the corrupt object is healed away, so a fresh store agrees
        assert first.key not in store
        assert first.key not in RunStore(tmp_path / "store")
        # and the next run re-solves and re-stores cleanly
        again = run_scenario(spec, store=store)
        assert not again.from_store
        assert first.key in store

    def test_writes_leave_no_tmp_files(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_scenario(tiny_spec(), store=store)
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []

    def test_point_round_trip_and_corruption(self, tmp_path):
        store = RunStore(tmp_path / "store")
        payload = {"model_name": "m", "max_rise": 1.25}
        store.put_point("abc123", payload)
        hits_before = perf.stats()["counters"].get("point_store_hits", 0)
        assert store.get_point("abc123") == payload
        assert perf.stats()["counters"]["point_store_hits"] == hits_before + 1
        store._read_path(store.points, "abc123").write_text("{nope")
        assert store.get_point("abc123") is None
        assert store._read_path(store.points, "abc123") is None  # healed away
        assert store.get_point("missing") is None
        assert store.point_keys() == []

    def test_unserialisable_point_payload_skipped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.put_point("bad", {"value": object()}) is None
        assert store.get_point("bad") is None
        assert perf.stats()["counters"].get("point_store_skipped", 0) >= 1


class TestScenarioFromJson:
    """A brand-new scenario defined purely as data runs end-to-end."""

    def test_json_scenario_end_to_end(self, tmp_path):
        data = {
            "scenario_id": "bank9",
            "title": "9-TSV bank, liner sweep",
            "axis": {"parameter": "cluster_count", "values": [1, 9]},
            "geometry": {"radius_um": 12.0, "liner_um": 1.0, "t_si_upper_um": 20.0},
            "models": ["a:paper", "1d"],
            "reference": "fem:coarse",
            "calibrate": False,
        }
        path = tmp_path / "bank9.json"
        path.write_text(json.dumps(data))
        store = RunStore(tmp_path / "store")
        run = run_scenario(ScenarioSpec.load(path), store=store)
        assert not run.from_store
        assert set(run.result.series) == {"model_a", "model_1d", "fem"}
        assert len(run.result.x_values) == 2
        # the Eq.-(22) cluster transform helps: ΔT falls with n
        assert run.result.series["fem"][1] < run.result.series["fem"][0]
        again = run_scenario(ScenarioSpec.load(path), store=store)
        assert again.from_store

    def test_geometry_rules_apply_piecewise(self):
        spec = tiny_spec(
            axis=AxisSpec(parameter="radius_um", values=(3.0, 8.0)),
            rules=(
                GeometryRule(set={"t_si_upper_um": 5.0}, upto=5.0),
                GeometryRule(set={"t_si_upper_um": 45.0}, above=5.0),
            ),
        )
        from repro.scenarios.plan import _configurator

        configure = _configurator(spec)
        thin_stack, _, _ = configure(3.0)
        thick_stack, _, _ = configure(8.0)
        assert thin_stack.planes[1].substrate.thickness == pytest.approx(5e-6)
        assert thick_stack.planes[1].substrate.thickness == pytest.approx(45e-6)

    def test_power_mapping(self):
        spec = tiny_spec(power={"plane_powers": (1.0, 2.0, 3.0), "ild_fraction": 0.2})
        from repro.scenarios.plan import _power_spec

        power = _power_spec(spec)
        assert power.plane_powers == (1.0, 2.0, 3.0)
        assert power.ild_fraction == 0.2


class TestShippedExample:
    def test_custom_scenario_json_runs(self, tmp_path):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "examples" / "custom_scenario.json"
        spec = ScenarioSpec.load(path)
        assert spec.scenario_id == "tsv_bank_9"
        run = run_scenario(spec, fast=True, store=RunStore(tmp_path / "store"))
        assert set(run.result.series) >= {"model_a", "model_a_cal", "model_1d", "fem"}
        assert run.result.x_values == [1, 9]
        again = run_scenario(spec, fast=True, store=RunStore(tmp_path / "store"))
        assert again.from_store


class TestCaseStudyScenario:
    def test_case_study_store_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = run_scenario(
            "case_study", fast=True, fem_resolution="coarse", calibrate=False,
            store=store,
        )
        assert not first.from_store
        second = run_scenario(
            "case_study", fast=True, fem_resolution="coarse", calibrate=False,
            store=store,
        )
        assert second.from_store
        assert second.result.rises() == first.result.report.rises()
        # the store-served view must render the same table as the live run
        # (guards StoredCaseStudy against drifting from CaseStudyExperiment)
        assert second.result.rows() == first.result.rows()

    def test_fast_segments_match_content_hash(self):
        # a case-study spec below the fast threshold must actually run at
        # its own segment count under --fast (same content hash => same run)
        spec = SCENARIOS.get("case_study")
        small = spec.resolved(calibrate=False, fem_resolution="coarse")
        from dataclasses import replace

        small = replace(small, model_b_segments=50)
        assert small.resolved(fast=True) == small  # hash-identical
        run = run_scenario(small, fast=True)
        assert run.result.metadata["model_b_segments"] == 50
        assert "model_b(50)" in run.result.report.rises()


class TestPayloadRoundTrip:
    def test_experiment_result_from_payload_exact(self):
        result = run_scenario(
            "fig7", fast=True, fem_resolution="coarse", calibrate=False
        ).result
        payload = json.loads(json.dumps(result.to_payload()))
        loaded = ExperimentResult.from_payload(payload)
        assert loaded.series == result.series
        assert loaded.errors == result.errors  # exact, via the raw fractions
        assert loaded.x_values == result.x_values
        assert loaded.runtimes_ms == result.runtimes_ms
        assert loaded.table_text() == result.table_text()

    def test_from_payload_rejects_legacy_percent_only(self):
        from repro.errors import ExperimentError

        result = run_scenario(
            "fig7", fast=True, fem_resolution="coarse", calibrate=False
        ).result
        payload = result.to_payload()
        del payload["errors"]  # pre-store payloads had only errors_pct
        with pytest.raises(ExperimentError, match="malformed experiment payload"):
            ExperimentResult.from_payload(json.loads(json.dumps(payload)))

    def test_stored_case_study_needs_its_title(self):
        from repro.errors import ExperimentError
        from repro.scenarios import StoredCaseStudy

        payload = {"title": "t", "rises": {"fem": 1.0}}
        assert StoredCaseStudy(payload).title == "t"
        del payload["title"]
        with pytest.raises(ExperimentError, match="malformed case-study payload"):
            StoredCaseStudy(payload)

    def test_malformed_payload(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            ExperimentResult.from_payload({"experiment_id": "x"})
