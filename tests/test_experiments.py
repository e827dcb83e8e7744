"""The paper experiments end-to-end (coarse mesh) against the paper's claims."""

import json
import math

import pytest

from repro import perf
from repro.__main__ import main
from repro.analysis import crossover_points, is_monotonic
from repro.experiments import case_study, paper_facts, render_markdown
from repro.scenarios.results import ExperimentResult
from repro.experiments.table1_segments import rows_from_fig5
from repro.scenarios import SCENARIOS, compile_plan, run_batch, run_scenario
from repro.scenarios.plan import SolveNode


def _run(scenario_id, *, fast):
    return run_scenario(
        scenario_id, fem_resolution="coarse", calibrate=False, fast=fast
    ).result


@pytest.fixture(scope="module")
def fig5_result():
    return _run("fig5", fast=True)


@pytest.fixture(scope="module")
def calibrated():
    """Figs. 4–7 with the recalibrated Model A, as one batch."""
    batch = run_batch(
        ["fig4", "fig5", "fig6", "fig7"], fem_resolution="coarse", fast=True
    )
    return {run.spec.scenario_id: run.result for run in batch.runs}


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("fig4", fast=True)

    def test_series_present(self, result):
        assert {"model_a", "model_b(100)", "model_1d", "fem"} <= set(result.series)

    def test_all_fall_with_radius_at_fixed_substrate(self, result):
        # monotone within each substrate-thickness regime (r <= 5 / r > 5)
        for name, ys in result.series.items():
            thin = [y for x, y in zip(result.x_values, ys) if x <= 5.0]
            thick = [y for x, y in zip(result.x_values, ys) if x > 5.0]
            assert is_monotonic(thin, increasing=False), name
            assert is_monotonic(thick, increasing=False), name

    def test_model_b_tracks_fem_better_than_1d(self, result):
        assert (
            result.errors["model_b(100)"].avg_error
            < result.errors["model_1d"].avg_error
        )

    def test_table_and_plot_render(self, result):
        assert "radius" in result.table_text()
        assert "legend" in result.plot_text()

    def test_payload_serialisable(self, result):
        import json

        json.dumps(result.to_payload())


class TestFig5Table1:
    def test_fem_sees_liner_effect_1d_does_not(self, fig5_result):
        fem = fig5_result.series["fem"]
        one_d = fig5_result.series["model_1d"]
        fem_spread = (max(fem) - min(fem)) / min(fem)
        d_spread = (max(one_d) - min(one_d)) / min(one_d)
        assert fem_spread > 0.05  # the paper: up to 11 %
        assert d_spread < fem_spread / 3.0

    def test_model_b_error_falls_with_segments(self, fig5_result):
        errs = [
            fig5_result.errors[f"model_b({n})"].avg_error for n in (1, 20, 100, 500)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[3] <= errs[2] * 1.2  # saturating

    def test_model_b_runtime_grows(self):
        # B(1) against B(500) at one Fig. 5 point, each the best of five
        # cold solves taken in turn, so one slow reading cannot decide it
        spec = SCENARIOS.get("fig5").resolved(
            fast=True, fem_resolution="coarse", calibrate=False
        )
        solves = [
            node
            for node in compile_plan([spec]).nodes.values()
            if isinstance(node, SolveNode)
        ]
        b1 = next(node for node in solves if node.model_name == "model_b(1)")
        b500 = next(
            node
            for node in solves
            if node.model_name == "model_b(500)"
            and (node.stack, node.via, node.power) == (b1.stack, b1.via, b1.power)
        )
        best = {b1.model_name: math.inf, b500.model_name: math.inf}
        for _ in range(5):
            for node in (b1, b500):
                perf.reset()  # no factor reuse: each solve is timed whole
                result = node.model.solve(node.stack, node.via, node.power)
                best[node.model_name] = min(best[node.model_name], result.solve_time)
        assert best["model_b(500)"] > best["model_b(1)"]

    def test_table1_rows_order(self, fig5_result):
        result = _run("table1", fast=True)
        rows = rows_from_fig5(fig5_result)
        assert [r[0] for r in rows[1:]] == [
            "model_b(1)", "model_b(20)", "model_b(100)", "model_b(500)",
            "model_a", "model_1d",
        ]
        # the same errors as the Fig. 5 sweep; only the time column differs
        assert [r[:3] for r in result.metadata["table_rows"]] == [
            r[:3] for r in rows
        ]


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("fig6", fast=False)

    def test_fem_non_monotonic(self, result):
        assert crossover_points(result.x_values, result.series["fem"])

    def test_models_a_b_non_monotonic(self, result):
        assert crossover_points(result.x_values, result.series["model_a"])
        assert crossover_points(result.x_values, result.series["model_b(100)"])

    def test_1d_monotonic(self, result):
        assert is_monotonic(result.series["model_1d"], increasing=True)

    def test_fem_minimum_inside_paper_range(self, result):
        fem = result.series["fem"]
        x_min = result.x_values[fem.index(min(fem))]
        low, high = paper_facts.FIG6_MINIMUM_RANGE_UM
        assert low < x_min < high


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return _run("fig7", fast=False)

    def test_models_fall_with_n(self, result):
        for name in ("model_a", "model_b(100)", "fem"):
            assert is_monotonic(result.series[name], increasing=False), name

    def test_1d_flat(self, result):
        ys = result.series["model_1d"]
        assert (max(ys) - min(ys)) / min(ys) < 0.02

    def test_model_a_error_small(self, result):
        # the paper: 1 % average for Model A on this sweep
        assert result.errors["model_a"].avg_error < 0.20


class TestCaseStudyExperiment:
    @pytest.fixture(scope="class")
    def recalibrated(self):
        return case_study.run(fem_resolution="coarse", fast=True, recalibrate=True)

    def test_runs_with_recalibration(self, recalibrated):
        exp = recalibrated
        rises = exp.report.rises()
        assert rises["model_1d"] > rises["fem"] * 1.5
        assert exp.recalibrated is not None
        # the recalibrated model must track our FEM closely
        assert exp.recalibrated_rise == pytest.approx(rises["fem"], rel=0.10)
        assert len(exp.rows()) == 6

    def test_calibration_time_is_reported_beside_the_papers(self, recalibrated):
        runtimes = recalibrated.to_payload()["runtimes_ms"]
        paper_s = paper_facts.CASE_STUDY_RUNTIMES["model_a_calibration"]
        assert 0.0 < runtimes["model_a_calibration"] < paper_s * 1e3
        recal_row = recalibrated.rows()[-1]
        assert recal_row[2] == runtimes["model_a_calibration"]

    def test_payload(self):
        exp = case_study.run(fem_resolution="coarse", fast=True, recalibrate=False)
        payload = exp.to_payload()
        assert payload["experiment_id"] == "case_study"
        assert "recalibrated" not in payload
        assert "model_a_calibration" not in payload["runtimes_ms"]


class TestPaperClaims:
    """Claims of the paper that hold for our FEM at coarse and medium mesh."""

    @pytest.mark.parametrize("scenario_id", ["fig4", "fig5", "fig6", "fig7"])
    def test_calibration_lowers_model_a_error(self, calibrated, scenario_id):
        errors = calibrated[scenario_id].errors
        assert errors["model_a_cal"].avg_error < errors["model_a"].avg_error

    @pytest.mark.parametrize(
        "scenario_id, paper_errors, fast",
        [
            ("fig4", paper_facts.FIG4_ERRORS, True),
            ("fig6", paper_facts.FIG6_ERRORS, False),
            ("fig7", paper_facts.FIG7_ERRORS, False),
        ],
    )
    def test_1d_has_the_largest_max_error(self, scenario_id, paper_errors, fast):
        paper_worst = max(paper_errors, key=lambda name: paper_errors[name][0])
        errors = _run(scenario_id, fast=fast).errors
        ours_worst = max(errors, key=lambda name: errors[name].max_error)
        assert ours_worst == paper_worst == "model_1d"


class TestRunAll:
    def test_all_alias_writes_reports_without_calibration(self, capsys, tmp_path):
        code = main(
            ["all", "--fast", "--fem-resolution", "coarse", "--no-calibrate",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert "# EXPERIMENTS" in (tmp_path / "EXPERIMENTS.md").read_text()
        payloads = {
            exp_id: json.loads((tmp_path / f"{exp_id}.json").read_text())
            for exp_id in ("fig4", "fig5", "fig6", "fig7", "table1", "case_study")
        }
        sweeps = {
            exp_id: ExperimentResult.from_payload(payload)
            for exp_id, payload in payloads.items()
            if exp_id != "case_study"
        }
        # --no-calibrate reaches every scenario
        for exp_id, result in sweeps.items():
            assert "model_a_cal" not in result.series, exp_id
        assert "recalibrated" not in payloads["case_study"]
        # table1 is the fig5 sweep
        assert sweeps["table1"].series == sweeps["fig5"].series


class TestRenderMarkdown:
    def test_render_from_minimal_results(self, fig5_result):
        text = render_markdown({"fig5": fig5_result})
        assert "EXPERIMENTS" in text
        assert "Fig. 5" in text
