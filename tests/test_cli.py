"""The ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro import perf
from repro.__main__ import build_parser, main
from repro.scenarios.results import ExperimentResult
from repro.scenarios import SCENARIOS, RunStore, ScenarioSpec

PAPER_IDS = ("fig4", "fig5", "fig6", "fig7", "table1", "case_study")


def _mask_times(text: str) -> str:
    """Blank the wall-clock cells of every table with a time column."""
    lines = []
    column = None
    for line in text.splitlines():
        if "time [ms]" in line:
            column = line.index("time [ms]")
        elif not line.strip():
            column = None
        elif column is not None and not re.fullmatch(r"[- ]+", line):
            line = line[:column]
        lines.append(line)
    return "\n".join(lines)


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.command == "fig4" and args.target == "fig4"
        assert not args.fast
        spec = SCENARIOS.get(args.target).resolved(
            fast=args.fast, fem_resolution=args.fem_resolution
        )
        assert spec.reference == "fem:medium"

    def test_flags(self):
        args = build_parser().parse_args(
            ["fig6", "--fast", "--fem-resolution", "coarse", "--no-calibrate"]
        )
        assert args.fast and args.no_calibrate
        assert args.fem_resolution == "coarse"

    @pytest.mark.parametrize(
        "flags",
        [
            ["run", "fig7", "--node-timeout", "0"],
            ["run", "fig7", "--node-timeout", "-1"],
            ["fleet", "fig7", "--lease-ttl", "0"],
            ["fleet", "fig7", "--stall", "0"],
            ["fleet", "fig7", "--deadline", "-5"],
            ["fleet", "fig7", "--deadline", "nan"],
            ["fleet", "fig7", "--deadline", "inf"],
            ["fleet", "fig7", "--node-timeout", "0"],
            ["fleet", "fig7", "--max-retries", "-1"],
            ["fleet", "fig7", "--max-respawns", "-1"],
        ],
    )
    def test_bad_durations_and_counts_exit_2_at_parse_time(
        self, flags, capsys, tmp_path
    ):
        # every fleet case would otherwise start a (cheap) one-worker fleet
        extra = (
            ["--store", str(tmp_path / "store"), "--workers", "1", *FAST_FLAGS]
            if flags[0] == "fleet"
            else FAST_FLAGS
        )
        with pytest.raises(SystemExit) as exc:
            main([*flags, *extra])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["run", "fig7", "--output-dir"],
            ["run", "fig7", "--store"],
            ["batch", "DIR", "--store"],
            ["fleet", "fig7", "--workers", "1", "--store"],
        ],
        ids=["run-output-dir", "run-store", "batch-store", "fleet-store"],
    )
    def test_a_regular_file_as_directory_exits_2_at_parse_time(
        self, flags, capsys, tmp_path
    ):
        # before any solve: a run would print its tables, then die on
        # the file with a traceback and lose the solve
        regular = tmp_path / "a-file"
        regular.write_text("keep me\n")
        argv = [str(tmp_path) if arg == "DIR" else arg for arg in flags]
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(regular), *FAST_FLAGS])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{regular} exists and is not a directory" in err
        assert regular.read_text() == "keep me\n"

    def test_bench_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestMain:
    def test_fig7_fast(self, capsys):
        code = main(["fig7", "--fast", "--fem-resolution", "coarse", "--no-calibrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "model_a" in out and "fem" in out

    def test_table1_fast_writes_json(self, capsys, tmp_path):
        code = main(
            [
                "table1",
                "--fast",
                "--fem-resolution",
                "coarse",
                "--no-calibrate",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["experiment_id"] == "table1"
        out = capsys.readouterr().out
        assert "model_b(500)" in out

    def test_case_study_fast(self, capsys):
        code = main(
            ["case_study", "--fast", "--fem-resolution", "coarse", "--no-calibrate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DRAM" in out
        assert "model_1d" in out

    def test_table1_segments_table_printed_once(self, capsys):
        code = main(["table1", "--fast", "--fem-resolution", "coarse", "--no-calibrate"])
        assert code == 0
        out = capsys.readouterr().out
        # the segments table appears exactly once (it used to be printed
        # twice: table_text() up front plus metadata["table_rows"] again);
        # the other "max err %" header belongs to the error table
        assert out.count("max err %") == 2
        # --no-calibrate reaches the fig5 sweep behind table1
        assert "model_a_cal" not in out


FAST_FLAGS = ["--fast", "--fem-resolution", "coarse", "--no-calibrate"]


def test_all_exits_3_on_quarantined_nodes(capsys, tmp_path):
    from repro import faults

    faults.configure(rate=0.3, kinds=("error",), sites=("solve",), seed=0)
    try:
        code = main(
            ["all", *FAST_FLAGS, "--max-retries", "0",
             "--output-dir", str(tmp_path)]
        )
    finally:
        faults.reset()
    captured = capsys.readouterr()
    assert code == 3
    assert "FAILED" in captured.out
    assert "quarantined" in captured.err
    # the scenarios that did complete are still reported
    assert (tmp_path / "EXPERIMENTS.md").exists()


@pytest.mark.parametrize("scenario_id", PAPER_IDS)
def test_paper_alias_is_run(capsys, scenario_id):
    assert main([scenario_id, *FAST_FLAGS]) == 0
    alias = capsys.readouterr().out
    assert main(["run", scenario_id, *FAST_FLAGS]) == 0
    run = capsys.readouterr().out
    assert alias.startswith(f"[{scenario_id}] solved (key ")
    assert _mask_times(alias) == _mask_times(run)


class TestRunSubcommand:
    def test_run_registry_id(self, capsys):
        code = main(["run", "fig7", *FAST_FLAGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "[fig7] solved" in out
        assert "Fig. 7" in out and "model_a" in out and "fem" in out

    def test_run_unknown_target(self, capsys):
        code = main(["run", "fig99"])
        assert code == 2
        assert "python -m repro list" in capsys.readouterr().err

    def test_run_output_dir_round_trips(self, capsys, tmp_path):
        code = main(
            ["run", "fig7", *FAST_FLAGS, "--output-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "fig7.json").read_text())
        loaded = ExperimentResult.from_payload(payload)
        assert loaded.experiment_id == "fig7"
        assert set(loaded.series) == {"model_a", "model_b(100)", "model_1d", "fem"}
        spec = ScenarioSpec.load(tmp_path / "fig7.spec.json")
        assert spec.scenario_id == "fig7"
        assert spec.reference == "fem:coarse"  # the CLI override, folded in
        assert not spec.calibrate

    def test_run_store_hit_on_second_invocation(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["run", "fig7", *FAST_FLAGS, "--store", store_dir]) == 0
        first = capsys.readouterr().out
        assert "[fig7] solved" in first
        assert main(["run", "fig7", *FAST_FLAGS, "--store", store_dir]) == 0
        second = capsys.readouterr().out
        assert "[fig7] served from run store" in second
        # identical tables either way
        assert first.split("\n", 1)[1] == second.split("\n", 1)[1]

    def test_torn_legacy_manifest_does_not_break_the_store(
        self, capsys, tmp_path
    ):
        # older builds kept a manifest.json index; nothing reads it now
        store_dir = tmp_path / "store"
        assert main(["run", "fig7", *FAST_FLAGS, "--store", str(store_dir)]) == 0
        capsys.readouterr()
        (store_dir / "manifest.json").write_text('{"version": 1, "ru')
        assert main(["run", "fig7", *FAST_FLAGS, "--store", str(store_dir)]) == 0
        assert "[fig7] served from run store" in capsys.readouterr().out

    def test_legacy_manifest_in_a_batch_directory_is_a_clean_error(
        self, capsys, tmp_path
    ):
        # a directory used both as batch input and as its own store can
        # hold an older build's manifest.json, which is no scenario
        (tmp_path / "manifest.json").write_text('{"version": 1, "runs": {}}')
        assert main(["batch", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "manifest.json is not a valid scenario" in err
        assert not (tmp_path / "runs").exists()  # nothing ran

    @pytest.mark.parametrize("command", ["run", "fleet"])
    @pytest.mark.parametrize(
        "text", ['{"scenario_id": "no_title"}', "[1, 2]", '{"torn": ']
    )
    def test_invalid_scenario_file_is_a_clean_error(
        self, command, text, capsys, tmp_path
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        store = ["--store", str(tmp_path / "store")]
        assert main([command, str(path), *store]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "bad.json" in err

    def test_run_scenario_file(self, capsys, tmp_path):
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(
            json.dumps(
                {
                    "scenario_id": "custom_tiny",
                    "title": "Custom tiny sweep",
                    "axis": {"parameter": "radius_um", "values": [3.0, 5.0]},
                    "models": ["1d"],
                    "reference": "fem:coarse",
                    "calibrate": False,
                }
            )
        )
        code = main(["run", str(spec_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[custom_tiny] solved" in out
        assert "model_1d" in out


class TestListSubcommand:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for scenario_id in ("fig4", "fig5", "fig6", "fig7", "table1", "case_study"):
            assert scenario_id in out


class TestBatchSubcommand:
    @pytest.fixture()
    def scenario_dir(self, tmp_path):
        base = {
            "title": "Batch sweep",
            "axis": {"parameter": "radius_um", "values": [3.0, 5.0]},
            "models": ["1d"],
            "reference": "fem:coarse",
            "calibrate": False,
        }
        for i in (1, 2):
            spec = dict(base)
            spec["scenario_id"] = f"batch{i}"
            spec["axis"] = {"parameter": "radius_um", "values": [3.0, 5.0 + i]}
            (tmp_path / f"batch{i}.json").write_text(json.dumps(spec))
        return tmp_path

    def test_batch_solves_then_skips(self, capsys, scenario_dir):
        assert main(["batch", str(scenario_dir)]) == 0
        first = capsys.readouterr().out
        assert first.count("solved") >= 2 and "store hit" not in first

        store = RunStore(scenario_dir / "runs")
        assert len(store) == 2
        hits_before = perf.stats()["counters"].get("run_store_hits", 0)
        assert main(["batch", str(scenario_dir)]) == 0
        second = capsys.readouterr().out
        assert second.count("store hit") == 2
        assert "2 served from store" in second
        assert perf.stats()["counters"]["run_store_hits"] == hits_before + 2
        assert len(RunStore(scenario_dir / "runs")) == 2  # nothing re-stored

    def test_batch_output_dir(self, capsys, scenario_dir, tmp_path):
        out_dir = tmp_path / "payloads"
        assert main(["batch", str(scenario_dir), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        for scenario_id in ("batch1", "batch2"):
            payload = json.loads((out_dir / f"{scenario_id}.json").read_text())
            assert ExperimentResult.from_payload(payload).experiment_id == scenario_id
            assert ScenarioSpec.load(out_dir / f"{scenario_id}.spec.json").scenario_id == scenario_id

    def test_batch_rejects_empty_dir(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path)]) == 2
        assert "no scenario" in capsys.readouterr().err

    def test_batch_missing_dir(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "nope")]) == 2

    def test_batch_reports_plan_stats(self, capsys, scenario_dir):
        assert main(["batch", str(scenario_dir)]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out and "deduplicated across scenarios" in out

    def test_batch_resume_after_lost_run_artifacts(self, capsys, scenario_dir):
        assert main(["batch", str(scenario_dir)]) == 0
        capsys.readouterr()
        # simulate a batch killed before the run-level artifacts landed:
        # the point space survives, the run objects do not
        runs = scenario_dir / "runs"
        for path in (runs / "objects").glob("**/*.json"):
            path.unlink()
        perf.reset()  # fresh-process caches
        hits_before = perf.stats()["counters"].get("point_store_hits", 0)
        assert main(["batch", str(scenario_dir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert out.count("solved") >= 2  # scenarios re-assembled, not hits
        assert perf.stats()["counters"]["point_store_hits"] > hits_before
        assert perf.stats()["counters"].get("plan_point_solves", 0) == 0
        assert "resumed from point store" in out

    def test_run_resume_without_store_noted(self, capsys):
        assert main(["run", "fig7", *FAST_FLAGS, "--resume"]) == 0
        assert "--resume needs a --store" in capsys.readouterr().err
