"""The benchmark-regression harness: comparison gate and report plumbing."""

import json
import re
from pathlib import Path

import pytest

from repro.perf import bench


def _payload(medians: dict[str, float]) -> dict:
    return {
        "schema": bench.SCHEMA_VERSION,
        "machine": {"platform": "test", "cpu_count": 1},
        "config": {"jobs": 4, "quick": True, "repeats": 1},
        "benchmarks": {
            name: {"median_s": value, "times_s": [value]}
            for name, value in medians.items()
        },
        "speedups": {},
        "checks": {},
        "cache_stats": {"caches": {}, "counters": {}},
    }


class TestCompare:
    def test_no_regression_within_tolerance(self):
        current = _payload({"a": 0.11, "b": 0.2})
        previous = _payload({"a": 0.10, "b": 0.2})
        regressions, comparisons = bench.compare(current, previous, tolerance=0.25)
        assert regressions == []
        assert len(comparisons) == 2

    def test_regression_beyond_tolerance_flagged(self):
        current = _payload({"a": 0.2})
        previous = _payload({"a": 0.1})
        regressions, _ = bench.compare(current, previous, tolerance=0.25)
        assert len(regressions) == 1
        assert regressions[0]["benchmark"] == "a"
        assert regressions[0]["ratio"] == pytest.approx(2.0)

    def test_improvements_never_flagged(self):
        current = _payload({"a": 0.01})
        previous = _payload({"a": 1.0})
        regressions, _ = bench.compare(current, previous, tolerance=0.25)
        assert regressions == []

    def test_tiny_absolute_deltas_ignored(self):
        """A big ratio on a sub-millisecond scenario is jitter, not a regression."""
        current = _payload({"a": 0.0016})
        previous = _payload({"a": 0.0010})
        regressions, _ = bench.compare(
            current, previous, tolerance=0.25, min_delta_s=0.002
        )
        assert regressions == []

    def test_min_s_preferred_over_median(self):
        current = _payload({"a": 0.5})
        current["benchmarks"]["a"]["min_s"] = 0.1
        previous = _payload({"a": 0.1})
        previous["benchmarks"]["a"]["min_s"] = 0.1
        regressions, comparisons = bench.compare(current, previous)
        assert regressions == []
        assert comparisons[0]["current_s"] == 0.1

    def test_noisy_entries_get_doubled_tolerance(self):
        previous = _payload({"steady": 0.1, "jittery": 0.1})
        current = _payload({"steady": 0.14, "jittery": 0.14})
        current["benchmarks"]["jittery"]["noisy"] = True
        regressions, _ = bench.compare(current, previous, tolerance=0.25)
        # 1.4x: past 25% for the steady entry, within 50% for the noisy one
        assert [r["benchmark"] for r in regressions] == ["steady"]
        # but a noisy entry past the doubled tolerance still regresses
        current["benchmarks"]["jittery"]["min_s"] = 0.2
        regressions, _ = bench.compare(current, previous, tolerance=0.25)
        assert {r["benchmark"] for r in regressions} == {"steady", "jittery"}

    def test_unmatched_benchmarks_skipped(self):
        current = _payload({"new_one": 5.0})
        previous = _payload({"old_one": 0.1})
        regressions, comparisons = bench.compare(current, previous)
        assert regressions == [] and comparisons == []


class TestReportFiles:
    def test_find_previous_picks_latest(self, tmp_path):
        for day in ("2026-07-01", "2026-07-15", "2026-07-30"):
            (tmp_path / f"BENCH_{day}.json").write_text("{}")
        previous = bench.find_previous(tmp_path, "BENCH_2026-07-30.json")
        assert previous is not None
        assert previous.name == "BENCH_2026-07-15.json"

    def test_find_previous_empty_dir(self, tmp_path):
        assert bench.find_previous(tmp_path, "BENCH_x.json") is None

    def test_bench_filename_shape(self):
        name = bench.bench_filename()
        assert name.startswith("BENCH_") and name.endswith(".json")

    def test_render_report_mentions_everything(self):
        payload = _payload({"fig7_cluster_sweep_serial_cold": 0.1})
        payload["speedups"] = {"fig7_warm_vs_serial": 5.0}
        payload["checks"] = {"fig7_parallel_identical": True}
        text = bench.render_report(payload)
        assert "fig7_cluster_sweep_serial_cold" in text
        assert "5.00x" in text
        assert "PASS" in text


class TestScenarios:
    def test_transient_scenario_smoke(self):
        """Tiny transient benchmark: both paths run, speedup recorded."""
        section = bench.bench_transient(1, n_nodes=250, n_steps=10)
        medians = {
            name: entry["median_s"]
            for name, entry in section["benchmarks"].items()
        }
        assert all(value > 0 for value in medians.values())
        assert section["speedups"]["transient_factor_reuse"] > 0

    def test_machine_info_fields(self):
        info = bench.machine_info()
        assert {"platform", "python", "cpu_count", "numpy", "scipy"} <= set(info)

    def test_cli_writes_report(self, tmp_path, monkeypatch, capsys):
        """End-to-end `bench` CLI on the smallest possible workload."""

        def tiny_run(**kwargs):
            return _payload({"a": 0.1})

        monkeypatch.setattr(bench, "run_benchmarks", tiny_run)
        code = bench.main(["--output-dir", str(tmp_path), "--quick"])
        assert code == 0
        reports = list(tmp_path.glob("BENCH_*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert payload["benchmarks"]["a"]["median_s"] == 0.1

    def test_cli_missing_explicit_baseline_fails_fast(self, tmp_path, monkeypatch):
        called = []
        monkeypatch.setattr(
            bench, "run_benchmarks",
            lambda **kwargs: called.append(1) or _payload({"a": 0.1}),
        )
        code = bench.main(
            ["--baseline", str(tmp_path / "missing.json"), "--no-write"]
        )
        assert code == 1
        assert called == []  # failed before spending time measuring

    def test_repro_cli_rejects_bench_after_flags(self):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["--fast", "bench"])

    def test_cli_fails_on_regression(self, tmp_path, monkeypatch):
        previous = _payload({"a": 0.1})
        (tmp_path / "BENCH_2000-01-01.json").write_text(json.dumps(previous))
        monkeypatch.setattr(
            bench, "run_benchmarks", lambda **kwargs: _payload({"a": 10.0})
        )
        code = bench.main(["--output-dir", str(tmp_path), "--no-write"])
        assert code == 1

    def test_cli_fails_on_missing_required_entry(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            bench, "run_benchmarks", lambda **kwargs: _payload({"a": 0.1})
        )
        code = bench.main(
            ["--output-dir", str(tmp_path), "--no-write", "--require", "a,b"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "'b'" in out and "missing" in out

    def test_cli_passes_when_required_entries_present(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            bench, "run_benchmarks", lambda **kwargs: _payload({"a": 0.1})
        )
        code = bench.main(
            ["--output-dir", str(tmp_path), "--no-write", "--require", "a"]
        )
        assert code == 0

    def test_cli_fails_on_failed_check_with_speedup_table(
        self, tmp_path, monkeypatch, capsys
    ):
        payload = _payload({"a": 0.1})
        payload["checks"] = {"multi_rhs_identical": False}
        payload["speedups"] = {"multi_rhs_batched_vs_per_point": 3.4}
        monkeypatch.setattr(bench, "run_benchmarks", lambda **kwargs: payload)
        code = bench.main(["--output-dir", str(tmp_path), "--no-write"])
        out = capsys.readouterr().out
        assert code == 1
        # the failure prints the per-entry speedup table, not a bare assert
        assert "multi_rhs_identical" in out
        assert "3.40x" in out
        assert "FAIL" in out

    def test_speedup_table_includes_comparisons(self):
        payload = _payload({"a": 0.1})
        payload["speedups"] = {"s": 2.0}
        payload["checks"] = {"c": True}
        rows = [
            {"benchmark": "a", "previous_s": 0.1, "current_s": 0.2, "ratio": 2.0}
        ]
        table = bench.render_speedup_table(payload, rows)
        assert "s" in table and "2.00x" in table
        assert "PASS" in table
        assert "a" in table and "200.00ms" in table


def test_every_required_bench_entry_exists():
    """Each ``--require`` name of the CI gate is an entry of the harness.

    The gate fails on a missing entry only when the slow bench runs;
    this catches a required entry whose code was deleted in tier-1.
    """
    root = Path(__file__).resolve().parents[1]
    script = (root / "benchmarks" / "run_bench.sh").read_text()
    (required,) = re.findall(r"^\s*--require\s+(\S+)", script, re.M)
    source = Path(bench.__file__).read_text()
    missing = [name for name in required.split(",") if f'"{name}"' not in source]
    assert not missing
