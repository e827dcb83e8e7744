"""Sweep executors: parallel results must match serial bit-for-bit."""

from dataclasses import replace

import pytest

from repro import Model1D, ModelA, perf, paper_tsv
from repro.errors import SolverError, ValidationError
from repro.perf import (
    ParallelExecutor,
    PointTask,
    RetryPolicy,
    SerialExecutor,
    get_executor,
    solve_task,
    solve_work,
)
from repro.scenarios import SCENARIOS, AxisSpec, run_scenario
from repro.units import um


def _cold(spec, executor=None, **resolve):
    """A cold planned run's result; fails if any point came from a cache."""
    perf.reset()
    result = run_scenario(spec, executor=executor, **resolve).result
    assert perf.stats()["counters"]["plan_point_solves"] > 0
    return result


def _cold_fast(spec, jobs=1):
    """A cold, fast, uncalibrated coarse-mesh run with ``jobs`` workers."""
    return _cold(
        spec, get_executor(jobs), fast=True, fem_resolution="coarse", calibrate=False
    )


@pytest.fixture(autouse=True)
def _cold_caches():
    """Serial/parallel comparisons must not short-circuit through caches."""
    perf.reset()
    yield
    perf.reset()


def _exact_equal(a, b):
    """Bitwise equality of two experiment results (series + planes)."""
    assert a.x_values == b.x_values
    assert a.series == b.series  # float lists compared exactly, not approx
    for pa, pb in zip(a.sweep_result.points, b.sweep_result.points):
        for name in pa.results:
            assert pa.results[name].plane_rises == pb.results[name].plane_rises
            assert pa.results[name].max_rise == pb.results[name].max_rise


class TestExecutors:
    def test_get_executor_dispatch(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(3), ParallelExecutor)
        assert get_executor(3).jobs == 3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValidationError):
            ParallelExecutor(0)

    def test_solve_task_runs_all_models(self, block_stack, block_power):
        task = PointTask(
            index=0,
            stack=block_stack,
            via=paper_tsv(radius=um(5), liner_thickness=um(1)),
            power=block_power,
            models=(ModelA(), Model1D()),
        )
        out = solve_task(task)
        assert set(out) == {"model_a", "model_1d"}
        assert all(r.max_rise > 0 for r in out.values())

    def _tasks(self, block_stack, block_power, n=4):
        return [
            PointTask(
                index=i,
                stack=block_stack,
                via=paper_tsv(radius=um(r), liner_thickness=um(1)),
                power=block_power,
                models=(Model1D(),),
            )
            for i, r in enumerate([2.0, 4.0, 6.0, 8.0][:n])
        ]

    def test_serial_submit_stream_matches_solve_work(self, block_stack, block_power):
        tasks = self._tasks(block_stack, block_power)
        streamed = list(SerialExecutor().submit_stream(tasks))
        assert [t.index for t, _ in streamed] == [0, 1, 2, 3]  # in order
        for task, solved in streamed:
            expected = solve_work(task)
            assert solved["model_1d"].max_rise == expected["model_1d"].max_rise

    def test_parallel_submit_stream_complete_and_identical(
        self, block_stack, block_power
    ):
        tasks = self._tasks(block_stack, block_power)
        streamed = dict(
            (t.index, solved)
            for t, solved in ParallelExecutor(2).submit_stream(tasks)
        )
        assert sorted(streamed) == [0, 1, 2, 3]  # every task lands once
        for task in tasks:
            expected = solve_work(task)
            assert (
                streamed[task.index]["model_1d"].max_rise
                == expected["model_1d"].max_rise
            )

    def test_parallel_single_task_stays_serial(self, block_sweep):
        # one task never pays pool startup; exercised through a one-point
        # scenario whose two models share one point task
        spec = block_sweep(("1d",), (5.0,), reference="a")
        result = run_scenario(
            spec, executor=ParallelExecutor(4),
            stack_batches=False,
        ).result
        assert result.series["model_1d"][0] > 0


class TestParallelEqualsSerial:
    def test_sweep_equality_network_models(self, block_sweep):
        """Exact array equality, serial vs 2 worker processes."""
        spec = block_sweep(("a",), (2.0, 5.0, 10.0, 15.0))
        serial = _cold(spec)
        parallel = _cold(spec, ParallelExecutor(2))
        assert serial.x_values == parallel.x_values
        for name in ("model_a", "model_1d"):
            assert serial.series[name] == parallel.series[name]

    def test_fig5_sweep_equality(self):
        """Fig. 5 liner sweep: parallel run is byte-identical to serial."""
        spec = replace(SCENARIOS.get("fig5"), models=("a:paper", "b:2,20,20", "1d"))
        _exact_equal(_cold_fast(spec), _cold_fast(spec, jobs=2))

    def test_fig7_sweep_equality(self):
        """Fig. 7 cluster sweep: parallel run is byte-identical to serial."""
        _exact_equal(_cold_fast("fig7"), _cold_fast("fig7", jobs=3))

    def test_warm_cache_rerun_identical(self):
        """A cache-warm rerun returns the same numbers as the cold run."""
        cold = _cold_fast("fig7")
        warm = run_scenario(
            "fig7", fast=True, fem_resolution="coarse", calibrate=False
        ).result
        _exact_equal(cold, warm)
        assert perf.result_cache.stats()["hits"] > 0


class TestSweepEngineContract:
    def test_model_order_preserved_with_partial_cache_hits(self, block_sweep):
        """Cached and fresh results merge back in model declaration order."""
        # prime only model_1d's and the reference's entries
        run_scenario(block_sweep(("1d",), (2.0, 5.0), reference="b:20"))
        result = run_scenario(
            block_sweep(("a", "1d"), (2.0, 5.0), reference="b:20")
        ).result
        assert perf.result_cache.stats()["hits"] > 0
        assert list(result.series) == ["model_a", "model_1d", "model_b(20)"]

    def test_empty_values_still_rejected(self):
        with pytest.raises(ValidationError):
            AxisSpec(parameter="radius_um", values=())

    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), ParallelExecutor(2)], ids=["serial", "parallel"]
    )
    def test_failed_point_is_quarantined(
        self, executor, block_sweep, monkeypatch
    ):
        """A failed solve makes the run fail with ledger records naming the
        original error class, whatever the executor."""

        def failing_solve(self, stack, via, power):
            raise SolverError("singular system")

        monkeypatch.setattr(Model1D, "solve", failing_solve)
        run = run_scenario(
            block_sweep(("a",), (2.0, 5.0)),
            executor=executor,
            stack_batches=False,
            retry=RetryPolicy(max_attempts=1),
        )
        assert run.failed and run.result is None
        assert {f.error_class for f in run.failures} == {"SolverError"}
        assert all("singular system" in f.message for f in run.failures)
