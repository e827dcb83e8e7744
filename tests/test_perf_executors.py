"""Sweep executors: parallel results must match serial bit-for-bit."""

from dataclasses import replace

import pytest

from repro import Model1D, ModelA, perf, paper_tsv, sweep
from repro.errors import ValidationError
from repro.perf import (
    ParallelExecutor,
    PointTask,
    SerialExecutor,
    get_executor,
    solve_task,
    solve_work,
)
from repro.scenarios import SCENARIOS
from repro.scenarios.runner import _run_scenario_eager
from repro.units import um


def _eager(spec, jobs=1):
    """A coarse, fast, uncalibrated sweep on the eager (``core.sweep``) path."""
    return _run_scenario_eager(
        spec, executor=get_executor(jobs), fast=True, fem_resolution="coarse",
        calibrate=False,
    ).result


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
        with pytest.raises(ValidationError):
            ParallelExecutor(2, chunksize=0)

    def test_solve_task_runs_all_models(self, block_stack, block_power):
        task = PointTask(
            index=0,
            value=5.0,
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
                value=r,
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

    def test_parallel_single_task_stays_serial(self, block_stack, block_power):
        # one task never pays pool startup; exercised via the sweep API
        def configure(r_um):
            return block_stack, paper_tsv(radius=um(r_um), liner_thickness=um(1)), block_power

        result = sweep(
            "radius", [5.0], [Model1D()], configure,
            executor=ParallelExecutor(4), cache=False,
        )
        assert result.series("model_1d")[0] > 0


class TestParallelEqualsSerial:
    def test_sweep_equality_network_models(self, block_stack, block_power):
        """Exact array equality, serial vs 2 worker processes."""

        def configure(r_um):
            return block_stack, paper_tsv(radius=um(r_um), liner_thickness=um(1)), block_power

        models = [ModelA(), Model1D()]
        values = [2.0, 5.0, 10.0, 15.0]
        serial = sweep("radius", values, models, configure, cache=False)
        parallel = sweep(
            "radius", values, models, configure,
            executor=ParallelExecutor(2), cache=False,
        )
        assert serial.values == parallel.values
        for name in ("model_a", "model_1d"):
            assert serial.series(name) == parallel.series(name)

    def test_fig5_sweep_equality(self):
        """Fig. 5 liner sweep: parallel run is byte-identical to serial."""
        spec = replace(SCENARIOS.get("fig5"), models=("a:paper", "b:2,20,20", "1d"))
        perf.reset()
        serial = _eager(spec)
        perf.reset()
        parallel = _eager(spec, jobs=2)
        _exact_equal(serial, parallel)

    def test_fig7_sweep_equality(self):
        """Fig. 7 cluster sweep: parallel run is byte-identical to serial."""
        perf.reset()
        serial = _eager("fig7")
        perf.reset()
        parallel = _eager("fig7", jobs=3)
        _exact_equal(serial, parallel)

    def test_warm_cache_rerun_identical(self):
        """A cache-warm rerun returns the same numbers as the cold run."""
        perf.reset()
        cold = _eager("fig7")
        warm = _eager("fig7")
        _exact_equal(cold, warm)
        assert perf.result_cache.stats()["hits"] > 0


class TestSweepEngineContract:
    def test_model_order_preserved_with_partial_cache_hits(
        self, block_stack, block_power
    ):
        """Cached and fresh results merge back in model declaration order."""

        def configure(r_um):
            return block_stack, paper_tsv(radius=um(r_um), liner_thickness=um(1)), block_power

        # prime only model_1d's entries
        sweep("radius", [2.0, 5.0], [Model1D()], configure)
        result = sweep("radius", [2.0, 5.0], [ModelA(), Model1D()], configure)
        assert result.model_names == ["model_a", "model_1d"]

    def test_empty_values_still_rejected(self, block_stack, block_power):
        def configure(v):
            return block_stack, paper_tsv(), block_power

        with pytest.raises(ValidationError):
            sweep("x", [], [ModelA()], configure)
