"""Fault-tolerant plan execution, end to end.

Every test drives real failures through :mod:`repro.faults` — injected
solver errors, worker crashes (``os._exit`` inside a pool process),
delays against wall-clock deadlines, corrupted store writes — and
asserts the retry/quarantine/recovery machinery restores the invariant
that matters: completed points are byte-identical to a fault-free run
(modulo ``runtimes_ms``, which is wall-clock).
"""

import warnings

import pytest

from repro import Model1D, PowerSpec, faults, paper_stack, paper_tsv, perf
from repro.perf import (
    ParallelExecutor,
    PointTask,
    RetryPolicy,
    SerialExecutor,
    TaskFailure,
)
from repro.perf.executors import solve_work_safe
from repro.scenarios import RunStore, ScenarioSpec, run_scenario
from repro.scenarios.spec import AxisSpec
from repro.units import um


@pytest.fixture(autouse=True)
def _clean_slate():
    """Cold caches/counters and a disarmed registry around every test."""
    perf.reset()
    faults.reset()
    yield
    perf.reset()
    faults.reset()


def ft_spec(values=(2.0, 3.0, 4.0, 5.0, 6.0)):
    return ScenarioSpec(
        scenario_id="ft_tiny",
        title="Fault-tolerance sweep",
        axis=AxisSpec(parameter="radius_um", values=values),
        models=("1d",),
        reference="fem:coarse",
        calibrate=False,
        calibration_samples=2,
    )


def normalized(result):
    """A result payload with the wall-clock metadata stripped."""
    payload = result.to_payload()
    payload.pop("runtimes_ms")
    return payload


@pytest.fixture(scope="module")
def baseline_payload():
    """The fault-free reference payload every recovery test compares to."""
    perf.reset()
    faults.reset()
    payload = normalized(run_scenario(ft_spec()).result)
    perf.reset()
    return payload


class TestExecutorCapture:
    def _task(self, index=0, attempt=0):
        return PointTask(
            index=index,
            stack=paper_stack(),
            via=paper_tsv(radius=um(5), liner_thickness=um(1)),
            power=PowerSpec(),
            models=(Model1D(),),
            attempt=attempt,
        )

    def test_serial_safe_stream_captures_injected_errors(self):
        faults.configure(rate=1.0, kinds=("error",), sites=("solve",), seed=0)
        [(task, result)] = list(
            SerialExecutor().submit_stream([self._task()])
        )
        assert isinstance(result, TaskFailure)
        assert result.error_class == "SolverError"
        assert result.transient
        assert result.traceback_digest and result.traceback_tail

    def test_crash_in_parent_is_captured_not_fatal(self):
        faults.configure(rate=1.0, kinds=("crash",), sites=("solve",), seed=0)
        [(_, result)] = list(
            SerialExecutor().submit_stream([self._task()])
        )
        assert isinstance(result, TaskFailure)
        assert result.error_class == "WorkerCrashError" and result.transient

    def test_timeout_is_a_transient_task_failure(self):
        faults.configure(
            rate=1.0, kinds=("delay",), sites=("solve",), delay_s=0.5, seed=0
        )
        result = solve_work_safe(self._task(), 0.1)
        assert isinstance(result, TaskFailure)
        assert result.error_class == "NodeTimeoutError" and result.transient

    def test_retry_attempt_rolls_a_fresh_fault_draw(self):
        # rate 0.5: across a few task indices at least one flips between
        # attempt 0 and attempt 1 — the transience the scheduler relies on
        faults.configure(rate=0.5, kinds=("error",), sites=("solve",), seed=0)
        outcomes = []
        for i in range(8):
            first = solve_work_safe(self._task(index=i, attempt=0))
            second = solve_work_safe(self._task(index=i, attempt=1))
            outcomes.append(
                (isinstance(first, TaskFailure), isinstance(second, TaskFailure))
            )
        assert any(a != b for a, b in outcomes)

    def test_parallel_pool_survives_worker_crashes(self):
        """A worker ``os._exit`` breaks the pool; the stream rebuilds it and
        every task still lands, bit-identical where it succeeded."""
        tasks = [self._task(index=i) for i in range(5)]
        expected = [r for _, r in SerialExecutor().submit_stream(tasks)]
        perf.reset()
        faults.configure(rate=0.35, kinds=("crash",), sites=("solve",), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            landed = dict(
                (t.index, r)
                for t, r in ParallelExecutor(2).submit_stream(tasks)
            )
        assert sorted(landed) == [0, 1, 2, 3, 4]  # nothing lost to the crash
        assert perf.stats()["counters"]["pool_rebuilds"] >= 1
        for i, reference in enumerate(expected):
            if isinstance(landed[i], TaskFailure):
                assert landed[i].error_class == "WorkerCrashError"
            else:
                # the same deterministic draw either failed both or solved both
                assert not isinstance(reference, TaskFailure)
                assert (
                    landed[i]["model_1d"].max_rise
                    == reference["model_1d"].max_rise
                )


class TestPlanRecovery:
    def test_injected_errors_retry_to_byte_identical_completion(
        self, baseline_payload
    ):
        # the fem reference points ride the stacked tier, so arm its
        # fault site too — a failing batch is what degrades to solo;
        # this (rate, seed) draw fails the batch once and lets every
        # solo retry land within its budget
        faults.configure(
            rate=0.35,
            kinds=("error",),
            sites=("solve", "stacked-solve"),
            seed=4,
        )
        run = run_scenario(
            ft_spec(), retry=RetryPolicy(max_attempts=3, backoff_s=0.0)
        )
        faults.reset()
        assert not run.failed
        assert normalized(run.result) == baseline_payload
        counters = perf.stats()["counters"]
        assert counters["plan_retries"] >= 1
        assert counters["plan_group_degradations"] >= 1
        assert counters["fault_injected_error"] >= 1

    def test_killed_workers_recover_byte_identical(self, baseline_payload):
        """The acceptance scenario: pool workers die mid-batch (os._exit via
        the crash fault at rate 0.2, fixed seed); the batch completes and is
        byte-identical to the fault-free run, with the retries counted."""
        faults.configure(rate=0.2, kinds=("crash",), sites=("solve",), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_scenario(
                ft_spec(),
                executor=ParallelExecutor(2),
                retry=RetryPolicy(backoff_s=0.0),
            )
        faults.reset()
        assert not run.failed
        assert normalized(run.result) == baseline_payload
        counters = perf.stats()["counters"]
        assert counters["fault_injected_crash"] >= 1  # workers really died
        assert counters["pool_rebuilds"] >= 1  # the pool really broke
        assert counters["plan_retries"] >= 1  # recovery charged retries

    def test_quarantine_then_resume_retries_only_the_failed_nodes(
        self, tmp_path, baseline_payload
    ):
        store = RunStore(tmp_path / "store")
        # no retry budget: every injected failure quarantines immediately
        faults.configure(rate=0.3, kinds=("error",), sites=("solve",), seed=0)
        run = run_scenario(
            ft_spec(),
            store=store,
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
        )
        faults.reset()
        assert run.failed and run.result is None
        quarantined = set(store.failure_keys())
        completed = set(store.point_keys())
        assert quarantined and completed  # a genuinely partial run
        assert quarantined.isdisjoint(completed)
        assert {f.key for f in run.failures} <= quarantined
        assert all(f.error_class == "SolverError" for f in run.failures)

        # second invocation, faults disarmed and caches cold (a fresh
        # process): --resume must re-attempt exactly the quarantined nodes
        # and serve the rest from the store
        perf.reset()
        events = []
        resumed = run_scenario(
            ft_spec(), store=store, resume=True, progress=events.append
        )
        assert not resumed.failed
        assert normalized(resumed.result) == baseline_payload
        by_source = {}
        for event in events:
            by_source.setdefault(event["source"], set()).add(event["key"])
        assert by_source["solved"] == quarantined  # only the failures re-ran
        assert by_source["store"] == completed  # everything else resumed
        assert store.failure_keys() == []  # the ledger emptied on success


class TestStoreDurability:
    def test_corrupt_point_write_heals_to_a_miss(self, tmp_path):
        from repro.errors import CorruptArtifactError
        from repro.scenarios.store import parse_artifact

        store = RunStore(tmp_path / "store")
        faults.configure(
            rate=1.0, kinds=("corrupt",), sites=("store-write",), seed=0
        )
        path = store.put_point("k1", {"kind": "solve", "max_rise": 1.0})
        faults.reset()
        assert path.exists()
        # the truncated write fails its own envelope checksum — the
        # corruption is detectable from the artifact bytes alone
        with pytest.raises(CorruptArtifactError):
            parse_artifact(path.read_text())
        assert store.get_point("k1") is None  # reader treats it as a miss
        assert not path.exists()  # and heals the object away
        counters = perf.stats()["counters"]
        assert counters["fault_injected_corrupt"] >= 1
        assert counters["store_integrity_heals"] >= 1

    def test_corrupt_run_write_heals_manifest(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = ft_spec()
        faults.configure(
            rate=1.0, kinds=("corrupt",), sites=("store-write",), seed=0
        )
        store.put("rk", {"experiment_id": "x"}, spec)
        faults.reset()
        assert "rk" in store
        assert store.get("rk") is None
        assert "rk" not in store  # manifest entry healed away

    def test_failure_ledger_roundtrip_and_clear(self, tmp_path):
        from repro.perf import NodeFailure

        store = RunStore(tmp_path / "store")
        failure = NodeFailure(
            key="nk",
            kind="solve",
            error_class="SolverError",
            message="boom",
            traceback_digest="abc123",
            attempts=3,
        )
        store.put_failure("nk", failure)
        assert store.failure_keys() == ["nk"]
        assert store.get_failure("nk") == failure
        # a reopened store sees the ledger and can clear it
        reopened = RunStore(tmp_path / "store")
        reopened.clear_failure("nk")
        assert reopened.failure_keys() == []
        assert reopened.get_failure("nk") is None

    def test_corrupt_ledger_record_reads_as_none(self, tmp_path):
        store = RunStore(tmp_path / "store")
        path = RunStore._write_path(store.failures, "bad")
        path.write_text("{ not json")
        assert store.get_failure("bad") is None
        assert not path.exists()

    def test_heal_point_drops_wrong_shape_payloads(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_point("k", {"kind": "something-else"})
        assert store.get_point("k") is not None  # readable JSON...
        store.heal_point("k")  # ...but the scheduler decided it decodes wrong
        assert store.get_point("k") is None


class TestCLI:
    def _spec_file(self, tmp_path):
        path = tmp_path / "ft_tiny.json"
        ft_spec().dump(path)
        return str(path)

    def test_run_flags_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["run", "x", "--max-retries", "5", "--node-timeout", "2.5"]
        )
        assert args.max_retries == 5 and args.node_timeout == 2.5
        defaults = build_parser().parse_args(["run", "x"])
        assert defaults.max_retries == 2 and defaults.node_timeout is None

    def test_negative_max_retries_rejected(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--max-retries"):
            main(["run", self._spec_file(tmp_path), "--max-retries", "-1"])

    def test_failed_run_exits_3_and_prints_the_ledger(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_file = self._spec_file(tmp_path)
        store_dir = str(tmp_path / "store")
        faults.configure(rate=0.3, kinds=("error",), sites=("solve",), seed=0)
        code = main(
            ["run", spec_file, "--store", store_dir, "--max-retries", "0"]
        )
        faults.reset()
        captured = capsys.readouterr()
        assert code == 3
        assert "FAILED" in captured.out
        assert "quarantined" in captured.err
        assert "SolverError" in captured.err
        assert "--store/--resume" in captured.err

        # the advertised recovery: disarm faults, resume, exit 0
        code = main(
            ["run", spec_file, "--store", store_dir, "--resume"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "solved (key" in captured.out
        assert RunStore(store_dir).failure_keys() == []
