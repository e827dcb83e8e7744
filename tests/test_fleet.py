"""Fleet execution: N cooperating worker processes on one shared store.

The contract under test is the distributed-execution tentpole: a fleet
of workers sharing one store produces a byte-identical store to the
single-process path, solves every node exactly once, and survives a
worker dying mid-plan without losing completed points.
"""

import json

import pytest

from repro import faults, perf
from repro.faults import CRASH_EXIT_CODE
from repro.perf import SerialExecutor, StackedBatchTask, counter
from repro.scenarios import AxisSpec, RunStore, ScenarioSpec, run_scenario
from repro.scenarios.fleet import EXIT_OK, run_fleet
from repro.scenarios.lease import LeaseManager
from repro.scenarios.plan import compile_plan
from repro.scenarios.scheduler import execute_plan
from repro.__main__ import main


#: ranks 1-2 of the crash drills start late, so rank 0 is sure to claim
#: (and crash) before they can finish the whole plan without it
SLOW_START_ENV = {
    faults.ENV_RATE: "1.0",
    faults.ENV_SITES: "worker-start",
    faults.ENV_KINDS: "delay",
    faults.ENV_DELAY_S: "1.0",
}


def fleet_spec(scenario_id="fleet_tiny", values=(2.0, 3.0, 4.0, 5.0)):
    return ScenarioSpec(
        scenario_id=scenario_id,
        title="Fleet sweep",
        axis=AxisSpec(parameter="radius_um", values=values),
        models=("a:paper", "1d"),
        calibrate=False,
    ).resolved()


def normalized_points(store):
    """Every stored point payload, wall-clock metadata stripped."""
    points = {}
    for key in store.point_keys():
        payload = dict(store.get_point(key))
        payload.pop("solve_time", None)
        points[key] = payload
    return points


def normalized_run(store, key):
    payload = dict(store.get(key))
    payload.pop("runtimes_ms", None)
    return payload


@pytest.fixture
def single(tmp_path):
    """The single-process reference store plus its solve count."""
    spec = fleet_spec()
    store = RunStore(tmp_path / "single")
    perf.reset()
    run_scenario(spec, store=store)
    return spec, store, counter("plan_point_solves")


class TestFleet:
    def test_four_workers_byte_identical_and_no_double_solve(
        self, single, tmp_path
    ):
        spec, single_store, single_solves = single
        outcome = run_fleet(
            [spec],
            store=tmp_path / "fleet",
            workers=4,
            deadline_s=300.0,
        )
        assert outcome.ok
        assert outcome.exit_codes == (EXIT_OK,) * 4
        assert len(outcome.reports) == 4

        fleet_store = RunStore(outcome.store_root)
        key = spec.content_hash()
        assert normalized_run(fleet_store, key) == normalized_run(
            single_store, key
        )
        assert normalized_points(fleet_store) == normalized_points(single_store)
        # every plan node solved exactly once across the whole fleet
        assert outcome.counters["plan_point_solves"] == single_solves
        # every worker claimed through the lease layer
        assert outcome.counters.get("lease_acquired", 0) > 0

    def test_worker_kill_loses_no_completed_points(self, single, tmp_path):
        spec, single_store, single_solves = single
        # worker 0 is armed to crash the moment it holds a lease; the
        # survivors start late, then take over its claims once the
        # (short) TTL expires
        outcome = run_fleet(
            [spec],
            store=tmp_path / "fleet",
            workers=3,
            ttl_s=1.0,
            deadline_s=300.0,
            extra_env={
                0: {
                    faults.ENV_RATE: "1.0",
                    faults.ENV_SITES: "lease",
                    faults.ENV_KINDS: "crash",
                    faults.ENV_SEED: "1",
                },
                1: SLOW_START_ENV,
                2: SLOW_START_ENV,
            },
        )
        assert outcome.complete
        assert outcome.exit_codes[0] == CRASH_EXIT_CODE
        assert outcome.exit_codes[1] == EXIT_OK
        assert outcome.exit_codes[2] == EXIT_OK
        # the killed worker never reports; the survivors' stores carry
        # the full, byte-identical result set regardless
        assert len(outcome.reports) == 2
        fleet_store = RunStore(outcome.store_root)
        key = spec.content_hash()
        assert normalized_run(fleet_store, key) == normalized_run(
            single_store, key
        )
        assert normalized_points(fleet_store) == normalized_points(single_store)
        assert outcome.counters["plan_point_solves"] == single_solves

    def test_single_worker_fleet_matches_run_scenario(self, single, tmp_path):
        spec, single_store, single_solves = single
        outcome = run_fleet(
            [spec], store=tmp_path / "fleet", workers=1, deadline_s=300.0
        )
        assert outcome.ok
        assert outcome.counters["plan_point_solves"] == single_solves
        assert normalized_points(RunStore(outcome.store_root)) == (
            normalized_points(single_store)
        )

    def test_fleet_resumes_from_a_prior_partial_store(self, single, tmp_path):
        # the store is the coordination plane: a fleet pointed at a store
        # that already holds every point re-solves nothing
        spec, single_store, _ = single
        outcome = run_fleet(
            [spec], store=single_store.root, workers=2, deadline_s=300.0
        )
        assert outcome.ok
        assert outcome.counters.get("plan_point_solves", 0) == 0


class RecordingExecutor(SerialExecutor):
    """Serial execution that records, as each task is dispatched, how
    many leases the worker holds and how many nodes the task carries."""

    def __init__(self, claims):
        self.claims = claims
        self.dispatched = []

    def submit_stream(self, tasks, *, timeout_s=None):
        for task in tasks:
            size = (
                len(task.members)
                if isinstance(task, StackedBatchTask)
                else len(task.models)
            )
            self.dispatched.append((len(self.claims.held), size))
            yield from super().submit_stream([task], timeout_s=timeout_s)


class TestClaimGranularity:
    @pytest.mark.parametrize("stack_batches", [True, False])
    def test_a_worker_holds_only_the_unit_it_dispatches(
        self, tmp_path, stack_batches
    ):
        # claiming a whole wave before solving any of it leaves a peer
        # nothing to take: the first worker would hold all of it
        plan = compile_plan([fleet_spec()])
        store = RunStore(tmp_path / "store")
        claims = LeaseManager(store, owner="w0")
        executor = RecordingExecutor(claims)
        perf.reset()
        outcome = execute_plan(
            plan,
            executor=executor,
            store=store,
            claims=claims,
            stack_batches=stack_batches,
        )
        assert not outcome.failures
        assert outcome.counts["solved"] == len(plan.nodes)
        assert executor.dispatched
        assert all(held <= size for held, size in executor.dispatched), (
            executor.dispatched
        )
        assert claims.held == {}


class TestFleetCLI:
    def test_cli_fleet_smoke(self, tmp_path, capsys):
        spec = fleet_spec()
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        code = main(
            [
                "fleet",
                str(spec_file),
                "--workers",
                "2",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 2" in out
        assert "store complete" in out
        assert RunStore(tmp_path / "store").get(spec.content_hash())


    def test_deadline_applies_without_supervise(
        self, tmp_path, capsys, monkeypatch
    ):
        import time

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(fleet_spec().to_dict()))
        # the worker sleeps far past the deadline before it starts
        for name, value in {**SLOW_START_ENV, faults.ENV_DELAY_S: "10.0"}.items():
            monkeypatch.setenv(name, value)
        start = time.monotonic()
        code = main(
            [
                "fleet",
                str(spec_file),
                "--workers",
                "1",
                "--store",
                str(tmp_path / "store"),
                "--deadline",
                "0.5",
            ]
        )
        assert time.monotonic() - start < 8.0
        assert code == 3
        assert "whole-run deadline of 0.5s exceeded" in capsys.readouterr().err


class TestReportAggregation:
    def test_missing_truncated_and_garbled_reports_are_skipped(self, tmp_path):
        from repro.scenarios.fleet import _report_path, read_reports

        good = {
            "rank": 0,
            "pid": 1234,
            "owner": "w0",
            "ok": True,
            "error": None,
            "counters": {"plan_point_solves": 3},
            "elapsed_s": 1.0,
            "runs": [],
        }
        path0 = _report_path(tmp_path, 0)
        path0.parent.mkdir(parents=True)
        path0.write_text(json.dumps(good))
        # rank 1 died mid-write on a laggy filesystem: truncated JSON
        _report_path(tmp_path, 1).write_text('{"rank": 1, "exit_code"')
        # rank 2 wrote valid JSON missing the report fields
        _report_path(tmp_path, 2).write_text("{}")
        # rank 3 was SIGKILLed before writing anything at all
        # rank 4's JSON parses, but to a non-dict
        _report_path(tmp_path, 4).write_text('["not", "a", "report"]')
        # rank 5's fields have the wrong shapes entirely
        _report_path(tmp_path, 5).write_text(
            json.dumps({**good, "rank": 5, "counters": 7, "runs": 9})
        )
        reports = read_reports(tmp_path, workers=6)
        assert [r.rank for r in reports] == [0]
        assert reports[0].counters == {"plan_point_solves": 3}
