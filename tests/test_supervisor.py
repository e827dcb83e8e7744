"""Supervision and graceful drain: heartbeats, respawn policy, signals.

The :class:`Supervisor` is driven against fake worker processes (the
``_WorkerProcess`` protocol is exactly the ``multiprocessing.Process``
surface it touches), so every policy branch — deliberate exits, crash
respawn with budget, stall detection, the whole-run deadline — runs in
milliseconds.  One end-to-end test respawns a really-crashing fleet
worker.  Drain tests deliver one real SIGTERM to the test process;
the second-signal escape hatch (restore default disposition and re-kill)
is deliberately never triggered here.
"""

import json
import os
import signal
import time

import pytest

from repro import faults, perf
from repro.errors import DrainError
from repro.perf import counter
from repro.scenarios import AxisSpec, RunStore, ScenarioSpec, run_scenario
from repro.scenarios.drain import DrainGuard, drain_exit_code, is_drain_exit
from repro.scenarios.fleet import run_fleet
from repro.scenarios.supervisor import (
    HeartbeatWriter,
    Supervisor,
    heartbeat_path,
    read_heartbeat,
)

#: ranks 1-2 of the crash drill start late, so rank 0 is sure to claim
#: (and crash) before they can finish the whole plan without it
SLOW_START_ENV = {
    faults.ENV_RATE: "1.0",
    faults.ENV_SITES: "worker-start",
    faults.ENV_KINDS: "delay",
    faults.ENV_DELAY_S: "1.0",
}


@pytest.fixture(autouse=True)
def _reset_counters():
    perf.reset()
    yield
    perf.reset()


def tiny_spec():
    return ScenarioSpec(
        scenario_id="supervised_tiny",
        title="Supervised sweep",
        axis=AxisSpec(parameter="radius_um", values=(2.0, 3.0, 4.0, 5.0)),
        models=("a:paper", "1d"),
        calibrate=False,
    ).resolved()


class TestHeartbeat:
    def test_round_trip(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, 2)
        writer.beat(claim="abc", held=1, done=3, total=8, force=True)
        beat = read_heartbeat(tmp_path, 2)
        assert beat is not None
        assert beat.rank == 2
        assert beat.pid == os.getpid()
        assert beat.claim == "abc"
        assert (beat.held, beat.done, beat.total) == (1, 3, 8)
        assert beat.age_s() < 5.0

    def test_beat_self_throttles_except_when_forced(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, 0, min_interval_s=60.0)
        writer.beat(done=1, total=8)
        assert read_heartbeat(tmp_path, 0).done == 1
        writer.beat(done=5)  # inside the throttle window: state only
        assert read_heartbeat(tmp_path, 0).done == 1
        writer.beat(force=True)
        assert read_heartbeat(tmp_path, 0).done == 5

    def test_missing_and_torn_heartbeats_read_as_silent(self, tmp_path):
        assert read_heartbeat(tmp_path, 0) is None
        path = heartbeat_path(tmp_path, 0)
        path.parent.mkdir(parents=True)
        path.write_text('{"rank": 0, "pid":')  # torn mid-write
        assert read_heartbeat(tmp_path, 0) is None


class FakeProc:
    """A dead-or-alive stand-in satisfying the supervised-process surface."""

    def __init__(self, exitcode=None, alive=False):
        self.pid = 4242
        self.exitcode = exitcode
        self._alive = alive
        self.terminated = False

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self.terminated = True
        self._alive = False
        if self.exitcode is None:
            self.exitcode = -signal.SIGTERM

    def kill(self):
        self._alive = False
        self.exitcode = -signal.SIGKILL


def supervisor(tmp_path, spawn, **kwargs):
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("poll_s", 0.01)
    return Supervisor(tmp_path, spawn, **kwargs)


def write_stale_heartbeat(tmp_path, rank, age_s):
    """A heartbeat as a long-dead incarnation would have left it."""
    path = heartbeat_path(tmp_path, rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "rank": rank,
                "pid": 4242,
                "stamp": time.monotonic() - age_s,
                "wall_unix": time.time() - age_s,
                "claim": None,
                "held": 0,
                "done": 0,
                "total": 0,
            }
        )
    )


class TestSupervisor:
    def test_deliberate_exits_retire_without_respawn(self, tmp_path):
        sup = supervisor(tmp_path, lambda rank: pytest.fail("spawned"))
        final = sup.run({0: FakeProc(0), 1: FakeProc(3)})
        assert final == {0: 0, 1: 3}
        assert sup.events == []

    def test_drain_exits_retire_without_respawn(self, tmp_path):
        sup = supervisor(tmp_path, lambda rank: pytest.fail("spawned"))
        final = sup.run(
            {
                0: FakeProc(drain_exit_code(signal.SIGTERM)),
                1: FakeProc(drain_exit_code(signal.SIGINT)),
                2: FakeProc(-int(signal.SIGTERM)),
            }
        )
        assert final == {0: 143, 1: 130, 2: -15}
        assert sup.events == []

    def test_crash_respawns_then_retires_on_clean_exit(self, tmp_path):
        spawned = []

        def spawn(rank):
            spawned.append(rank)
            return FakeProc(0)  # the respawn finishes cleanly

        sup = supervisor(tmp_path, spawn)
        final = sup.run({0: FakeProc(7)})
        assert spawned == [0]
        assert final == {0: 0}
        (event,) = sup.events
        assert (event.rank, event.reason, event.exit_code) == (0, "crash", 7)
        assert event.respawn == 1
        assert counter("fleet_respawns") == 1

    def test_crash_loop_exhausts_the_respawn_budget(self, tmp_path):
        sup = supervisor(
            tmp_path, lambda rank: FakeProc(7), max_respawns=2
        )
        final = sup.run({0: FakeProc(7)})
        assert final == {0: 7}  # stays dead with its crash code
        assert [e.respawn for e in sup.events] == [1, 2]

    def test_sigkill_is_a_crash_not_a_drain(self, tmp_path):
        sup = supervisor(tmp_path, lambda rank: FakeProc(0))
        final = sup.run({0: FakeProc(-int(signal.SIGKILL))})
        assert final == {0: 0}
        assert len(sup.events) == 1

    def test_silent_worker_is_killed_and_respawned(self, tmp_path):
        stuck = FakeProc(alive=True)  # never beats, never exits
        sup = supervisor(
            tmp_path, lambda rank: FakeProc(0), stall_timeout_s=0.05
        )
        final = sup.run({0: stuck})
        assert stuck.terminated
        assert final == {0: 0}
        (event,) = sup.events
        assert event.reason == "stall"

    def test_fresh_heartbeat_clears_the_stall_verdict(self, tmp_path):
        sup = supervisor(tmp_path, lambda rank: None, stall_timeout_s=0.05)
        old = time.monotonic() - 10.0
        assert sup._stalled(0, started_at=old)  # never beaten, grace spent
        HeartbeatWriter(tmp_path, 0).beat(force=True)
        assert not sup._stalled(0, started_at=old)

    def test_predecessors_heartbeat_reads_as_absent_for_a_respawn(
        self, tmp_path
    ):
        sup = supervisor(tmp_path, lambda rank: None, stall_timeout_s=5.0)
        write_stale_heartbeat(tmp_path, 0, age_s=30.0)
        # a beat older than the incarnation is the *previous* life's —
        # the fresh respawn gets the full grace period from spawn time
        assert not sup._stalled(0, started_at=time.monotonic())
        # and once its own grace is spent, silence is a stall again
        assert sup._stalled(0, started_at=time.monotonic() - 30.0)

    def test_respawn_outlives_its_predecessors_stale_heartbeat(self, tmp_path):
        # regression: the supervisor used to judge a freshly respawned
        # worker by the dead incarnation's heartbeat file, kill it in
        # the same poll, and loop until the respawn budget retired the
        # rank — stall recovery never actually recovered
        write_stale_heartbeat(tmp_path, 0, age_s=30.0)

        class SilentThenClean(FakeProc):
            """Alive (not yet beating) for a few polls, then exits 0."""

            def __init__(self, polls=3):
                super().__init__(alive=True)
                self.polls = polls

            def is_alive(self):
                self.polls -= 1
                if self.polls < 0:
                    self._alive = False
                    self.exitcode = 0
                return self._alive

        sup = supervisor(
            tmp_path, lambda rank: SilentThenClean(), stall_timeout_s=5.0
        )
        final = sup.run({0: FakeProc(7)})
        assert final == {0: 0}
        (event,) = sup.events  # the crash respawn, and no stall kill after
        assert event.reason == "crash"

    def test_deadline_kills_everything_and_reports(self, tmp_path):
        stuck = FakeProc(alive=True)
        sup = supervisor(
            tmp_path, lambda rank: pytest.fail("spawned"), deadline_s=0.05
        )
        final = sup.run({0: stuck})
        assert sup.deadline_exceeded
        assert stuck.terminated
        assert final == {0: -signal.SIGTERM}


class TestDrainPrimitives:
    def test_exit_codes_follow_the_shell_convention(self):
        assert drain_exit_code(signal.SIGTERM) == 143
        assert drain_exit_code(signal.SIGINT) == 130

    @pytest.mark.parametrize(
        "code,expected",
        [
            (143, True),
            (130, True),
            (-int(signal.SIGTERM), True),
            (-int(signal.SIGINT), True),
            (-int(signal.SIGKILL), False),  # no graceful path exists
            (0, False),
            (1, False),
            (None, False),
        ],
    )
    def test_is_drain_exit(self, code, expected):
        assert is_drain_exit(code) is expected

    def test_first_sigterm_becomes_a_request_not_a_death(self):
        guard = DrainGuard()
        before = signal.getsignal(signal.SIGTERM)
        with guard.installed():
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            while guard.requested is None and time.monotonic() < deadline:
                time.sleep(0.01)
        assert guard.requested == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) == before  # uninstalled
        with pytest.raises(DrainError) as err:
            guard.check()
        assert err.value.signum == signal.SIGTERM

    def test_unfired_guard_checks_clean(self):
        guard = DrainGuard()
        assert guard.requested is None
        guard.check()  # no request: no raise


class TestSchedulerDrain:
    def test_requested_drain_stops_the_plan_at_a_safe_point(self, tmp_path):
        guard = DrainGuard()
        guard._signum = signal.SIGTERM  # as if the handler had fired
        store = RunStore(tmp_path / "store")
        with pytest.raises(DrainError) as err:
            run_scenario(tiny_spec(), store=store, drain=guard)
        assert err.value.signum == signal.SIGTERM
        # everything that landed before the drain is committed; nothing
        # is left claimed
        assert not list(store.leases.glob("**/*.claim"))


class TestSupervisedFleet:
    def test_crashed_worker_is_respawned_and_the_fleet_completes(
        self, tmp_path
    ):
        spec = tiny_spec()
        # rank 0 crashes the moment it holds a lease — on every
        # incarnation, so it burns its whole respawn budget
        outcome = run_fleet(
            [spec],
            store=tmp_path / "fleet",
            workers=3,
            ttl_s=1.0,
            timeout_s=300.0,
            supervise=True,
            max_respawns=2,
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
        # the final incarnation either crashed with the budget spent, or
        # (timing) found the survivors had finished and exited clean —
        # but at least one crash was seen and respawned either way
        assert outcome.exit_codes[0] in (0, faults.CRASH_EXIT_CODE)
        assert 1 <= len(outcome.respawns) <= 2
        assert all(e["reason"] == "crash" for e in outcome.respawns)
        assert all(
            e["exit_code"] == faults.CRASH_EXIT_CODE for e in outcome.respawns
        )
        assert not outcome.deadline_exceeded
        # the survivors' heartbeats are on disk for a post-mortem
        for rank in (1, 2):
            assert read_heartbeat(tmp_path / "fleet", rank) is not None
        assert RunStore(tmp_path / "fleet").get(spec.content_hash())
