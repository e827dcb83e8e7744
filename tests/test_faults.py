"""The deterministic fault-injection registry (:mod:`repro.faults`)."""

import json
import os
import time

import pytest

from repro import faults
from repro.errors import SolverError, ValidationError, WorkerCrashError


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with the registry (and env) disarmed."""
    faults.reset()
    yield
    faults.reset()


class TestConfigure:
    def test_inactive_by_default(self):
        assert not faults.active()
        assert faults.config() == faults.FaultConfig()
        assert faults.decide("solve", "anything") is None

    def test_configure_arms_and_reset_disarms(self):
        cfg = faults.configure(rate=0.5, kinds=("error",), seed=7)
        assert faults.active()
        assert cfg.armed and cfg.rate == 0.5 and cfg.kinds == ("error",)
        faults.reset()
        assert not faults.active()
        assert faults.config() == faults.FaultConfig()

    def test_rate_zero_is_unarmed(self):
        faults.configure(rate=0.0)
        assert not faults.active()

    def test_comma_separated_strings_accepted(self):
        cfg = faults.configure(
            rate=1.0, kinds="error,delay", sites="solve,store-write"
        )
        assert cfg.kinds == ("error", "delay")
        assert cfg.sites == ("solve", "store-write")

    def test_validation(self):
        with pytest.raises(ValidationError):
            faults.configure(rate=1.5)
        with pytest.raises(ValidationError):
            faults.configure(rate=-0.1)
        with pytest.raises(ValidationError):
            faults.configure(rate=0.5, kinds=("segfault",))
        with pytest.raises(ValidationError):
            faults.configure(rate=0.5, sites=("teleport",))
        with pytest.raises(ValidationError):
            faults.configure(rate=0.5, delay_s=-1.0)

    def test_env_propagation_to_workers(self, monkeypatch):
        """Workers resolve the parent's exported env, not the parent object."""
        faults.configure(
            rate=0.25, kinds=("crash", "error"), sites=("solve",), seed=42,
            delay_s=0.01,
        )
        parent_cfg = faults.config()
        assert os.environ[faults.ENV_RATE] == "0.25"
        assert os.environ[faults.ENV_SEED] == "42"
        # a fresh pool worker has no explicit configuration — only the env
        monkeypatch.setattr(faults, "_config", None)
        assert faults.config() == parent_cfg
        assert faults.active()

    def test_invalid_env_is_a_clear_error(self, monkeypatch):
        monkeypatch.setattr(faults, "_config", None)
        monkeypatch.setenv(faults.ENV_RATE, "lots")
        with pytest.raises(ValidationError):
            faults.config()


class TestDecide:
    def test_deterministic_across_calls(self):
        faults.configure(rate=0.5, kinds=("error", "delay"), seed=3)
        keys = [f"0/model_1d#a{i}" for i in range(64)]
        first = [faults.decide("solve", k) for k in keys]
        second = [faults.decide("solve", k) for k in keys]
        assert first == second
        # a 50% rate over 64 independent draws fires at least once
        assert any(first)

    def test_seed_changes_the_draw_pattern(self):
        keys = [f"k{i}" for i in range(64)]
        faults.configure(rate=0.5, kinds=("error",), seed=1)
        pattern_a = [faults.decide("solve", k) for k in keys]
        faults.configure(rate=0.5, kinds=("error",), seed=2)
        pattern_b = [faults.decide("solve", k) for k in keys]
        assert pattern_a != pattern_b

    def test_attempt_number_gives_an_independent_draw(self):
        """A retried dispatch (key carries the attempt) re-rolls the fault —
        that is what makes injected faults *transient*."""
        faults.configure(rate=0.5, kinds=("error",), seed=0)
        flips = [
            key
            for key in (f"{i}/model_1d" for i in range(32))
            if faults.decide("solve", f"{key}#a0")
            != faults.decide("solve", f"{key}#a1")
        ]
        assert flips  # at least one node's retry draws differently

    def test_rate_one_always_fires_an_allowed_kind(self):
        faults.configure(rate=1.0, kinds=("error", "delay"), seed=9)
        for i in range(16):
            assert faults.decide("solve", f"k{i}") in ("error", "delay")

    def test_site_filtering(self):
        # 'corrupt' is data-only: it never fires at an execution site, and
        # the execution kinds never fire at the store site
        faults.configure(rate=1.0, kinds=("corrupt",), seed=0)
        assert faults.decide("solve", "k") is None
        assert faults.decide("group-solve", "k") is None
        assert faults.decide("store-write", "k") == "corrupt"
        faults.configure(rate=1.0, kinds=("crash", "error"), seed=0)
        assert faults.decide("store-write", "k") is None

    def test_worker_start_only_delays(self):
        # a worker's start takes only the slow-boot fault
        faults.configure(rate=1.0, kinds=("crash", "error", "corrupt"), seed=0)
        assert faults.decide("worker-start", "rank1") is None
        faults.configure(rate=1.0, kinds=("crash", "delay"), seed=0)
        assert faults.decide("worker-start", "rank1") == "delay"

    def test_unconfigured_site_never_fires(self):
        faults.configure(rate=1.0, kinds=("error",), sites=("solve",))
        assert faults.decide("group-solve", "k") is None


class TestInject:
    def test_error_kind_raises_solver_error(self):
        faults.configure(rate=1.0, kinds=("error",), seed=0)
        with pytest.raises(SolverError, match="injected fault at solve:k"):
            faults.inject("solve", "k")

    def test_crash_outside_a_pool_worker_raises(self):
        # in-parent (serial execution, degraded pool) a crash must be a
        # catchable exception, not an os._exit of the test process
        faults.configure(rate=1.0, kinds=("crash",), seed=0)
        with pytest.raises(WorkerCrashError):
            faults.inject("solve", "k")

    def test_delay_kind_sleeps(self):
        faults.configure(rate=1.0, kinds=("delay",), delay_s=0.05, seed=0)
        start = time.perf_counter()
        faults.inject("solve", "k")
        assert time.perf_counter() - start >= 0.05

    def test_no_fault_is_a_no_op(self):
        faults.configure(rate=0.0)
        faults.inject("solve", "k")  # must not raise

    def test_corrupt_never_fires_through_inject(self):
        faults.configure(rate=1.0, kinds=("corrupt",), seed=0)
        faults.inject("store-write", "k")  # corruption applies to bytes only


class TestCorruptText:
    def test_truncates_json_beyond_repair(self):
        faults.configure(rate=1.0, kinds=("corrupt",), seed=0)
        text = json.dumps({"a": 1, "b": [1, 2, 3]}, indent=2) + "\n"
        broken = faults.corrupt_text("store-write", "k", text)
        assert broken != text and len(broken) < len(text)
        with pytest.raises(json.JSONDecodeError):
            json.loads(broken)

    def test_passthrough_when_disarmed(self):
        assert faults.corrupt_text("store-write", "k", "payload") == "payload"

    def test_passthrough_for_other_kinds(self):
        faults.configure(rate=1.0, kinds=("delay",), seed=0)
        assert faults.corrupt_text("store-write", "k", "payload") == "payload"
