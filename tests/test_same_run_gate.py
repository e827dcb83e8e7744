"""``scripts/same_run_gate.py`` fails each check on the regression it guards.

The gate's passing runs are timings and stay out of tier-1; what tier-1
pins is that every check can fail: a ``_wins`` check with its tier off on
both sides, and the checksum bound with 10% injected into the verified
reads.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "scripts" / "same_run_gate.py"


def _load_gate():
    spec = importlib.util.spec_from_file_location("same_run_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
CHECKS = {check.name: check for check in gate.CHECKS}
#: few pairs: an injected regression is far past every threshold
PAIRS = 3
#: the checksum check on a smaller store, walked 15 times
CHECKSUM_POINTS, CHECKSUM_PAIRS = 1_000, 150


def test_the_gate_holds_the_four_checks_at_their_thresholds():
    bounds = {
        name: (check.threshold, check.at_most) for name, check in CHECKS.items()
    }
    assert bounds == {
        "multi_rhs_batched_wins": (2.0, False),
        "parallel_group_dispatch_wins": (1.5, False),
        "stacked_batched_wins": (3.0, False),
        "checksum_under_5pct": (1.05, True),
    }
    # 1 µs a read: 5 ms over a 5000-point pass
    floor_per_pass = CHECKS["checksum_under_5pct"].floor_s * 5_000 / gate.CHUNK
    assert floor_per_pass == pytest.approx(0.005)


@pytest.mark.parametrize(
    "times, ok",
    [
        ([(2.0, 1.0), (2.2, 1.0), (1.0, 1.0)], True),
        ([(1.9, 1.0), (2.2, 1.0), (1.0, 1.0)], False),
    ],
    ids=["at-threshold", "under-threshold"],
)
def test_wins_judge_compares_the_median_pair_ratio(times, ok):
    check = CHECKS["multi_rhs_batched_wins"]
    assert check.judge(times)[1] is ok


@pytest.mark.parametrize(
    "times, ok",
    [
        ([(1.0, 1.04), (1.0, 1.2), (1.0, 1.0)], True),
        ([(1.0, 1.06), (1.0, 1.2), (1.0, 1.0)], False),
        # past the ratio, but 60 µs a pair: under the absolute floor
        ([(0.001, 0.00106), (0.001, 0.0012), (0.001, 0.00106)], True),
    ],
    ids=["within-ratio", "past-ratio", "past-ratio-under-floor"],
)
def test_overhead_judge_compares_the_median_pair_ratio_or_floor(times, ok):
    check = CHECKS["checksum_under_5pct"]
    assert check.judge(times)[1] is ok


def test_pairs_alternate_which_side_goes_first():
    calls = []
    times = gate.paired_times(
        lambda: calls.append("a"), lambda: calls.append("b"), 3
    )
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert len(times) == 3


WINS_SIDES = {
    "multi_rhs_batched_wins": gate.multi_rhs_sides,
    "parallel_group_dispatch_wins": gate.parallel_group_sides,
    "stacked_batched_wins": gate.stacked_sides,
}


@pytest.mark.parametrize("name", WINS_SIDES)
def test_wins_check_fails_with_its_tier_off(name):
    sides = WINS_SIDES[name](stack_batches=False)
    ratio, ok = gate.run_check(CHECKS[name], sides, PAIRS)
    assert not ok, f"{name} passed at {ratio:.2f}x with stacking off"


def test_checksum_check_fails_on_a_10pct_verify_overhead(tmp_path):
    plain, verified = gate.checksum_sides(tmp_path, CHECKSUM_POINTS)

    def verified_and_10pct():
        start = time.perf_counter()
        verified()
        until = time.perf_counter() + 0.10 * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass

    ratio, ok = gate.run_check(
        CHECKS["checksum_under_5pct"], (plain, verified_and_10pct), CHECKSUM_PAIRS
    )
    assert not ok, f"passed at {ratio:.3f}x with 10% injected"
