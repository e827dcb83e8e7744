"""Golden snapshots of the builtin scenarios' payloads.

Both files are written by ``scripts/golden_snapshot.py``.

``tests/golden/builtin_fast.json`` holds every non-timing numeric leaf of
the 9 builtins' ``--fast`` payloads.  The comparison is at
``rtol=atol=1e-6``, not byte-exact: a change of sparse ordering or BLAS
moves the last ulps of every FEM solve, and the least-squares refit of
calibrated Model A amplifies that to ~1e-7, while a physics or model
change moves these numbers by far more.

``tests/golden/builtin_digests.json`` pins the bytes: one blake2b per
builtin in fast and in full mode, taken from the eager one-sweep-at-a-time
reference driver the planned path replaced.  They are compared only in
the environment that made them (Python minor, numpy, scipy, machine,
numpy's SIMD extensions); elsewhere that test skips and names what
differs.  The tiers test runs everywhere: grouped and stacked dispatch
must give the same bytes as one-point-at-a-time dispatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "builtin_fast.json"
EXPECTED = json.loads(GOLDEN.read_text())
DIGEST_RUNS = sorted(
    json.loads((ROOT / "tests" / "golden" / "builtin_digests.json").read_text())[
        "digests"
    ]
)


@pytest.fixture(autouse=True, scope="module")
def _cold_caches():
    """Leave no cached solves behind for later modules."""
    from repro import perf

    yield
    perf.reset()


def test_golden_covers_every_builtin(golden_snapshot):
    assert sorted(EXPECTED) == sorted(golden_snapshot.builtin_ids())


def test_numeric_leaves_drop_timings_strings_and_bools(golden_snapshot):
    payload = {
        "runtimes_ms": {"fem": 3.0},
        "title": "t",
        "metadata": {
            "fast": True,
            "table_rows": [["model", "max err %", "time [ms]"], ["a", 1.5, 9.0]],
        },
        "result": {"solve_time": 0.1, "max_rise": 2.0, "x": [1, 2]},
    }
    assert golden_snapshot.numeric_leaves(payload) == {
        "/metadata/table_rows/1/1": 1.5,
        "/result/max_rise": 2.0,
        "/result/x/0": 1.0,
        "/result/x/1": 2.0,
    }


@pytest.mark.parametrize("scenario_id", sorted(EXPECTED))
def test_builtin_fast_matches_golden(scenario_id, golden_snapshot):
    got = golden_snapshot.snapshot(scenario_id)
    want = EXPECTED[scenario_id]
    assert sorted(got) == sorted(want)
    paths = sorted(want)
    np.testing.assert_allclose(
        [got[p] for p in paths],
        [want[p] for p in paths],
        rtol=1e-6,
        atol=1e-6,
        err_msg=f"{scenario_id} drifted from {GOLDEN.name}",
    )


def test_digests_cover_every_builtin_in_both_modes(golden_snapshot):
    assert DIGEST_RUNS == sorted(
        f"{sid}/{mode}"
        for sid in golden_snapshot.builtin_ids()
        for mode in golden_snapshot.MODES
    )


@pytest.mark.parametrize("run_id", DIGEST_RUNS)
def test_cold_planned_run_matches_eager_digest(
    run_id, cold_planned, eager_digest, golden_snapshot
):
    want = eager_digest(run_id)
    assert golden_snapshot.payload_digest(cold_planned(run_id)) == want


@pytest.mark.parametrize("run_id", DIGEST_RUNS)
def test_batching_tiers_do_not_change_the_bytes(run_id, cold_planned, golden_snapshot):
    tiers_on = cold_planned(run_id)
    tiers_off = cold_planned(run_id, group_matrices=False, stack_batches=False)
    assert golden_snapshot.canonical_json(tiers_on) == golden_snapshot.canonical_json(
        tiers_off
    )
