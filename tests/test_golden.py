"""Tolerance golden snapshot of the builtin scenarios' ``--fast`` payloads.

``tests/golden/builtin_fast.json`` (written by
``scripts/golden_snapshot.py``) holds every non-timing numeric leaf of
the 9 builtins.  The comparison is at ``rtol=atol=1e-6``, not byte-exact:
a change of sparse ordering or BLAS moves the last ulps of every FEM
solve, and the least-squares refit of calibrated Model A amplifies that
to ~1e-7, while a physics or model change moves these numbers by far
more.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "builtin_fast.json"


def _load_snapshot_script():
    spec = importlib.util.spec_from_file_location(
        "golden_snapshot", ROOT / "scripts" / "golden_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden_snapshot = _load_snapshot_script()
EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True, scope="module")
def _cold_caches():
    """Start cold and leave no cached solves behind for later modules."""
    from repro import perf

    perf.reset()
    yield
    perf.reset()


def test_golden_covers_every_builtin():
    assert sorted(EXPECTED) == sorted(golden_snapshot.builtin_ids())


def test_numeric_leaves_drop_timings_strings_and_bools():
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
def test_builtin_fast_matches_golden(scenario_id):
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
