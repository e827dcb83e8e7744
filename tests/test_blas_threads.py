"""One BLAS thread per CLI process, and results that do not depend on it.

``python -m repro`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
because the engine parallelises over processes instead.  Store keys do
not include the thread count, so a solve must give the same bytes
whatever it is.  Every check runs in a fresh interpreter: the thread
count is fixed when numpy first loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: runs ``python -m repro run fig7 --fast --no-calibrate`` (what ``-m``
#: does, via runpy) and prints, last, the OPENBLAS_NUM_THREADS that numpy's
#: first import saw; it has to be a solve, as ``list`` loads no numpy
_CLI_PROBE = """
import atexit, os, runpy, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None
sys.meta_path.insert(0, Probe())
atexit.register(lambda: print("numpy saw", seen))
sys.argv = ["repro", "run", "fig7", "--fast", "--no-calibrate"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: solves one 3-D Fig. 7 point (``fem3d:16x16x32``) and prints a digest of
#: its payload's numbers, timings dropped
_SOLVE_PROBE = """
import hashlib, importlib.util, json
from dataclasses import replace
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.spec import AxisSpec
spec = importlib.util.spec_from_file_location(
    "golden_snapshot", "scripts/golden_snapshot.py"
)
golden_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_snapshot)
point = replace(
    SCENARIOS.get("fem3d_power"),
    scenario_id="blas_threads_fem3d",
    reference="fem3d:16x16x32",
    axis=AxisSpec(parameter="power_scale", values=(1.0,)),
)
payload = run_scenario(point).result.to_payload()
leaves = golden_snapshot.numeric_leaves(json.loads(json.dumps(payload, default=str)))
print(len(leaves), hashlib.blake2b(json.dumps(leaves, sort_keys=True).encode()).hexdigest())
"""


def _python(code: str, **env_overrides: str | None) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name, value in env_overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    ("preset", "expected"), [(None, "1"), ("3", "3")], ids=["unset", "user_set"]
)
def test_cli_pins_blas_threads_before_numpy_loads(preset, expected):
    line = _python(_CLI_PROBE, OPENBLAS_NUM_THREADS=preset)
    assert line == f"numpy saw [{expected!r}]"


def test_fem3d_payload_is_identical_under_one_and_two_blas_threads():
    one = _python(_SOLVE_PROBE, OPENBLAS_NUM_THREADS="1")
    two = _python(_SOLVE_PROBE, OPENBLAS_NUM_THREADS="2")
    n_leaves, _ = one.split()
    assert int(n_leaves) > 0
    assert one == two
