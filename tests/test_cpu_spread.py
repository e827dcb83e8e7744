"""``scripts/cpu_spread.py``: CPU placement samples of one CLI invocation.

Only the output format and the exit code are tested: how many samples
are spread or co-located depends on the machine and its load.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import AxisSpec, ScenarioSpec

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "cpu_spread.py"
LINE = re.compile(r"cpu_spread samples (\d+) spread (\d+) co_located (\d+)")

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)


def _cpu_spread(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


def test_reports_the_counts_of_a_two_job_batch(tmp_path):
    specs = tmp_path / "specs"
    specs.mkdir()
    for parameter, values in (("radius_um", (2.0, 3.0)), ("liner_um", (0.5, 1.0))):
        spec = ScenarioSpec(
            scenario_id=f"spread_{parameter}",
            title="CPU spread sweep",
            axis=AxisSpec(parameter=parameter, values=values),
            models=("1d",),
            reference="fem:coarse",
            calibrate=False,
        )
        (specs / f"{parameter}.json").write_text(json.dumps(spec.to_dict()))
    proc = _cpu_spread(
        "batch", str(specs), "--jobs", "2", "--store", str(tmp_path / "store")
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = [s for s in proc.stderr.splitlines() if s.startswith("cpu_spread")]
    match = LINE.fullmatch(line)
    assert match, line
    samples, spread, co_located = map(int, match.groups())
    assert samples >= 1 and spread + co_located <= samples


def test_keeps_the_command_exit_code():
    proc = _cpu_spread("run", "no_such_scenario")
    assert proc.returncode == 2
    assert LINE.search(proc.stderr)


def test_no_arguments_is_a_usage_error():
    proc = _cpu_spread()
    assert proc.returncode == 2
    assert "usage" in proc.stderr
