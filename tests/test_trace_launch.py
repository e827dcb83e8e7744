"""Smoke test of the perfbench trace launcher against the current program.

``perfbench/tracer.py`` wraps program functions and methods by name, so a
rename or deletion in ``src/`` can break the benchmark's traced runs
without failing any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fem3d_run_records_the_fem_solve_span(tmp_path):
    spans = tmp_path / "spans"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "trace_launch.py"),
            str(spans),
            "run",
            "fem3d_power",
            "--fast",
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    files = list(spans.glob("*.json"))
    assert files
    assert any("model.fem.solve" in path.read_text() for path in files)
