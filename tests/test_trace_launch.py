"""Smoke test of the perfbench trace launcher against the current program.

``perfbench/tracer.py`` wraps program functions and methods by name and
counts each scheduler stream's tasks with ``len()``, so a rename or
deletion in ``src/``, or a stream fed a generator, can break the
benchmark's traced runs without failing any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced(tmp_path, *argv):
    """Run ``python -m repro <argv>`` under the trace launcher; the
    process and the span texts it wrote (one per process)."""
    spans = tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_launch.py"), str(spans), *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc, [path.read_text() for path in spans.glob("*.json")]


def test_traced_fem3d_run_records_the_fem_solve_span(tmp_path):
    proc, spans = traced(tmp_path, "run", "fem3d_power", "--fast")
    assert proc.returncode == 0, proc.stderr
    assert spans
    assert any("model.fem.solve" in text for text in spans)


def test_traced_fleet_records_the_lease_spans(tmp_path):
    # a fleet worker opens one stream per claimed unit
    proc, spans = traced(
        tmp_path, "fleet", "fig7", "--fast", "--workers", "2",
        "--store", str(tmp_path / "store"),
    )
    assert proc.returncode == 0, proc.stderr
    assert any("lease.acquire" in text for text in spans)
