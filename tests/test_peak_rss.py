"""``scripts/peak_rss.py``: the peak RSS of one CLI invocation's tree."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "peak_rss.py"


def _peak_rss(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


def test_passes_output_through_and_reports_the_peak():
    proc = _peak_rss("list")
    assert proc.returncode == 0, proc.stderr
    assert "fig7" in proc.stdout
    (line,) = [s for s in proc.stderr.splitlines() if s.startswith("peak_rss_mb")]
    match = re.fullmatch(r"peak_rss_mb (\d+\.\d)", line)
    assert match and float(match.group(1)) > 0.0, line


def test_keeps_the_command_exit_code():
    proc = _peak_rss("run", "no_such_scenario")
    assert proc.returncode == 2
    assert "peak_rss_mb" in proc.stderr


def test_no_arguments_is_a_usage_error():
    proc = _peak_rss()
    assert proc.returncode == 2
    assert "usage" in proc.stderr
