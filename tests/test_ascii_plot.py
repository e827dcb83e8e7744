"""The plain-Python ``ascii_plot`` draws exactly what the numpy one drew.

``ascii_plot`` used to place its markers with ``np.rint`` over float
arrays; it now uses ``round()`` over Python floats, so a store hit renders
without importing numpy.  Both round half to even and both run the same
double operations in the same order, so the text must match byte for
byte.  The numpy body is kept here as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ascii_plot
from repro.analysis.ascii_plot import MARKERS
from repro.scenarios import SCENARIOS, ExperimentResult, run_scenario


def numpy_ascii_plot(x, series, *, width=72, height=20, x_label="", y_label=""):
    """The numpy implementation ``ascii_plot`` replaced (validation elided)."""
    xs = np.asarray(list(x), dtype=float)
    all_y = [np.asarray(list(ys), dtype=float) for ys in series.values()]
    y_min = min(float(a.min()) for a in all_y)
    y_max = max(float(a.max()) for a in all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(xs.min()), float(xs.max())

    canvas = [[" "] * width for _ in range(height)]
    for marker, (name, ys) in zip(MARKERS, series.items()):
        arr = np.asarray(list(ys), dtype=float)
        cols = np.rint((xs - x_min) / (x_max - x_min) * (width - 1)).astype(int)
        rows = np.rint((arr - y_min) / (y_max - y_min) * (height - 1)).astype(int)
        for c, r in zip(cols, rows):
            canvas[height - 1 - r][c] = marker

    left = [f"{y_max:10.2f} |", *(["           |"] * (height - 2)), f"{y_min:10.2f} |"]
    lines = [lab + "".join(row) for lab, row in zip(left, canvas)]
    lines.append("           +" + "-" * width)
    x_axis = f"{x_min:<12.3g}{' ' * max(0, width - 24)}{x_max:>12.3g}"
    lines.append("            " + x_axis)
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(MARKERS, series.keys())
    )
    lines.append(f"   legend: {legend}")
    if x_label or y_label:
        lines.append(f"   x: {x_label}   y: {y_label}")
    return "\n".join(lines)


def _same(x, series, **kwargs):
    assert ascii_plot(x, series, **kwargs) == numpy_ascii_plot(x, series, **kwargs)


@pytest.mark.parametrize("seed", range(40))
def test_random_series(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    width = int(rng.integers(16, 100))
    height = int(rng.integers(6, 30))
    x = np.sort(rng.uniform(-50.0, 200.0, n)).tolist()
    series = {
        f"s{i}": (rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), n) + rng.normal(0, 5)).tolist()
        for i in range(int(rng.integers(1, len(MARKERS) + 1)))
    }
    _same(x, series, width=width, height=height, x_label="x", y_label="y")


@pytest.mark.parametrize("offset", [0.0, -17.0, -1000.0])
def test_exact_half_cell_ties(offset):
    # x spans width - 1 and y spans height - 1, both powers of two, so
    # k + 0.5 scales to exactly k + 0.5 cells: both must round it half to even
    width, height = 65, 17
    x = [0.0, *(k + 0.5 for k in range(width - 1)), float(width - 1)]
    ys = [offset + (k % (height - 1)) + 0.5 for k in range(width - 1)]
    series = {
        "ties": [offset, *ys, offset + height - 1.0],
        "mirror": [offset + height - 1.0, *reversed(ys), offset],
    }
    cells = [(y - offset) / (height - 1) * (height - 1) for y in ys]
    assert all(cell % 1.0 == 0.5 for cell in cells)
    _same(x, series, width=width, height=height)


@pytest.mark.parametrize(
    "x, series",
    [
        ([0.0, 1.0], {"two": [1.0, 2.0]}),
        ([3, 7], {"ints": [-2, 5], "flat": [1, 1]}),
        ([1, 2, 3, 4, 5], {"flat": [2.5, 2.5, 2.5, 2.5, 2.5]}),
        ([-4.0, -1.0, 2.0], {"neg": [-3.25, -0.5, -7.75], "pos": [0.125, 9.5, 3.0]}),
        (list(range(11)), {"line": [float(v) for v in range(11)]}),
    ],
)
def test_edge_cases(x, series):
    _same(x, series)
    _same(x, series, width=16, height=6)


@pytest.fixture(scope="module")
def sweep_results():
    """Every builtin sweep's ``--fast`` result: the runs the CLI plots.

    The transient, nonlinear and case-study runs print tables only.
    """
    from repro import perf

    perf.reset()
    yield [
        run_scenario(spec.scenario_id, fast=True).result
        for spec in SCENARIOS.specs()
        if spec.kind == "sweep"
    ]
    perf.reset()


def test_every_builtin_plot_is_unchanged(sweep_results):
    assert len(sweep_results) == 6
    for result in sweep_results:
        assert isinstance(result, ExperimentResult)
        assert result.plot_text() == numpy_ascii_plot(
            [float(v) for v in result.x_values],
            result.series,
            width=72,
            height=18,
            x_label=result.x_label,
            y_label="max ΔT [°C]",
        ), result.experiment_id
