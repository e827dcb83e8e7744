"""Fig. 6 bench: ΔT vs substrate thickness (the non-monotonic result)."""

import pytest

from repro import Model1D, ModelA, ModelB, PowerSpec, paper_stack, paper_tsv
from repro.analysis import crossover_points
from repro.fem import FEMReference
from repro.scenarios import run_scenario
from repro.units import um

from conftest import print_experiment


@pytest.fixture(scope="module")
def fig6_point():
    stack = paper_stack(t_si_upper=um(20.0), t_ild=um(7.0), t_bond=um(1.0))
    via = paper_tsv(radius=um(8.0), liner_thickness=um(1.0))
    return stack, via, PowerSpec()


@pytest.mark.parametrize(
    "model",
    [ModelA(), ModelB(100), Model1D(), FEMReference("medium")],
    ids=["model_a", "model_b_100", "model_1d", "fem"],
)
def test_fig6_point_solve(benchmark, fig6_point, model):
    """Solve time at the ΔT-minimum substrate thickness (20 um)."""
    stack, via, power = fig6_point
    result = benchmark(model.solve, stack, via, power)
    assert result.max_rise > 0


def test_fig6_reproduction(benchmark):
    """Regenerate Fig. 6 and check the non-monotonicity headline."""
    result = benchmark.pedantic(
        lambda: run_scenario("fig6", fem_resolution="medium").result,
        rounds=1,
        iterations=1,
    )
    minima = crossover_points(result.x_values, result.series["fem"])
    print_experiment(
        result,
        extra=f"FEM ΔT minimum near tSi ≈ {minima[0]:.1f} um (paper: ≈ 20 um)"
        if minima
        else "no FEM minimum found",
    )
    assert minima, "FEM curve should be non-monotonic in substrate thickness"
