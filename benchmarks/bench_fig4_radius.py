"""Fig. 4 bench: ΔT vs via radius — regeneration plus per-model timings."""

import pytest

from repro import Model1D, ModelA, ModelB
from repro.experiments.params import fig4_config
from repro.fem import FEMReference
from repro.scenarios import run_scenario

from conftest import print_experiment


@pytest.fixture(scope="module")
def fig4_point():
    cfg = fig4_config(5.0)  # mid-sweep point
    return cfg.stack, cfg.via, cfg.power


@pytest.mark.parametrize(
    "model",
    [ModelA(), ModelB(100), Model1D(), FEMReference("medium")],
    ids=["model_a", "model_b_100", "model_1d", "fem"],
)
def test_fig4_point_solve(benchmark, fig4_point, model):
    """Solve time of each Fig. 4 curve's model at r = 5 um."""
    stack, via, power = fig4_point
    result = benchmark(model.solve, stack, via, power)
    assert result.max_rise > 0


def test_fig4_reproduction(benchmark):
    """Regenerate the full Fig. 4 series (all models, all radii)."""
    result = benchmark.pedantic(
        lambda: run_scenario("fig4", fem_resolution="medium").result,
        rounds=1,
        iterations=1,
    )
    print_experiment(result)
    # the paper's qualitative claim: every model falls with r in each regime
    a = result.series["model_a"]
    assert a[0] > a[-1]
