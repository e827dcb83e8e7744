"""Fig. 5 bench: ΔT vs liner thickness — regeneration plus model timings."""

import pytest

from repro import Model1D, ModelA, ModelB
from repro.fem import FEMReference
from repro.scenarios import run_scenario

from conftest import print_experiment


@pytest.mark.parametrize(
    "model",
    [ModelA(), ModelB(100), Model1D(), FEMReference("medium")],
    ids=["model_a", "model_b_100", "model_1d", "fem"],
)
def test_fig5_point_solve(benchmark, fig5_block, model):
    """Solve time of each Fig. 5 model at tL = 1 um."""
    stack, via, power = fig5_block
    result = benchmark(model.solve, stack, via, power)
    assert result.max_rise > 0


def test_fig5_reproduction(benchmark):
    """Regenerate Fig. 5: A, B(1/20/100/500), 1-D and FEM across liners."""
    result = benchmark.pedantic(
        lambda: run_scenario("fig5", fem_resolution="medium").result,
        rounds=1,
        iterations=1,
    )
    print_experiment(result)
    # liner thickening heats the stack for the lateral-aware models
    fem = result.series["fem"]
    assert fem[-1] > fem[0]
