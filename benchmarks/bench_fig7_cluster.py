"""Fig. 7 bench: ΔT vs cluster size at constant metal area."""

import pytest

from repro import ModelA, PowerSpec, TSVCluster, paper_tsv
from repro.experiments.params import fig7_config
from repro.fem import FEMReference
from repro.scenarios import run_scenario
from repro.units import um

from conftest import print_experiment


@pytest.mark.parametrize("n", [1, 4, 16], ids=lambda n: f"n={n}")
def test_model_a_cluster_solve(benchmark, n):
    """Model A solve time is cluster-size independent (Eq. (22) is O(1))."""
    cfg = fig7_config()
    cluster = TSVCluster(cfg.via, n)
    result = benchmark(ModelA(cfg.fit).solve, cfg.stack, cluster, cfg.power)
    assert result.max_rise > 0


@pytest.mark.parametrize("n", [1, 4, 16], ids=lambda n: f"n={n}")
def test_fem_unit_cell_solve(benchmark, n):
    """FEM unit-cell solve time per cluster size."""
    cfg = fig7_config()
    cluster = TSVCluster(cfg.via, n)
    model = FEMReference("medium")
    result = benchmark.pedantic(
        model.solve, args=(cfg.stack, cluster, cfg.power), rounds=3, iterations=1
    )
    assert result.max_rise > 0


def test_fig7_reproduction(benchmark):
    """Regenerate Fig. 7; the 1-D curve must be flat, the others falling."""
    result = benchmark.pedantic(
        lambda: run_scenario("fig7", fem_resolution="medium").result,
        rounds=1,
        iterations=1,
    )
    print_experiment(result)
    fem = result.series["fem"]
    one_d = result.series["model_1d"]
    assert fem[0] > fem[-1]
    assert (max(one_d) - min(one_d)) / min(one_d) < 0.02
