"""End-to-end integration: public API workflows a downstream user would run."""

import pytest

from repro import (
    ModelA,
    TSVCluster,
    make_model,
    paper_stack,
    paper_tsv,
)
from repro.analysis import export_series_csv, read_series_csv
from repro.calibration import fit_coefficients, radius_sweep_samples
from repro.fem import FEMReference
from repro.units import um


class TestFullWorkflow:
    def test_calibrate_then_design(self, block_stack, block_power):
        """The intended usage loop: calibrate once on FEM, then sweep
        designs with the cheap analytical model."""
        base = paper_tsv(radius=um(5), liner_thickness=um(1))
        samples = radius_sweep_samples(
            block_stack, base, block_power, [um(3), um(6), um(12)]
        )
        fem = FEMReference("coarse")
        fit = fit_coefficients(samples, fem)
        model = ModelA(fit.coefficients)

        # now a 20-point design scan at analytic cost
        radii = [um(r) for r in range(2, 21)]
        rises = [
            model.solve(block_stack, base.with_radius(r), block_power).max_rise
            for r in radii
        ]
        assert rises == sorted(rises, reverse=True)
        # spot-check a non-calibration point against FEM
        probe = fem.solve(block_stack, base.with_radius(um(9)), block_power)
        mid = model.solve(block_stack, base.with_radius(um(9)), block_power)
        assert mid.max_rise == pytest.approx(probe.max_rise, rel=0.08)

    def test_sweep_export_roundtrip(self, block_sweep, tmp_path):
        from repro.scenarios import run_scenario

        spec = block_sweep(("a", "b:50"), (3.0, 6.0, 12.0))
        result = run_scenario(spec).result
        series = result.series
        path = export_series_csv(tmp_path / "sweep.csv", "radius", result.x_values, series)
        label, xs, back = read_series_csv(path)
        assert label == "radius"
        assert back["model_a"] == pytest.approx(series["model_a"])

    def test_factory_models_interchangeable(self, block_stack, block_tsv, block_power):
        for spec in ("a", "b:50", "1d"):
            result = make_model(spec).solve(block_stack, block_tsv, block_power)
            assert result.max_rise > 0
            assert len(result.plane_rises) == 3

    def test_cluster_against_explicit_cartesian(self, block_power):
        """Unit-cell axisym FEM vs full 3-D Cartesian with explicit vias:
        the two independent discretisations must agree on the trend and
        roughly on magnitude."""
        stack = paper_stack(t_si_upper=um(20), t_ild=um(4), t_bond=um(1))
        via = paper_tsv(radius=um(10), liner_thickness=um(1))
        cluster = TSVCluster(via, 4)
        axi = FEMReference("coarse").solve(stack, cluster, block_power)
        cart = FEMReference((20, 20, 40), solver="cartesian").solve(
            stack, cluster, block_power
        )
        assert cart.max_rise == pytest.approx(axi.max_rise, rel=0.15)

    def test_absolute_temperature_readout(self, block_stack, block_tsv, block_power):
        result = ModelA().solve(block_stack, block_tsv, block_power)
        assert result.max_temperature == pytest.approx(27.0 + result.max_rise)
