"""Calibration: fitting k1/k2 against a reference model."""

import pytest

from repro import ModelA, paper_tsv
from repro.calibration import fit_coefficients, radius_sweep_samples
from repro.errors import CalibrationError
from repro.resistances import FittingCoefficients
from repro.units import um


class TestFit:
    def test_recovers_known_coefficients(self, block_stack, block_power):
        # use Model A itself as the "reference": the fit must recover its
        # coefficients (well-posedness of the calibration problem)
        truth = FittingCoefficients(k1=1.42, k2=0.61)
        reference = ModelA(truth)
        samples = radius_sweep_samples(
            block_stack,
            paper_tsv(radius=um(5), liner_thickness=um(1)),
            block_power,
            [um(2), um(5), um(10), um(15)],
        )
        result = fit_coefficients(samples, reference)
        assert result.coefficients.k1 == pytest.approx(1.42, rel=1e-3)
        assert result.coefficients.k2 == pytest.approx(0.61, rel=1e-3)
        assert result.residual_rms < 1e-6

    def test_samples_with_different_plane_counts(self, block_power):
        # a spec may vary n_planes, so the samples' systems differ in size
        from repro import paper_stack

        truth = FittingCoefficients(k1=1.42, k2=0.61)
        via = paper_tsv(radius=um(5), liner_thickness=um(1))
        samples = [
            (paper_stack(n_planes=n), via.with_radius(r), block_power)
            for n, r in ((2, um(3)), (3, um(5)), (2, um(10)), (3, um(12)))
        ]
        result = fit_coefficients(samples, ModelA(truth))
        assert result.coefficients.k1 == pytest.approx(1.42, rel=1e-3)
        assert result.coefficients.k2 == pytest.approx(0.61, rel=1e-3)
        assert result.residual_rms < 1e-6

    def test_fit_against_fem_is_accurate(self, block_stack, block_power):
        from repro.fem import FEMReference

        samples = radius_sweep_samples(
            block_stack,
            paper_tsv(radius=um(5), liner_thickness=um(1)),
            block_power,
            [um(2), um(5), um(12)],
        )
        result = fit_coefficients(samples, FEMReference("coarse"))
        assert result.residual_rms < 0.05
        assert 0.5 < result.coefficients.k1 < 3.0

    def test_a_bound_holds_its_coefficient_at_the_constrained_optimum(
        self, block_stack, block_power
    ):
        truth = FittingCoefficients(k1=1.42, k2=0.61)
        samples = radius_sweep_samples(
            block_stack,
            paper_tsv(radius=um(5), liner_thickness=um(1)),
            block_power,
            [um(2), um(5), um(10), um(15)],
        )
        targets = [ModelA(truth).solve(*s).max_rise for s in samples]
        result = fit_coefficients(samples, None, bounds=(0.3, 1.4), targets=targets)
        assert result.coefficients.k1 == 1.4  # the optimum lies beyond the bound
        assert 0.3 < result.coefficients.k2 < 1.4

        def cost(k2):
            model = ModelA(FittingCoefficients(1.4, k2))
            rises = [model.solve(*s).max_rise for s in samples]
            return sum((r / t - 1.0) ** 2 for r, t in zip(rises, targets))

        k2 = result.coefficients.k2
        assert cost(k2) < cost(k2 * (1 + 1e-4))
        assert cost(k2) < cost(k2 * (1 - 1e-4))

    def test_needs_enough_samples(self, block_stack, block_power):
        samples = radius_sweep_samples(
            block_stack, paper_tsv(), block_power, [um(5)]
        )
        with pytest.raises(CalibrationError):
            fit_coefficients(samples, ModelA())

    def test_radius_sweep_samples_empty(self, block_stack, block_power):
        with pytest.raises(CalibrationError):
            radius_sweep_samples(block_stack, paper_tsv(), block_power, [])

    def test_summary_format(self, block_stack, block_power):
        truth = FittingCoefficients(1.3, 0.55)
        samples = radius_sweep_samples(
            block_stack, paper_tsv(liner_thickness=um(1)), block_power, [um(3), um(9)]
        )
        result = fit_coefficients(samples, ModelA(truth))
        text = result.summary()
        assert "k1" in text and "k2" in text and "%" in text
