"""Model B per-plane aggregates (coefficient-free Eq. (21) inputs)."""

import pytest

from repro import constants, paper_stack, paper_tsv
from repro.resistances import (
    compute_model_a_resistances,
    compute_model_b_resistances,
)
from repro.units import um


@pytest.fixture()
def setup():
    stack = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
    via = paper_tsv(radius=um(5), liner_thickness=um(1))
    return stack, via


class TestAggregates:
    def test_matches_model_a_unity_metal(self, setup):
        stack, via = setup
        a = compute_model_a_resistances(stack, via)  # unity coefficients
        b = compute_model_b_resistances(stack, via)
        for pa, pb in zip(a.planes, b.planes):
            assert pb.metal_total == pytest.approx(pa.metal)
            assert pb.liner_total == pytest.approx(pa.liner)

    def test_bulk_decomposition_sums_to_model_a(self, setup):
        stack, via = setup
        a = compute_model_a_resistances(stack, via)
        b = compute_model_b_resistances(stack, via)
        for pa, pb in zip(a.planes[1:], b.planes[1:]):
            total = pb.ild_bulk + pb.substrate_bulk + pb.bond_bulk
            assert total == pytest.approx(pa.bulk)

    def test_first_plane_has_no_substrate_pieces(self, setup):
        stack, via = setup
        b = compute_model_b_resistances(stack, via)
        assert b.planes[0].substrate_bulk is None
        assert b.planes[0].bond_bulk is None
        assert b.planes[0].is_first_plane

    def test_rs_has_no_k1(self, setup):
        stack, via = setup
        b = compute_model_b_resistances(stack, via)
        expected = (constants.PAPER_T_SI1 - um(1)) / (
            constants.K_SILICON * stack.footprint_area
        )
        assert b.rs == pytest.approx(expected)

    def test_spans(self, setup):
        stack, via = setup
        b = compute_model_b_resistances(stack, via)
        assert b.planes[0].span == pytest.approx(um(8))    # tD + l_ext
        assert b.planes[1].span == pytest.approx(um(53))   # tD + tSi + tb
        assert b.planes[2].span == pytest.approx(um(46))   # tSi + tb

    def test_bond_factor_reduces_bond_only(self, setup):
        stack, via = setup
        raw = compute_model_b_resistances(stack, via)
        enhanced = compute_model_b_resistances(stack, via, bond_factor=3.5)
        assert enhanced.planes[1].bond_bulk == pytest.approx(
            raw.planes[1].bond_bulk / 3.5
        )
        assert enhanced.planes[1].substrate_bulk == pytest.approx(
            raw.planes[1].substrate_bulk
        )

    def test_bad_bond_factor(self, setup):
        stack, via = setup
        with pytest.raises(Exception):
            compute_model_b_resistances(stack, via, bond_factor=0.0)
