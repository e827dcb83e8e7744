"""Stack3D tests: layout, z-coordinates, sweep helpers."""

import math

import pytest

from repro import constants, paper_stack
from repro.errors import GeometryError
from repro.geometry import LayerKind, Stack3D
from repro.units import um


class TestConstruction:
    def test_paper_stack_has_three_planes(self):
        assert paper_stack().n_planes == 3

    def test_bond_count_must_match(self):
        stack = paper_stack()
        with pytest.raises(GeometryError):
            Stack3D(
                planes=stack.planes,
                bonds=stack.bonds[:1],
                footprint_area=stack.footprint_area,
            )

    def test_bond_kind_enforced(self):
        stack = paper_stack()
        bad = stack.planes[0].ild  # a dielectric, not a bond
        with pytest.raises(GeometryError):
            Stack3D(
                planes=stack.planes,
                bonds=(bad, stack.bonds[1]),
                footprint_area=stack.footprint_area,
            )

    def test_needs_at_least_one_plane(self):
        with pytest.raises(GeometryError):
            Stack3D(planes=(), bonds=(), footprint_area=1e-8)

    def test_single_plane_stack_allowed(self):
        stack = paper_stack(n_planes=1)
        assert stack.n_planes == 1
        assert stack.bonds == ()

    def test_footprint_side_and_radius(self):
        stack = paper_stack()
        assert stack.footprint_side == pytest.approx(um(100))
        assert stack.equivalent_radius == pytest.approx(
            math.sqrt(constants.PAPER_FOOTPRINT_AREA / math.pi)
        )


class TestZCoordinates:
    def test_layer_intervals_are_contiguous(self):
        stack = paper_stack()
        intervals = stack.layer_intervals()
        assert intervals[0].z0 == 0.0
        for a, b in zip(intervals, intervals[1:]):
            assert b.z0 == pytest.approx(a.z1)
        assert intervals[-1].z1 == pytest.approx(stack.total_height)

    def test_layer_order_within_plane(self):
        kinds = [iv.kind for iv in paper_stack().layer_intervals()]
        assert kinds == [
            LayerKind.SUBSTRATE, LayerKind.DIELECTRIC, LayerKind.BOND,
            LayerKind.SUBSTRATE, LayerKind.DIELECTRIC, LayerKind.BOND,
            LayerKind.SUBSTRATE, LayerKind.DIELECTRIC,
        ]

    def test_substrate_top_first_plane(self):
        stack = paper_stack()
        assert stack.substrate_top(0) == pytest.approx(constants.PAPER_T_SI1)

    def test_ild_interval_belongs_to_plane(self):
        stack = paper_stack()
        iv = stack.ild_interval(1)
        assert iv.plane_index == 1
        assert iv.kind is LayerKind.DIELECTRIC

    def test_tsv_span(self):
        stack = paper_stack()
        z0, z1 = stack.tsv_span(um(1))
        assert z0 == pytest.approx(constants.PAPER_T_SI1 - um(1))
        assert z1 == pytest.approx(stack.substrate_top(2))

    def test_tsv_span_rejects_deep_extension(self):
        stack = paper_stack()
        with pytest.raises(GeometryError):
            stack.tsv_span(um(600))

    def test_substrate_top_out_of_range(self):
        with pytest.raises(GeometryError):
            paper_stack().substrate_top(7)
        with pytest.raises(GeometryError):
            paper_stack().substrate_top(-1)

    def test_substrate_top_is_the_substrate_interval_top_exactly(self):
        for stack in (paper_stack(), paper_stack(n_planes=5, t_si_upper=um(17.3))):
            tops = [
                iv.z1 for iv in stack.layer_intervals()
                if iv.kind is LayerKind.SUBSTRATE
            ]
            assert [stack.substrate_top(j) for j in range(stack.n_planes)] == tops


class TestSweepHelpers:
    def test_with_substrate_thickness_default_skips_first(self):
        stack = paper_stack().with_substrate_thickness(um(20))
        assert stack.planes[0].substrate.thickness == pytest.approx(constants.PAPER_T_SI1)
        assert stack.planes[1].substrate.thickness == pytest.approx(um(20))
        assert stack.planes[2].substrate.thickness == pytest.approx(um(20))

    def test_with_substrate_thickness_explicit_planes(self):
        stack = paper_stack().with_substrate_thickness(um(20), planes=(2,))
        assert stack.planes[1].substrate.thickness != pytest.approx(um(20))
        assert stack.planes[2].substrate.thickness == pytest.approx(um(20))

    def test_with_substrate_thickness_bad_plane(self):
        with pytest.raises(GeometryError):
            paper_stack().with_substrate_thickness(um(20), planes=(5,))

    def test_with_footprint_area(self):
        cell = paper_stack().with_footprint_area(1e-9)
        assert cell.footprint_area == pytest.approx(1e-9)

    def test_with_bond_conductivity_factor(self):
        stack = paper_stack().with_bond_conductivity_factor(3.5)
        for b in stack.bonds:
            assert b.material.thermal_conductivity == pytest.approx(0.15 * 3.5)
        # original untouched
        for b in paper_stack().bonds:
            assert b.material.thermal_conductivity == pytest.approx(0.15)

    def test_bond_below(self):
        stack = paper_stack()
        assert stack.bond_below(1) is stack.bonds[0]
        with pytest.raises(GeometryError):
            stack.bond_below(0)
