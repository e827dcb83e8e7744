"""TSV and TSVCluster (Eq. (22) transform) tests."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import TSV, TSVCluster, as_cluster, paper_tsv
from repro.materials import TUNGSTEN
from repro.units import um


class TestTSV:
    def test_outer_radius(self):
        via = TSV(radius=um(5), liner_thickness=um(0.5))
        assert via.outer_radius == pytest.approx(um(5.5))

    def test_metal_area(self):
        via = TSV(radius=um(5), liner_thickness=um(0.5))
        assert via.metal_area == pytest.approx(math.pi * um(5) ** 2)

    def test_occupied_area_includes_liner(self):
        via = TSV(radius=um(5), liner_thickness=um(0.5))
        assert via.occupied_area == pytest.approx(math.pi * um(5.5) ** 2)

    def test_aspect_ratio(self):
        via = TSV(radius=um(5), liner_thickness=um(0.5))
        assert via.aspect_ratio(um(50)) == pytest.approx(5.0)

    def test_default_materials(self):
        via = paper_tsv()
        assert via.fill.name == "copper"
        assert via.liner.name == "silicon_dioxide"

    def test_custom_fill(self):
        via = TSV(radius=um(2), liner_thickness=um(0.1), fill=TUNGSTEN)
        assert via.fill is TUNGSTEN

    def test_with_radius(self):
        via = paper_tsv(radius=um(5))
        assert via.with_radius(um(10)).radius == pytest.approx(um(10))
        assert via.radius == pytest.approx(um(5))

    def test_with_liner_thickness(self):
        via = paper_tsv(liner_thickness=um(0.5))
        assert via.with_liner_thickness(um(2)).liner_thickness == pytest.approx(um(2))

    def test_rejects_zero_radius(self):
        with pytest.raises(Exception):
            TSV(radius=0.0, liner_thickness=um(0.5))

    def test_negative_extension_rejected(self):
        with pytest.raises(Exception):
            TSV(radius=um(5), liner_thickness=um(0.5), extension=-um(1))

    def test_zero_extension_allowed(self):
        assert TSV(radius=um(5), liner_thickness=um(0.5), extension=0.0).extension == 0.0


class TestTSVCluster:
    def test_member_radius_scaling(self):
        cluster = TSVCluster(paper_tsv(radius=um(10)), 4)
        assert cluster.member_radius == pytest.approx(um(5))

    def test_metal_area_preserved(self):
        base = paper_tsv(radius=um(10))
        for n in (1, 2, 4, 9, 16):
            cluster = TSVCluster(base, n)
            assert cluster.total_metal_area == pytest.approx(base.metal_area)

    def test_occupied_area_grows_with_count(self):
        base = paper_tsv(radius=um(10), liner_thickness=um(1))
        areas = [TSVCluster(base, n).total_occupied_area for n in (1, 4, 16)]
        assert areas[0] < areas[1] < areas[2]

    def test_lateral_perimeter_grows_sqrt_n(self):
        base = paper_tsv(radius=um(10))
        p1 = TSVCluster(base, 1).total_lateral_perimeter
        p4 = TSVCluster(base, 4).total_lateral_perimeter
        assert p4 == pytest.approx(2.0 * p1)

    def test_member_geometry(self):
        cluster = TSVCluster(paper_tsv(radius=um(10), liner_thickness=um(1)), 4)
        member = cluster.member
        assert member.radius == pytest.approx(um(5))
        assert member.liner_thickness == pytest.approx(um(1))

    def test_with_count(self):
        cluster = TSVCluster(paper_tsv(), 1)
        assert cluster.with_count(9).count == 9

    def test_count_must_be_positive_int(self):
        with pytest.raises(Exception):
            TSVCluster(paper_tsv(), 0)

    def test_as_cluster_normalises(self):
        via = paper_tsv()
        cluster = as_cluster(via)
        assert isinstance(cluster, TSVCluster)
        assert cluster.count == 1
        assert as_cluster(cluster) is cluster

    def test_as_cluster_rejects_other(self):
        with pytest.raises(GeometryError):
            as_cluster("via")
