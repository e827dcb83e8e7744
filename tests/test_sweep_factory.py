"""Sweep scenarios and the model factory."""

import pytest

from repro import Model1D, ModelA, ModelB, make_model
from repro.errors import ExperimentError, ValidationError
from repro.scenarios import AxisSpec, run_scenario


class TestSweep:
    def test_radius_sweep(self, block_sweep):
        result = run_scenario(block_sweep(("a",), (2.0, 5.0, 10.0))).result
        assert result.x_values == [2.0, 5.0, 10.0]
        assert set(result.series) == {"model_a", "model_1d"}
        assert len(result.series["model_a"]) == 3

    def test_rows_layout(self, block_sweep):
        result = run_scenario(block_sweep(("a",), (2.0, 5.0))).result
        lines = result.table_text().splitlines()
        assert lines[0].split() == ["radius", "[um]", "model_a", "model_1d"]
        assert len(lines) == 2 + 2  # header, rule, one row per value

    def test_duplicate_model_names_rejected(self, block_sweep):
        with pytest.raises(ExperimentError):
            run_scenario(block_sweep(("a", "a")))

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            AxisSpec(parameter="radius_um", values=())

    def test_unknown_model_in_point(self, block_sweep):
        result = run_scenario(block_sweep(("a",), (2.0,))).result
        with pytest.raises(ValidationError):
            result.sweep_result.points[0].rise("nope")

    def test_result_series_returns_full_results(self, block_sweep):
        result = run_scenario(block_sweep(("a",), (2.0, 5.0))).result
        assert all(
            r.model_name == "model_a"
            for r in result.sweep_result.result_series("model_a")
        )


class TestFactory:
    def test_model_a(self):
        assert isinstance(make_model("a"), ModelA)
        assert isinstance(make_model("model_a"), ModelA)

    def test_model_b_default(self):
        model = make_model("b")
        assert isinstance(model, ModelB)
        assert model.name == "model_b(100)"

    def test_model_b_with_segments(self):
        assert make_model("b:500").name == "model_b(500)"
        assert make_model("model_b:20").name == "model_b(20)"

    def test_model_1d(self):
        assert isinstance(make_model("1d"), Model1D)

    def test_unknown_spec(self):
        with pytest.raises(ValidationError):
            make_model("model_c")

    def test_bad_segment_arg(self):
        with pytest.raises(ValidationError):
            make_model("b:many")

    def test_a_rejects_bad_argument(self):
        with pytest.raises(ValidationError):
            make_model("a:3")
        with pytest.raises(ValidationError):
            make_model("a:blockish")

    def test_a_named_fits(self):
        from repro.resistances import FittingCoefficients

        assert make_model("a:paper").fit == FittingCoefficients.paper_block()
        assert make_model("a:unity").fit == FittingCoefficients.unity()
        assert make_model("a:case").fit == FittingCoefficients.paper_case_study()

    def test_a_explicit_coefficients(self):
        model = make_model("a:1.6,0.8,3.5")
        assert (model.fit.k1, model.fit.k2, model.fit.c_bond) == (1.6, 0.8, 3.5)
        assert make_model("a:1.3,0.55").fit.c_bond == 1.0

    def test_b_per_plane_scheme(self):
        model = make_model("b:50,500,500")
        assert model.name == "model_b(500)"
        assert model._scheme_obj.plane_segments == (50, 500, 500)

    def test_fem_references(self):
        from repro.fem import FEMReference
        from repro.fem.reference import AXISYM_PRESETS

        fem = make_model("fem")
        assert isinstance(fem, FEMReference)
        assert fem.resolution == AXISYM_PRESETS["medium"]
        assert make_model("fem:coarse").resolution == AXISYM_PRESETS["coarse"]
        assert make_model("fem:36x90").resolution == (36, 90)
        fem3d = make_model("fem3d:24x24x48")
        assert fem3d.solver == "cartesian"
        assert fem3d.resolution == (24, 24, 48)

    def test_fem_bad_mesh(self):
        with pytest.raises(ValidationError):
            make_model("fem:36x90x10")  # 2-D solver, 3-D mesh
        with pytest.raises(ValidationError):
            make_model("fem:huge")
        with pytest.raises(ValidationError):
            make_model("fem:0x90")  # degenerate mesh fails at parse time
        with pytest.raises(ValidationError):
            make_model("fem3d:24x-1x48")

    def test_b_rejects_non_positive_segments(self):
        with pytest.raises(ValidationError):
            make_model("b:0")
        with pytest.raises(ValidationError):
            make_model("b:0,100,100")

    def test_parse_without_construction(self):
        from repro.core.factory import parse_model_spec

        assert parse_model_spec("b:500").arg == 500
        assert parse_model_spec("fem3d").arg == "medium"
        with pytest.raises(ValidationError):
            parse_model_spec("b:1,x")

    def test_kwargs_forwarded(self):
        from repro.resistances import FittingCoefficients

        model = make_model("a", fit=FittingCoefficients.unity())
        assert model.fit.k1 == 1.0

    def test_empty_spec(self):
        with pytest.raises(ValidationError):
            make_model("")
