"""Temperature-dependent conductivity extension."""

import pytest

from repro import ModelA, PowerSpec, paper_stack, paper_tsv
from repro.core import NonlinearSolver
from repro.errors import ConvergenceError
from repro.geometry import Stack3D
from repro.materials import Material
from repro.units import um


@pytest.fixture()
def point():
    stack = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
    return stack, paper_tsv(radius=um(5), liner_thickness=um(1)), PowerSpec()


class TestNonlinearSolver:
    def test_converges_quickly(self, point):
        result = NonlinearSolver().solve(*point)
        assert result.iterations <= 10
        assert result.max_rise > 0.0

    def test_hotter_than_linear_for_falling_k(self, point):
        # silicon's k drops with T -> the self-consistent solve is hotter
        linear = ModelA().solve(*point).max_rise
        nonlinear = NonlinearSolver().solve(*point).max_rise
        assert nonlinear > linear
        # but only mildly for a ~40 K rise
        assert nonlinear < linear * 1.15

    def test_linear_error_metric(self, point):
        result = NonlinearSolver().solve(*point)
        assert result.linear_error < 0.0  # constant-k underestimates here
        assert abs(result.linear_error) < 0.15

    def test_constant_k_materials_are_fixed_point(self, point):
        stack, via, power = point
        # rebuild the stack with zero-slope materials: one iteration suffices
        def flat(m: Material) -> Material:
            return Material(
                m.name + "_flat",
                thermal_conductivity=m.thermal_conductivity,
            )

        from dataclasses import replace

        planes = tuple(
            replace(
                p,
                substrate=replace(p.substrate, material=flat(p.substrate.material)),
                ild=replace(p.ild, material=flat(p.ild.material)),
            )
            for p in stack.planes
        )
        bonds = tuple(
            replace(b, material=flat(b.material)) for b in stack.bonds
        )
        flat_stack = Stack3D(
            planes=planes, bonds=bonds, footprint_area=stack.footprint_area
        )
        result = NonlinearSolver().solve(flat_stack, via, power)
        linear = ModelA().solve(flat_stack, via, power).max_rise
        assert result.max_rise == pytest.approx(linear, rel=1e-9)
        assert result.iterations == 1

    def test_history_recorded(self, point):
        result = NonlinearSolver().solve(*point)
        assert len(result.history) == result.iterations + 1
        assert result.history[-1] == pytest.approx(result.max_rise)

    def test_iteration_budget_enforced(self, point):
        with pytest.raises(ConvergenceError):
            NonlinearSolver(tolerance=1e-16, max_iterations=2).solve(*point)

    def test_bad_relaxation(self):
        with pytest.raises(Exception):
            NonlinearSolver(relaxation=0.0)

    def test_under_relaxation_converges_too(self, point):
        full = NonlinearSolver().solve(*point)
        relaxed = NonlinearSolver(relaxation=0.5).solve(*point)
        assert relaxed.max_rise == pytest.approx(full.max_rise, rel=1e-3)
