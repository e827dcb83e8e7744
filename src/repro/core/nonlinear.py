"""Temperature-dependent conductivity (nonlinear extension).

The paper's models use constant conductivities.  Silicon's conductivity,
however, drops ~0.3 %/K around room temperature, so a 40 K rise weakens the
lateral spreading path noticeably.  This extension wraps any steady-state
model in a fixed-point loop:

    solve -> per-plane temperatures -> re-evaluate k(T) per layer -> solve

which converges in a handful of iterations for the mild nonlinearity of
k(T) models (under-relaxation guards pathological cases).

Materials opt in through :attr:`repro.materials.Material.conductivity_slope`;
layers whose material has a zero slope are untouched.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.base import ThermalTSVModel
from ..core.model_a import ModelA
from ..core.result import ModelResult, NonlinearResult
from ..errors import ConvergenceError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster
from ..units import ZERO_CELSIUS, require_fraction, require_positive_int


def scale_conductivity_slopes(stack: Stack3D, scale: float) -> Stack3D:
    """The stack with every material's dk/dT multiplied by ``scale``.

    The k(T) *slope policy* of nonlinear scenarios: ``scale == 1`` keeps
    the library values (silicon ≈ -0.42 W/(m·K²)), ``0`` turns the
    nonlinearity off entirely, and intermediate/exaggerated values probe
    sensitivity.  Nominal conductivities are untouched, so the linear
    (first-iteration) solve is identical for every scale.
    """
    if scale == 1.0:
        return stack
    new_planes = tuple(
        replace(
            plane,
            substrate=replace(
                plane.substrate,
                material=replace(
                    plane.substrate.material,
                    conductivity_slope=plane.substrate.material.conductivity_slope
                    * scale,
                ),
            ),
            ild=replace(
                plane.ild,
                material=replace(
                    plane.ild.material,
                    conductivity_slope=plane.ild.material.conductivity_slope * scale,
                ),
            ),
        )
        for plane in stack.planes
    )
    new_bonds = tuple(
        replace(
            bond,
            material=replace(
                bond.material,
                conductivity_slope=bond.material.conductivity_slope * scale,
            ),
        )
        for bond in stack.bonds
    )
    return replace(stack, planes=new_planes, bonds=new_bonds)


def _stack_at_temperatures(
    base: Stack3D, plane_rises: tuple[float, ...]
) -> Stack3D:
    """Re-evaluate every layer's conductivity at its plane's temperature."""
    sink_k = base.sink_temperature + ZERO_CELSIUS
    new_planes = []
    for j, plane in enumerate(base.planes):
        t_abs = sink_k + plane_rises[j]
        substrate = plane.substrate
        ild = plane.ild
        substrate = replace(
            substrate,
            material=substrate.material.with_conductivity(
                substrate.material.conductivity_at(t_abs)
            ),
        )
        ild = replace(
            ild,
            material=ild.material.with_conductivity(
                ild.material.conductivity_at(t_abs)
            ),
        )
        new_planes.append(replace(plane, substrate=substrate, ild=ild))
    new_bonds = []
    for i, bond in enumerate(base.bonds):
        t_abs = sink_k + plane_rises[i]  # the bond sits on plane i
        new_bonds.append(
            replace(
                bond,
                material=bond.material.with_conductivity(
                    bond.material.conductivity_at(t_abs)
                ),
            )
        )
    return replace(base, planes=tuple(new_planes), bonds=tuple(new_bonds))


class NonlinearSolver:
    """Fixed-point k(T) iteration around any steady-state model.

    Parameters
    ----------
    model:
        The inner model (Model A by default; any ThermalTSVModel works,
        including the FEM reference).
    tolerance:
        Convergence threshold on the relative change of max ΔT.
    max_iterations:
        Iteration budget; exceeding it raises :class:`ConvergenceError`.
    relaxation:
        Under-relaxation factor in (0, 1]; 1 is plain fixed point.
    slope_scale:
        Multiplier on every material's dk/dT (the scenario layer's k(T)
        slope policy; see :func:`scale_conductivity_slopes`).  1 keeps the
        library slopes; the linear first solve is unaffected either way.
    """

    def __init__(
        self,
        model: ThermalTSVModel | None = None,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 30,
        relaxation: float = 1.0,
        slope_scale: float = 1.0,
    ) -> None:
        self.model = model or ModelA()
        if tolerance <= 0.0:
            raise ConvergenceError("tolerance must be positive")
        self.tolerance = tolerance
        self.max_iterations = require_positive_int("max_iterations", max_iterations)
        require_fraction("relaxation", relaxation)
        if relaxation == 0.0:
            raise ConvergenceError("relaxation must be positive")
        self.relaxation = relaxation
        if not isinstance(slope_scale, (int, float)) or isinstance(slope_scale, bool):
            raise ConvergenceError(f"slope_scale must be a number, got {slope_scale!r}")
        self.slope_scale = float(slope_scale)

    def solve(
        self,
        stack: Stack3D,
        via: TSV | TSVCluster,
        power: PowerSpec,
        *,
        initial: ModelResult | None = None,
    ) -> NonlinearResult:
        """Iterate until max ΔT stabilises.

        ``initial`` optionally supplies the constant-k first solve (the
        plain ``model.solve(stack, via, power)`` result).  Solves are
        deterministic, so passing a precomputed one is bit-identical to
        letting the loop solve it — the execution-plan scheduler uses this
        to share the linear baseline with steady-state scenarios.
        """
        rises: tuple[float, ...] | None = None
        history: list[float] = []
        result = initial if initial is not None else self.model.solve(stack, via, power)
        history.append(result.max_rise)
        rises = result.plane_rises
        stack = scale_conductivity_slopes(stack, self.slope_scale)
        for iteration in range(1, self.max_iterations + 1):
            hot_stack = _stack_at_temperatures(stack, rises)
            result = self.model.solve(hot_stack, via, power)
            new_rises = tuple(
                (1.0 - self.relaxation) * old + self.relaxation * new
                for old, new in zip(rises, result.plane_rises)
            )
            history.append(result.max_rise)
            change = abs(history[-1] - history[-2]) / max(history[-1], 1e-30)
            rises = new_rises
            if change < self.tolerance:
                return NonlinearResult(
                    result=result, iterations=iteration, history=tuple(history)
                )
        raise ConvergenceError(
            f"k(T) iteration did not converge in {self.max_iterations} steps "
            f"(last change {change:.2e})"
        )
