"""Parameter sensitivity of the maximum temperature rise.

Central finite differences of max ΔT with respect to each geometric
parameter, evaluated with any model (Model A by default — cheap enough for
dense Jacobians).  This operationalises the paper's Section IV discussion:
the signs and magnitudes it derives from Eqs. (7)–(16) become one function
call, and the Fig. 6 non-monotonicity shows up as a sign change of the
substrate-thickness sensitivity.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ValidationError
from ..units import require_positive

if TYPE_CHECKING:
    from ..core.base import ThermalTSVModel
    from ..geometry import PowerSpec, Stack3D, TSV

#: parameter name -> (stack, via) updater with the new absolute value
_Updater = Callable[["Stack3D", "TSV", float], "tuple[Stack3D, TSV]"]

PARAMETERS: dict[str, tuple[Callable[[Stack3D, TSV], float], _Updater]] = {
    "radius": (
        lambda stack, via: via.radius,
        lambda stack, via, v: (stack, via.with_radius(v)),
    ),
    "liner_thickness": (
        lambda stack, via: via.liner_thickness,
        lambda stack, via, v: (stack, via.with_liner_thickness(v)),
    ),
    "substrate_thickness": (
        lambda stack, via: stack.planes[-1].substrate.thickness,
        lambda stack, via, v: (stack.with_substrate_thickness(v), via),
    ),
}


@dataclass(frozen=True)
class Sensitivity:
    """One parameter's local sensitivity."""

    parameter: str
    value: float
    derivative: float  # d(max ΔT)/d(parameter), K per metre
    normalised: float  # (p/ΔT)·dΔT/dp — dimensionless elasticity

    @property
    def direction(self) -> str:
        """'heats' / 'cools' / 'neutral' as the parameter increases."""
        if self.derivative > 0.0:
            return "heats"
        if self.derivative < 0.0:
            return "cools"
        return "neutral"


def sensitivity(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    parameter: str,
    *,
    model: ThermalTSVModel | None = None,
    step: float = 0.02,
) -> Sensitivity:
    """Central-difference sensitivity of max ΔT to one parameter.

    Parameters
    ----------
    parameter:
        One of ``radius``, ``liner_thickness``, ``substrate_thickness``.
    step:
        Relative perturbation (default ±2 %).
    """
    try:
        read, update = PARAMETERS[parameter]
    except KeyError:
        raise ValidationError(
            f"unknown parameter {parameter!r}; known: {sorted(PARAMETERS)}"
        ) from None
    require_positive("step", step)
    if model is None:
        from ..core.model_a import ModelA

        model = ModelA()
    value = read(stack, via)
    delta = value * step
    lo_stack, lo_via = update(stack, via, value - delta)
    hi_stack, hi_via = update(stack, via, value + delta)
    rise_lo = model.solve(lo_stack, lo_via, power).max_rise
    rise_hi = model.solve(hi_stack, hi_via, power).max_rise
    rise_0 = model.solve(stack, via, power).max_rise
    derivative = (rise_hi - rise_lo) / (2.0 * delta)
    return Sensitivity(
        parameter=parameter,
        value=value,
        derivative=derivative,
        normalised=derivative * value / rise_0,
    )


def sensitivity_table(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    *,
    model: ThermalTSVModel | None = None,
    step: float = 0.02,
) -> list[Sensitivity]:
    """Sensitivities of every known parameter at the operating point."""
    return [
        sensitivity(stack, via, power, name, model=model, step=step)
        for name in PARAMETERS
    ]
