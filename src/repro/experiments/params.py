"""Paper block geometries, straight from the captions.

Figs. 4–7 all use the Section-IV block (100 µm × 100 µm, 500 µm first
substrate, SiO2 ILD/liner, polyimide bond, copper fill, k1 = 1.3,
k2 = 0.55); each figure varies one parameter and fixes the rest as listed
in its caption.  The swept values live in the builtin scenario specs
(:mod:`repro.scenarios.builtin`); these builders give single points of
those sweeps to tests and to ``scripts/same_run_gate.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import PowerSpec, Stack3D, TSV, paper_stack, paper_tsv
from ..resistances import FittingCoefficients
from ..units import um


@dataclass(frozen=True)
class BlockConfig:
    """One fully specified Section-IV block geometry."""

    stack: Stack3D
    via: TSV
    power: PowerSpec
    fit: FittingCoefficients

    def with_via(self, via: TSV) -> "BlockConfig":
        return BlockConfig(self.stack, via, self.power, self.fit)


def _block(
    *, t_si_upper: float, t_ild: float, t_bond: float, radius: float, liner: float
) -> BlockConfig:
    return BlockConfig(
        stack=paper_stack(t_si_upper=t_si_upper, t_ild=t_ild, t_bond=t_bond),
        via=paper_tsv(radius=radius, liner_thickness=liner),
        power=PowerSpec(),
        fit=FittingCoefficients.paper_block(),
    )


# ---------------------------------------------------------------------------
# Fig. 4 — radius sweep.  Caption: tL = 0.5 µm, tD = 4 µm, tb = 1 µm;
# tSi2 = tSi3 = 5 µm for r ≤ 5 µm, 45 µm for r > 5 µm (aspect-ratio limit).
# ---------------------------------------------------------------------------
FIG4_THIN_SUBSTRATE_UM = 5.0
FIG4_THICK_SUBSTRATE_UM = 45.0
FIG4_RADIUS_SWITCH_UM = 5.0


def fig4_config(radius_um: float) -> BlockConfig:
    """The Fig. 4 block at one swept radius (µm)."""
    t_si = (
        FIG4_THIN_SUBSTRATE_UM
        if radius_um <= FIG4_RADIUS_SWITCH_UM
        else FIG4_THICK_SUBSTRATE_UM
    )
    return _block(
        t_si_upper=um(t_si),
        t_ild=um(4.0),
        t_bond=um(1.0),
        radius=um(radius_um),
        liner=um(0.5),
    )


# ---------------------------------------------------------------------------
# Fig. 5 / Table I — liner sweep.  Caption: r = 5 µm, tD = 7 µm, tb = 1 µm,
# tSi2 = tSi3 = 45 µm.
# ---------------------------------------------------------------------------
def fig5_config(liner_um: float) -> BlockConfig:
    """The Fig. 5 block at one swept liner thickness (µm)."""
    return _block(
        t_si_upper=um(45.0),
        t_ild=um(7.0),
        t_bond=um(1.0),
        radius=um(5.0),
        liner=um(liner_um),
    )


# ---------------------------------------------------------------------------
# Fig. 7 — cluster sweep.  Caption: tL = 1 µm, tD = 4 µm, tb = 1 µm,
# tSi2 = tSi3 = 20 µm, r0 = 10 µm; a via divided into 1/2/4/9/16 members.
# ---------------------------------------------------------------------------
def fig7_config() -> BlockConfig:
    """The (fixed) Fig. 7 block; the sweep varies only the member count."""
    return _block(
        t_si_upper=um(20.0),
        t_ild=um(4.0),
        t_bond=um(1.0),
        radius=um(10.0),
        liner=um(1.0),
    )
