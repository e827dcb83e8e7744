"""The 3-D DRAM-µP case study (Section IV-E, Fig. 8).

A three-plane face-to-back stack: processor (70 W) on the heat sink,
two DRAM planes (7 W each) above; 10 mm × 10 mm footprint, 300 µm
substrates, 20 µm ILDs, 10 µm bonds, r = 30 µm TTSVs at 0.5 % area
density.  Fitting coefficients k1 = 1.6, k2 = 0.8, c_{1,2} = 3.5.

The paper reports max ΔT of 12.8 °C (Model A), 13.9 °C (Model B(1000)),
12 °C (FEM) and 20 °C (1-D) — the headline demonstration that the 1-D
model grossly overestimates and would waste TTSV resources.

Uniformly distributed vias and power let the 10 × 10 mm system be reduced
to one adiabatic unit cell per via (area πr²/density); all models solve
that cell, exactly as the paper's own "simulation of a block".
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants
from ..core.model_1d import Model1D
from ..core.model_a import ModelA
from ..core.model_b import ModelB
from ..core.result import ModelResult
from ..fem import FEMReference
from ..geometry import PowerSpec, Stack3D, TSV, paper_stack
from ..resistances import FittingCoefficients
from ..units import require_positive


@dataclass(frozen=True)
class CaseStudySystem:
    """The reduced (per-via unit cell) case-study problem."""

    full_stack: Stack3D
    cell_stack: Stack3D
    via: TSV
    cell_power: PowerSpec
    n_vias: int

    @property
    def cell_area(self) -> float:
        return self.cell_stack.footprint_area


def build_case_study(
    *,
    tsv_density: float = constants.CASE_TSV_DENSITY,
    plane_powers: tuple[float, ...] = constants.CASE_PLANE_POWERS,
    ild_fraction: float = 0.1,
) -> CaseStudySystem:
    """Construct the Fig. 8 system and its per-via unit cell.

    ``tsv_density`` is the metal-area fraction (0.5 % in the paper); the
    unit cell area is πr²/density and its power is the same fraction of
    each plane's budget.
    """
    require_positive("tsv_density", tsv_density)
    if tsv_density >= 1.0:
        raise ValueError("tsv_density must be a fraction below 1")
    full_stack = paper_stack(
        n_planes=3,
        t_si1=constants.CASE_T_SI,
        t_si_upper=constants.CASE_T_SI,
        t_ild=constants.CASE_T_D,
        t_bond=constants.CASE_T_B,
        footprint_area=constants.CASE_FOOTPRINT_AREA,
    )
    via = TSV(
        radius=constants.CASE_TSV_RADIUS,
        liner_thickness=constants.CASE_LINER_THICKNESS,
        extension=constants.PAPER_L_EXT,
    )
    cell_area = via.metal_area / tsv_density
    n_vias = int(round(full_stack.footprint_area / cell_area))
    full_power = PowerSpec(plane_powers=plane_powers, ild_fraction=ild_fraction)
    cell_power = full_power.scaled_to_area(full_stack, cell_area)
    return CaseStudySystem(
        full_stack=full_stack,
        cell_stack=full_stack.with_footprint_area(cell_area),
        via=via,
        cell_power=cell_power,
        n_vias=n_vias,
    )


@dataclass(frozen=True)
class CaseStudyReport:
    """Max ΔT (and runtimes) of every model on the case study."""

    system: CaseStudySystem
    results: dict[str, ModelResult]

    def rises(self) -> dict[str, float]:
        return {name: r.max_rise for name, r in self.results.items()}

    def rows(self) -> list[list[object]]:
        """Table rows mirroring the paper's Section IV-E numbers."""
        out: list[list[object]] = [["model", "max ΔT [°C]", "solve time [ms]"]]
        for name, r in self.results.items():
            out.append([name, r.max_rise, r.solve_time * 1e3])
        return out

    def overestimation_factor(self, model: str = "model_1d", reference: str = "fem") -> float:
        """How much ``model`` overestimates ``reference`` (the paper's
        1-D-vs-FEM headline: 20/12 ≈ 1.67)."""
        return self.results[model].max_rise / self.results[reference].max_rise


def analyze_case_study(
    system: CaseStudySystem | None = None,
    *,
    fit: FittingCoefficients | None = None,
    model_b_segments: int = 1000,
    fem_resolution: str | tuple[int, int] = "medium",
    include_fem: bool = True,
) -> CaseStudyReport:
    """Run Model A, Model B, the 1-D baseline (and FEM) on the case study.

    Model B uses the same effective bond conductance (c_{1,2}) as Model A:
    the paper's Fig. 8 lists the coefficient for the system.  README.md,
    "Substitutions and assumptions", compares this reading of c_{1,2}
    with a bare polyimide bond against the paper's numbers.
    """
    system = system or build_case_study()
    fit = fit or FittingCoefficients.paper_case_study()
    models: list = [
        ModelA(fit),
        ModelB(model_b_segments, bond_factor=fit.c_bond),
        Model1D(),  # the literature model: raw polyimide bonds, no coefficients
    ]
    results: dict[str, ModelResult] = {}
    for model in models:
        results[model.name] = model.solve(
            system.cell_stack, system.via, system.cell_power
        )
    if include_fem:
        # the physical bond interface carries metallic bond pads: the FEM
        # geometry uses the effective bond conductivity kb·c_{1,2}, which is
        # exactly what Model A/B's c coefficient approximates
        fem_stack = system.cell_stack.with_bond_conductivity_factor(fit.c_bond)
        fem = FEMReference(fem_resolution)
        results[fem.name] = fem.solve(fem_stack, system.via, system.cell_power)
    return CaseStudyReport(system=system, results=results)
