"""Section IV-E experiment — the 3-D DRAM-µP system.

Wraps :mod:`repro.casestudy` into the experiment interface and optionally
re-runs the paper's *calibration workflow*: instead of taking k1/k2/c on
faith, fit them against our own FEM on the unit cell and report how well
the recalibrated Model A tracks the reference (the paper's 1.9-minute
"simulation of a block" step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..calibration import fit_coefficients
from ..casestudy import CaseStudyReport, analyze_case_study
from ..fem import FEMReference
from ..resistances import FittingCoefficients

EXPERIMENT_ID = "case_study"
TITLE = "Section IV-E: 3-D DRAM-uP case study"


@dataclass(frozen=True)
class CaseStudyExperiment:
    """Case-study outcome: paper-coefficient run plus optional recalibration."""

    report: CaseStudyReport
    recalibrated: FittingCoefficients | None = None
    recalibrated_rise: float | None = None
    #: wall-clock seconds of the recalibration: reference solves and fit
    calibration_time: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def title(self) -> str:
        return TITLE

    def rows(self) -> list[list[Any]]:
        out = self.report.rows()
        if self.recalibrated is not None:
            out.append(
                [
                    f"model_a (recal. k1={self.recalibrated.k1:.2f}, "
                    f"k2={self.recalibrated.k2:.2f})",
                    self.recalibrated_rise,
                    self.calibration_time * 1e3,
                ]
            )
        return out

    def to_payload(self) -> dict[str, Any]:
        runtimes_ms = {
            name: r.solve_time * 1e3 for name, r in self.report.results.items()
        }
        if self.calibration_time is not None:
            runtimes_ms["model_a_calibration"] = self.calibration_time * 1e3
        payload: dict[str, Any] = {
            "experiment_id": EXPERIMENT_ID,
            "title": TITLE,
            "rises": self.report.rises(),
            "runtimes_ms": runtimes_ms,
            "n_vias": self.report.system.n_vias,
            "metadata": self.metadata,
        }
        if self.recalibrated is not None:
            payload["recalibrated"] = {
                "k1": self.recalibrated.k1,
                "k2": self.recalibrated.k2,
                "c_bond": self.recalibrated.c_bond,
                "max_rise": self.recalibrated_rise,
            }
        return payload


def run(
    *,
    fem_resolution: str | tuple[int, int] = "medium",
    fast: bool = False,
    recalibrate: bool = True,
    model_b_segments: int = 1000,
) -> CaseStudyExperiment:
    """Run the case study; ``fast`` trims Model B to 100 segments."""
    if fast:
        model_b_segments = 100
    report = analyze_case_study(
        fem_resolution=fem_resolution, model_b_segments=model_b_segments
    )
    recalibrated = None
    recalibrated_rise = None
    calibration_time = None
    if recalibrate:
        system = report.system
        # the paper calibrates on the block itself; we fit (k1, k2) against
        # our FEM on the bond-enhanced unit cell, sampling two via radii
        fem_stack = system.cell_stack.with_bond_conductivity_factor(
            FittingCoefficients.paper_case_study().c_bond
        )
        samples = [
            (fem_stack, system.via.with_radius(r), system.cell_power)
            for r in (system.via.radius * 0.7, system.via.radius, system.via.radius * 1.3)
        ]
        start = time.perf_counter()
        # every sample has the stack and power of the report's FEM solve,
        # so the radius x 1.0 sample is that solve: reuse its rise
        reference = FEMReference(fem_resolution)
        solved = report.results[reference.name]
        fit = fit_coefficients(
            samples,
            reference,
            initial=FittingCoefficients.paper_case_study(),
            targets=[
                solved.max_rise
                if via == system.via
                else reference.solve(stack, via, power).max_rise
                for stack, via, power in samples
            ],
        )
        calibration_time = time.perf_counter() - start
        # apply the fitted k1/k2 with the physical bond factor back on the
        # raw stack (c plays the same role in both formulations)
        recalibrated = FittingCoefficients(
            fit.coefficients.k1,
            fit.coefficients.k2,
            FittingCoefficients.paper_case_study().c_bond,
        )
        from ..core.model_a import ModelA  # local import avoids a cycle

        recalibrated_rise = (
            ModelA(recalibrated)
            .solve(system.cell_stack, system.via, system.cell_power)
            .max_rise
        )
    return CaseStudyExperiment(
        report=report,
        recalibrated=recalibrated,
        recalibrated_rise=recalibrated_rise,
        calibration_time=calibration_time,
        metadata={"fast": fast, "model_b_segments": model_b_segments},
    )
