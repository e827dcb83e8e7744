"""Calibration of Model A's fitting coefficients against a reference.

The paper determines k1 and k2 "by the simulation of a block of the
investigated circuit" (Section IV-E): run the detailed solver once on a
small representative structure, then least-squares-fit the coefficients so
Model A tracks it.  :func:`fit_coefficients` reproduces that workflow
against any reference model (normally :class:`~repro.fem.FEMReference`).

The fit is a bounded two-parameter Levenberg–Marquardt in numpy.  k1
divides every vertical Model A resistance and k2 every lateral one, so
each sample is stamped once as ``G = k1·G_vert + k2·G_lat``
(:func:`~repro.core.model_a.split_system`); one residual evaluation is
then one stacked dense solve per system size, and the Jacobian follows
from the same systems (``∂T/∂k1 = −G⁻¹·G_vert·T``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..core.base import ThermalTSVModel
from ..core.model_a import ModelA, split_system
from ..errors import CalibrationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster
from ..network.solve import solve_dense_stacked
from ..resistances import FittingCoefficients

#: one calibration sample: the geometry/power triple Model A must match
Sample = tuple[Stack3D, "TSV | TSVCluster", PowerSpec]

#: stop once a step moves (k1, k2) by less than this, relative
XTOL = 1e-12
#: ... or an accepted step lowers the cost by less than this, relative
FTOL = 1e-15
#: evaluations before the fit gives up
MAX_EVALUATIONS = 200


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a coefficient fit."""

    coefficients: FittingCoefficients
    residual_rms: float  # RMS relative ΔT error after the fit
    reference_rises: tuple[float, ...]
    fitted_rises: tuple[float, ...]
    n_evaluations: int

    def summary(self) -> str:
        c = self.coefficients
        return (
            f"k1 = {c.k1:.3f}, k2 = {c.k2:.3f}, c_bond = {c.c_bond:.3f} "
            f"(RMS rel. error {self.residual_rms * 100.0:.2f} % over "
            f"{len(self.reference_rises)} samples)"
        )


class _StackedModelA:
    """Model A's max rise at every sample, as functions of (k1, k2).

    Samples are grouped by system size (a spec may vary the plane count),
    and each group is solved as one stack; rows keep the sample order.
    """

    def __init__(self, samples: Sequence[Sample], targets: np.ndarray) -> None:
        systems = [split_system(stack, via, power) for stack, via, power in samples]
        self.groups = []
        for size in sorted({len(q) for _, _, q in systems}):
            rows = [i for i, (_, _, q) in enumerate(systems) if len(q) == size]
            self.groups.append(
                (
                    np.array(rows),
                    np.stack([systems[i][0] for i in rows]),  # G_vert
                    np.stack([systems[i][1] for i in rows]),  # G_lat
                    np.stack([systems[i][2] for i in rows]),  # q
                )
            )
        self.targets = targets
        self.evaluations = 0

    def residuals(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Relative max-rise errors at ``x``, with each group's solved systems."""
        self.evaluations += 1
        predicted = np.empty(len(self.targets))
        solved = []
        for rows, vertical, lateral, rhs in self.groups:
            matrices = x[0] * vertical + x[1] * lateral
            temps = solve_dense_stacked(matrices, rhs)
            predicted[rows] = temps.max(axis=1)
            solved.append((matrices, temps))
        return (predicted - self.targets) / self.targets, solved

    def jacobian(self, solved: list) -> np.ndarray:
        """∂residual/∂(k1, k2), one row per sample."""
        jac = np.empty((len(self.targets), 2))
        for (rows, vertical, lateral, _), (matrices, temps) in zip(self.groups, solved):
            hottest = temps.argmax(axis=1)
            pull = np.stack(
                [
                    -np.einsum("mij,mj->mi", vertical, temps),
                    -np.einsum("mij,mj->mi", lateral, temps),
                ],
                axis=2,
            )
            sensitivity = np.linalg.solve(matrices, pull)  # (m, n, 2)
            jac[rows] = sensitivity[np.arange(len(rows)), hottest, :]
        return jac / self.targets[:, None]


def _levenberg_marquardt(
    model: _StackedModelA, x0: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    """Minimise ½‖r‖² over the box [lower, upper]² from ``x0``.

    Marquardt-scaled damping; a coordinate at a bound whose gradient
    pushes outward is held there while the other one moves.
    """
    x = np.clip(x0, lower, upper)
    r, solved = model.residuals(x)
    jac = model.jacobian(solved)
    cost = 0.5 * float(r @ r)
    damping = 1e-3
    while model.evaluations < MAX_EVALUATIONS:
        gradient = jac.T @ r
        blocked = ((x <= lower) & (gradient > 0.0)) | ((x >= upper) & (gradient < 0.0))
        free = ~blocked
        if not free.any():
            return x
        normal = (jac.T @ jac)[np.ix_(free, free)]
        scale = np.maximum(np.diag(normal), 1e-300)
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(normal + damping * np.diag(scale), -gradient[free])
        trial = np.clip(x + step, lower, upper)
        if np.linalg.norm(trial - x) <= XTOL * (XTOL + np.linalg.norm(x)):
            return x
        r_trial, solved_trial = model.residuals(trial)
        cost_trial = 0.5 * float(r_trial @ r_trial)
        if cost_trial >= cost:
            damping *= 10.0
            continue
        converged = cost - cost_trial <= FTOL * cost
        x, r, cost = trial, r_trial, cost_trial
        if converged:
            return x
        jac = model.jacobian(solved_trial)
        damping = max(damping / 10.0, 1e-12)
    raise CalibrationError(
        f"least-squares fit did not converge in {MAX_EVALUATIONS} evaluations"
    )


def fit_coefficients(
    samples: Sequence[Sample],
    reference: ThermalTSVModel | None,
    *,
    initial: FittingCoefficients | None = None,
    bounds: tuple[float, float] = (0.05, 20.0),
    targets: Sequence[float] | None = None,
) -> CalibrationResult:
    """Least-squares fit of (k1, k2) to a reference model, at c_bond = 1.

    Parameters
    ----------
    samples:
        Calibration points — vary the parameter(s) the model will later be
        used to sweep (the paper calibrates on one representative block).
        At least two samples are needed to constrain two coefficients.
    reference:
        The trusted model, usually an :class:`~repro.fem.FEMReference`.
        May be ``None`` when ``targets`` is given.
    initial:
        Starting (k1, k2); defaults to unity coefficients.
    bounds:
        Common (lower, upper) bounds for both coefficients.
    targets:
        Precomputed reference max-ΔT rises, one per sample.  The
        execution-plan scheduler passes these when the reference solves
        already ran as plan nodes; the fit is then pure optimisation and
        never touches the reference model.  Identical floats in, identical
        coefficients out — the fit itself is deterministic.
    """
    if len(samples) < 2:
        raise CalibrationError("need at least 2 samples to constrain the coefficients")
    if targets is not None:
        if len(targets) != len(samples):
            raise CalibrationError(
                f"got {len(targets)} targets for {len(samples)} samples"
            )
        targets = np.asarray(targets, dtype=float)
    else:
        if reference is None:
            raise CalibrationError("need a reference model or explicit targets")
        targets = np.array(
            [
                reference.solve(stack, via, power).max_rise
                for stack, via, power in samples
            ]
        )
    if np.any(targets <= 0.0):
        raise CalibrationError("reference produced non-positive temperature rises")
    start = initial or FittingCoefficients.unity()
    model = _StackedModelA(samples, targets)
    x = _levenberg_marquardt(model, np.array([start.k1, start.k2]), *bounds)
    coefficients = FittingCoefficients(k1=float(x[0]), k2=float(x[1]))
    fitted = ModelA(coefficients)
    fitted_rises = tuple(
        fitted.solve(stack, via, power).max_rise for stack, via, power in samples
    )
    residual = np.asarray(fitted_rises) / targets - 1.0
    return CalibrationResult(
        coefficients=coefficients,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        reference_rises=tuple(float(t) for t in targets),
        fitted_rises=fitted_rises,
        n_evaluations=model.evaluations,
    )


def radius_sweep_samples(
    stack: Stack3D,
    base_via: TSV,
    power: PowerSpec,
    radii: Sequence[float],
) -> list[Sample]:
    """Convenience: calibration samples varying the via radius."""
    if not radii:
        raise CalibrationError("need at least one radius")
    return [(stack, base_via.with_radius(r), power) for r in radii]
