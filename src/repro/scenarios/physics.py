"""Physics-kind execution: transient and nonlinear scenarios as plan work.

The spec layer declares *what* a transient or nonlinear scenario is
(:class:`~repro.scenarios.spec.TransientParams` /
:class:`~repro.scenarios.spec.NonlinearParams`); this module supplies the
pieces that make those kinds executable through the same machinery the
steady-state sweeps use:

* :func:`build_transient_circuit` — Model A's network with thermal mass
  attached per the capacitance policy (the circuit the RC step response
  integrates);
* :class:`TransientModel` — a model-shaped adapter around one network +
  time grid.  It dispatches through the ordinary
  :class:`~repro.perf.PointTask` machinery; because the backward-Euler
  left-hand matrix C/dt + G is power-independent, trajectories sharing a
  network share its factor through :data:`repro.perf.factor_cache`;
* :class:`NonlinearModel` — the k(T) fixed-point chain around any inner
  model, seeded with a precomputed linear baseline (a plain
  :class:`~repro.scenarios.plan.SolveNode` shared — and deduplicated —
  with steady-state scenarios at the same point);
* :class:`TransientExperiment` / :class:`NonlinearExperiment` — the
  scenario-level result containers with exact JSON payload round-trips
  for the run store (defined in :mod:`repro.scenarios.results`, which
  loads without the solvers);
* :func:`run_transient_spec_direct` / :func:`run_nonlinear_spec_direct` —
  the reference implementations: plain :func:`~repro.network.step_response`
  / :class:`~repro.core.nonlinear.NonlinearSolver` library calls, which
  the planned path must match byte-for-byte (asserted by tests and the
  bench checks).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.factory import make_model
from ..core.model_a import ModelA, build_model_a_circuit, bulk_node
from ..core.nonlinear import NonlinearResult, NonlinearSolver
from ..core.result import ModelResult
from ..errors import ExperimentError, ValidationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from ..network import (
    ThermalCircuit,
    TransientResult,
    pulse_train_scales,
    step_response,
)
from .results import NonlinearExperiment, TransientExperiment
from .spec import NonlinearParams, ScenarioSpec, TransientParams

#: x-axis placeholder for axis-less physics scenarios (one base-geometry point)
BASE_POINT_VALUE = "base"
BASE_POINT_LABEL = "geometry"


def transient_model_name(inner_name: str) -> str:
    """Report/series name of a transient trajectory of one inner model."""
    return f"transient({inner_name})"


def nonlinear_model_name(inner_name: str) -> str:
    """Report/series name of a k(T) fixed point around one inner model."""
    return f"nonlinear({inner_name})"


def default_observed_nodes(stack: Stack3D) -> tuple[str, ...]:
    """The plane bulk nodes — what a transient scenario observes by default."""
    return tuple(bulk_node(j) for j in range(stack.n_planes))


def plane_capacitance(stack: Stack3D, plane_index: int, policy: str) -> float:
    """Thermal capacitance (J/K) lumped onto one plane's bulk node.

    ``"plane_lumped"`` spreads the substrate material's ρ·cp over the
    plane's full thickness (the library's historical transient example);
    ``"substrate_ild"`` sums the substrate and ILD capacities from their
    own materials and thicknesses.
    """
    plane = stack.planes[plane_index]
    if policy == "plane_lumped":
        return (
            stack.footprint_area
            * plane.thickness
            * plane.substrate.material.volumetric_heat_capacity
        )
    if policy == "substrate_ild":
        return stack.footprint_area * (
            plane.substrate.thickness
            * plane.substrate.material.volumetric_heat_capacity
            + plane.ild.thickness * plane.ild.material.volumetric_heat_capacity
        )
    raise ValidationError(f"unknown capacitance policy {policy!r}")


def build_transient_circuit(
    model: ModelA,
    stack: Stack3D,
    via: TSV | TSVCluster,
    power: PowerSpec,
    capacitance: str = "plane_lumped",
) -> ThermalCircuit:
    """Model A's Fig. 2 network with per-plane thermal mass attached.

    The resistive skeleton and the heat sources are exactly what the
    steady-state :class:`~repro.core.model_a.ModelA` solve assembles; the
    capacitance policy adds one capacitor per plane bulk node, turning
    G·ΔT = q into the RC system C·dΔT/dt + G·ΔT = q(t).
    """
    if not isinstance(model, ModelA):
        raise ValidationError(
            f"transient circuits are built from Model A networks, "
            f"got {type(model).__name__}"
        )
    cluster = as_cluster(via)
    validate_tsv_in_stack(stack, cluster.member)
    heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
    circuit = build_model_a_circuit(model.resistances(stack, cluster), heats)
    for j, _plane in stack.iter_planes():
        circuit.add_capacitor(
            bulk_node(j), plane_capacitance(stack, j, capacitance)
        )
    return circuit


# ---------------------------------------------------------------------------
# model-shaped adapters (the units the scheduler dispatches)
# ---------------------------------------------------------------------------
class TransientModel:
    """One RC step response as a dispatchable, model-shaped unit of work.

    ``solve(stack, via, power)`` integrates the backward-Euler trajectory
    of the inner Model A network under the given drive power and returns
    the :class:`~repro.network.TransientResult` restricted to the observed
    nodes.  The adapter carries only the *right-hand-side-invariant*
    configuration plus the drive shape — time grid, capacitance policy,
    observed nodes, pulse-train parameters — never the drive *level*:
    the plan bakes ``power_scale`` into each node's power, and the drive
    shape only rescales the per-step sources, so the left-hand matrix
    C/dt + G is shared across drive levels: in one process its factor is
    computed once and every further trajectory of the network hits
    :data:`repro.perf.factor_cache` (factorization is deterministic, so
    the results are bit-identical either way).
    """

    def __init__(
        self,
        model: ModelA,
        params: TransientParams,
        observe: tuple[str, ...],
    ) -> None:
        self.model = model
        self.t_end_s = params.t_end_s
        self.n_steps = params.n_steps
        self.capacitance = params.capacitance
        self.drive = params.drive
        self.period_s = params.period_s
        self.duty = params.duty
        self.observe = tuple(observe)
        self.name = transient_model_name(model.name)

    def _drive_scales(self) -> np.ndarray | None:
        """Per-step source scales, or ``None`` for the constant step drive."""
        if self.drive == "step":
            return None
        return pulse_train_scales(
            self.t_end_s, self.n_steps, self.period_s, self.duty
        )

    def _circuit(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> ThermalCircuit:
        return build_transient_circuit(
            self.model, stack, via, power, self.capacitance
        )

    def solve(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> TransientResult:
        result = step_response(
            self._circuit(stack, via, power),
            t_end=self.t_end_s,
            n_steps=self.n_steps,
            drive=self._drive_scales(),
        )
        return result.observed(self.observe)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TransientModel {self.name!r}>"


class NonlinearModel:
    """One k(T) fixed-point chain as a dispatchable, model-shaped unit.

    ``initial`` optionally carries the precomputed constant-k baseline —
    the plan lowers it as an ordinary solve node shared (and deduplicated)
    with steady-state scenarios, and the scheduler hands the landed result
    in here.  Solves are deterministic, so seeded and unseeded chains are
    bit-identical.
    """

    def __init__(
        self,
        model: Any,
        params: NonlinearParams,
        initial: ModelResult | None = None,
    ) -> None:
        self.model = model
        self.params = params
        self.initial = initial
        self.name = nonlinear_model_name(model.name)

    def solve(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> NonlinearResult:
        solver = NonlinearSolver(
            self.model,
            tolerance=self.params.tolerance,
            max_iterations=self.params.max_iterations,
            relaxation=self.params.relaxation,
            slope_scale=self.params.slope_scale,
        )
        return solver.solve(stack, via, power, initial=self.initial)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NonlinearModel {self.name!r}>"


# ---------------------------------------------------------------------------
# direct (reference) execution — plain library calls, no plan machinery
# ---------------------------------------------------------------------------
def _drive_power(power: PowerSpec, params: TransientParams) -> PowerSpec:
    return power if params.power_scale == 1.0 else power.scaled(params.power_scale)


def run_transient_spec_direct(
    spec: ScenarioSpec, *, fast: bool = False
) -> TransientExperiment:
    """A transient scenario via direct :func:`step_response` library calls.

    The reference implementation the planned path must match byte-for-byte
    (same expansion into points, but every trajectory integrated by plain
    library composition — no nodes, caches or stores involved).
    """
    from .plan import scenario_axis_points

    params = spec.transient
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    drive = (
        pulse_train_scales(
            params.t_end_s, params.n_steps, params.period_s, params.duty
        )
        if params.drive == "pulse_train"
        else None
    )
    results: dict[str, list[TransientResult]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = transient_model_name(inner.name)
        if name in results:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        trajectories = []
        for stack, via, power in points:
            circuit = build_transient_circuit(
                inner, stack, via, _drive_power(power, params), params.capacitance
            )
            full = step_response(
                circuit, t_end=params.t_end_s, n_steps=params.n_steps, drive=drive
            )
            trajectories.append(
                full.observed(params.observe or default_observed_nodes(stack))
            )
        results[name] = trajectories
    return TransientExperiment(
        experiment_id=spec.scenario_id,
        title=spec.title,
        x_label=x_label,
        x_values=list(values),
        results=results,
        metadata={
            **dict(spec.metadata), "fast": fast, "spec_hash": spec.content_hash(),
        },
    )


def run_nonlinear_spec_direct(
    spec: ScenarioSpec, *, fast: bool = False
) -> NonlinearExperiment:
    """A nonlinear scenario via direct :class:`NonlinearSolver` library calls."""
    from .plan import scenario_axis_points

    params = spec.nonlinear
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    results: dict[str, list[NonlinearResult]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = nonlinear_model_name(inner.name)
        if name in results:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        solver = NonlinearSolver(
            inner,
            tolerance=params.tolerance,
            max_iterations=params.max_iterations,
            relaxation=params.relaxation,
            slope_scale=params.slope_scale,
        )
        results[name] = [
            solver.solve(stack, via, power) for stack, via, power in points
        ]
    return NonlinearExperiment(
        experiment_id=spec.scenario_id,
        title=spec.title,
        x_label=x_label,
        x_values=list(values),
        results=results,
        metadata={
            **dict(spec.metadata), "fast": fast, "spec_hash": spec.content_hash(),
        },
    )
