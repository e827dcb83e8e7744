"""Execution-plan compiler: scenarios → a flat DAG of content-keyed nodes.

:func:`compile_plan` lowers a list of *resolved*
:class:`~repro.scenarios.spec.ScenarioSpec`\\ s into one merged task graph
whose nodes are the individual units of work a scenario decomposes into:

* :class:`SolveNode` — one model solved at one (stack, via, power) point,
  keyed by :func:`repro.perf.solve_key` (the same content key the run
  store's point space uses, so plan identity and point identity
  coincide);
* :class:`CalibrationNode` — a k1/k2 coefficient fit against reference
  rises, depending on the reference :class:`SolveNode`\\ s at its sample
  points (which are shared with the sweep itself);
* :class:`CaseStudyNode` — the Section IV-E case study as one opaque
  unit, keyed by its spec hash.

Identical keys across scenarios merge into a single node — a batch of
scenarios sharing calibration samples, FEM reference solves or whole
sweep points solves each shared point exactly once (the
amortize-shared-structure win; counted as ``plan_nodes_deduped`` in
:func:`repro.perf.stats`).  The :mod:`~repro.scenarios.scheduler`
topologically executes the merged graph; :func:`assemble_scenario` then
rebuilds each scenario's :class:`~repro.scenarios.results.ExperimentResult`
from the executed nodes (:func:`repro.experiments.harness.assemble_experiment`).
``tests/golden/builtin_digests.json`` pins the bytes of every builtin's
payload.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..core.factory import make_model, parse_model_spec
from ..core.sweep import Configurator, expand_points
from ..errors import ExperimentError, ValidationError
from ..experiments.harness import (
    assemble_experiment,
    calibration_sample_indexes,
)
from ..experiments.table1_segments import rows_from_fig5
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, paper_stack, paper_tsv
from ..perf import calibration_key, content_key, increment, model_key, solve_key
from ..units import um
from .physics import (
    BASE_POINT_LABEL,
    BASE_POINT_VALUE,
    TransientModel,
    default_observed_nodes,
    nonlinear_model_name,
    transient_model_name,
)
from .spec import ScenarioSpec

#: the model name calibration nodes materialise (the paper's workflow)
CALIBRATED_MODEL_NAME = "model_a_cal"


def is_content_key(key: str) -> bool:
    """Whether ``key`` is a stable content address.

    ``opaque:`` fallback keys (unpicklable work) are unique per compile —
    they must never be persisted to the point store or folded into
    derived content keys, or two unrelated nodes could alias across
    compiles.
    """
    return not key.startswith("opaque:")


def _power_spec(spec: ScenarioSpec) -> PowerSpec:
    kwargs = dict(spec.power)
    if kwargs.get("plane_powers") is not None:
        kwargs["plane_powers"] = tuple(kwargs["plane_powers"])
    return PowerSpec(**kwargs)


def _build_geometry(geo: Mapping[str, Any]) -> tuple[Stack3D, TSV]:
    """(stack, via) for one resolved geometry-parameter mapping."""
    stack = paper_stack(
        n_planes=geo["n_planes"],
        t_si_upper=um(geo["t_si_upper_um"]),
        t_ild=um(geo["t_ild_um"]),
        t_bond=um(geo["t_bond_um"]),
    )
    via_kwargs: dict[str, float] = {
        "radius": um(geo["radius_um"]),
        "liner_thickness": um(geo["liner_um"]),
    }
    if geo["extension_um"] is not None:
        via_kwargs["extension"] = um(geo["extension_um"])
    return stack, paper_tsv(**via_kwargs)


def _configurator(spec: ScenarioSpec) -> Configurator:
    """The (stack, via, power) callback a sweep spec expands into."""
    axis = spec.axis
    assert axis is not None  # guaranteed by ScenarioSpec validation
    base = spec.geometry.to_dict()
    power = _power_spec(spec)

    def configure(value):
        geo = dict(base)
        for rule in spec.rules:
            if rule.applies(value):
                geo.update(rule.set)
        if axis.parameter not in ("cluster_count", "power_scale"):
            geo[axis.parameter] = float(value)
        stack, via = _build_geometry(geo)
        point_power = (
            power.scaled(float(value))
            if axis.parameter == "power_scale"
            else power
        )
        if axis.parameter == "cluster_count":
            return stack, TSVCluster(via, int(value)), point_power
        return stack, via, point_power

    return configure


def scenario_axis_points(
    spec: ScenarioSpec,
) -> tuple[str, list[Any], list[tuple[Stack3D, Any, PowerSpec]]]:
    """(x_label, values, points) a physics scenario expands into.

    With an ``axis`` this is the ordinary sweep expansion (geometry rules
    included); without one, a single point at the spec's base geometry
    under the :data:`BASE_POINT_VALUE` placeholder.  Shared by the plan
    compiler and the direct reference runners so both expand identically.
    """
    if spec.axis is not None:
        values = list(spec.axis.values)
        return spec.axis.x_label, values, expand_points(values, _configurator(spec))
    stack, via = _build_geometry(spec.geometry.to_dict())
    return BASE_POINT_LABEL, [BASE_POINT_VALUE], [(stack, via, _power_spec(spec))]


# ---------------------------------------------------------------------------
# plan nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SolveNode:
    """One model solved at one sweep point.

    ``model`` is the concrete model instance, or ``None`` for a calibrated
    model that only exists once its ``calibration`` node has run (the
    scheduler materialises it from the fitted coefficients).

    ``assembly_key`` is the content hash of the linear system the solve
    assembles — the model's :meth:`~repro.core.base.ThermalTSVModel.assembly_key`
    at (stack, via), independent of the power/RHS — or ``None`` when the
    model declares no power-independent assembly.  Ready nodes sharing an
    ``assembly_key`` solve as one shared-matrix set of a
    :class:`~repro.perf.StackedBatchTask` (factor once, one RHS per point).
    """

    key: str
    stack: Any
    via: Any
    power: Any
    model_name: str
    model: Any = None
    calibration: str | None = None  # key of the CalibrationNode, if any
    assembly_key: str | None = None

    @property
    def kind(self) -> str:
        return "solve"

    @property
    def deps(self) -> tuple[str, ...]:
        return () if self.calibration is None else (self.calibration,)


@dataclass(frozen=True)
class CalibrationNode:
    """A coefficient fit whose targets are reference solve nodes."""

    key: str
    sample_keys: tuple[str, ...]  # reference SolveNode keys, sample order
    samples: tuple[Any, ...]  # (stack, via, power) triples, sample order
    name: str = CALIBRATED_MODEL_NAME

    @property
    def kind(self) -> str:
        return "calibrate"

    @property
    def deps(self) -> tuple[str, ...]:
        return self.sample_keys


@dataclass(frozen=True)
class CaseStudyNode:
    """The Section IV-E case study as one opaque, content-keyed unit."""

    key: str
    spec: ScenarioSpec

    @property
    def kind(self) -> str:
        return "case_study"

    @property
    def deps(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class TransientNode:
    """One backward-Euler trajectory: a network + time grid + drive power.

    ``model`` is a :class:`~repro.scenarios.physics.TransientModel`
    adapter; the node dispatches as a point task.  The trajectory
    factors its power-independent left-hand matrix C/dt + G once and
    reuses the factor for every step.
    """

    key: str
    stack: Any
    via: Any
    power: Any
    model_name: str
    model: Any

    @property
    def kind(self) -> str:
        return "transient"

    @property
    def deps(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class NonlinearNode:
    """One k(T) fixed-point chain seeded by its linear baseline.

    ``linear`` is the key of the plain (constant-k) :class:`SolveNode` of
    the inner ``model`` at the same point — an ordinary content-keyed node
    that deduplicates against steady-state scenarios wherever the stack is
    unchanged, and (for models with a power-independent assembly) rides
    a shared-matrix set of the stacked tier.  The chain itself
    re-assembles at updated conductivities every iteration, so it runs
    as a per-point dispatch once its baseline lands.
    """

    key: str
    stack: Any
    via: Any
    power: Any
    model_name: str
    model: Any  # the inner steady-state model (not an adapter)
    params: Any  # NonlinearParams
    linear: str

    @property
    def kind(self) -> str:
        return "nonlinear"

    @property
    def deps(self) -> tuple[str, ...]:
        return (self.linear,)


PlanNode = SolveNode | CalibrationNode | CaseStudyNode | TransientNode | NonlinearNode

#: node types the scheduler dispatches onto the sweep executors (the rest
#: — calibrations, case studies — run in the parent process)
DISPATCH_NODE_TYPES = (SolveNode, TransientNode, NonlinearNode)


# ---------------------------------------------------------------------------
# per-scenario assembly records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepAssembly:
    """Everything needed to rebuild one sweep's ExperimentResult from nodes."""

    x_label: str
    values: tuple[Any, ...]
    model_names: tuple[str, ...]  # non-reference models, report order
    reference_name: str
    #: model name -> node key per value index (includes the reference)
    node_keys: dict[str, tuple[str, ...]]
    metadata: dict[str, Any]
    postprocess: str | None = None


@dataclass(frozen=True)
class PhysicsAssembly:
    """Everything needed to rebuild one physics scenario from its nodes."""

    kind: str  # "transient" | "nonlinear"
    x_label: str
    values: tuple[Any, ...]
    model_names: tuple[str, ...]  # adapter names, report order
    #: model name -> node key per value index
    node_keys: dict[str, tuple[str, ...]]
    metadata: dict[str, Any]


@dataclass(frozen=True)
class ScenarioPlan:
    """One scenario's slice of the merged plan."""

    spec: ScenarioSpec  # resolved; its content hash is the run-store key
    run_key: str
    assembly: SweepAssembly | None = None  # sweeps
    node_key: str | None = None  # case studies
    physics: PhysicsAssembly | None = None  # transient / nonlinear


@dataclass
class ExecutionPlan:
    """The compiled, deduplicated task graph for a batch of scenarios."""

    nodes: dict[str, PlanNode] = field(default_factory=dict)
    scenarios: list[ScenarioPlan] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=lambda: {
        "nodes_total": 0,
        "nodes_deduped": 0,
        "solve_nodes": 0,
        "calibrate_nodes": 0,
        "case_study_nodes": 0,
        "transient_nodes": 0,
        "nonlinear_nodes": 0,
    })
    _opaque: int = 0

    def add(self, node: PlanNode) -> str:
        """Insert ``node``, merging with an existing identical node."""
        existing = self.nodes.get(node.key)
        if existing is not None:
            if existing.kind != node.kind:  # pragma: no cover - hash collision
                raise ExperimentError(
                    f"plan key collision between {existing.kind!r} and "
                    f"{node.kind!r} nodes: {node.key}"
                )
            self.stats["nodes_deduped"] += 1
            return node.key
        self.nodes[node.key] = node
        self.stats["nodes_total"] += 1
        self.stats[f"{node.kind}_nodes"] = (
            self.stats.get(f"{node.kind}_nodes", 0) + 1
        )
        return node.key

    def next_opaque_key(self, hint: str) -> str:
        """A unique non-content key for unhashable work (never dedups)."""
        self._opaque += 1
        return f"opaque:{hint}:{self._opaque}"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------
def _solve_node_key(plan: ExecutionPlan, model: Any, stack, via, power) -> str:
    key = solve_key(model, stack, via, power)
    if key is None:  # unpicklable model: still runs, just never dedups
        key = plan.next_opaque_key(getattr(model, "name", "model"))
    return key


def _compile_sweep(plan: ExecutionPlan, spec: ScenarioSpec, *, fast: bool) -> None:
    axis = spec.axis
    assert axis is not None
    values = list(axis.values)
    points = expand_points(values, _configurator(spec))
    reference = make_model(spec.reference)
    models = [make_model(m) for m in spec.models]
    model_names = [m.name for m in models]
    if spec.calibrate:
        # the report slot of the calibrated model: right after the first one
        model_names.insert(min(1, len(model_names)), CALIBRATED_MODEL_NAME)
    all_names = [*model_names, reference.name]
    if len(set(all_names)) != len(all_names):
        raise ExperimentError(f"duplicate model names in experiment: {all_names}")

    node_keys: dict[str, list[str]] = {name: [] for name in all_names}
    for stack, via, power in points:
        for model in [*models, reference]:
            key = plan.add(
                SolveNode(
                    key=_solve_node_key(plan, model, stack, via, power),
                    stack=stack,
                    via=via,
                    power=power,
                    model_name=model.name,
                    model=model,
                    assembly_key=model.assembly_key(stack, via),
                )
            )
            node_keys[model.name].append(key)

    if spec.calibrate:
        sample_idx = calibration_sample_indexes(
            len(values), spec.calibration_samples
        )
        sample_keys = tuple(node_keys[reference.name][i] for i in sample_idx)
        samples = tuple(points[i] for i in sample_idx)
        # opaque sample keys are compile-local (and can repeat their
        # counter across compiles), so a fit depending on one must get an
        # opaque key too
        cal_key = calibration_key(
            model_key(reference),
            tuple(k if is_content_key(k) else None for k in sample_keys),
            CALIBRATED_MODEL_NAME,
        ) or plan.next_opaque_key("calibration")
        plan.add(
            CalibrationNode(
                key=cal_key, sample_keys=sample_keys, samples=samples,
            )
        )
        for stack, via, power in points:
            # a content key derived from an opaque parent would *look*
            # stable while actually depending on compile-local state
            point_key = (
                content_key("cal_solve/v1", cal_key, stack, via, power)
                if is_content_key(cal_key)
                else None
            )
            key = plan.add(
                SolveNode(
                    key=point_key or plan.next_opaque_key(CALIBRATED_MODEL_NAME),
                    stack=stack,
                    via=via,
                    power=power,
                    model_name=CALIBRATED_MODEL_NAME,
                    model=None,
                    calibration=cal_key,
                )
            )
            node_keys[CALIBRATED_MODEL_NAME].append(key)

    run_key = spec.content_hash()
    plan.scenarios.append(
        ScenarioPlan(
            spec=spec,
            run_key=run_key,
            assembly=SweepAssembly(
                x_label=axis.x_label,
                values=tuple(values),
                model_names=tuple(model_names),
                reference_name=reference.name,
                node_keys={name: tuple(keys) for name, keys in node_keys.items()},
                metadata={
                    **dict(spec.metadata), "fast": fast, "spec_hash": run_key,
                },
                postprocess=spec.postprocess,
            ),
        )
    )


def _compile_case_study(plan: ExecutionPlan, spec: ScenarioSpec) -> None:
    run_key = spec.content_hash()
    node_key = plan.add(CaseStudyNode(key=f"case_study:{run_key}", spec=spec))
    plan.scenarios.append(
        ScenarioPlan(spec=spec, run_key=run_key, node_key=node_key)
    )


def _physics_scenario_plan(
    plan: ExecutionPlan,
    spec: ScenarioSpec,
    *,
    kind: str,
    x_label: str,
    values: list[Any],
    node_keys: dict[str, list[str]],
    fast: bool,
) -> None:
    run_key = spec.content_hash()
    plan.scenarios.append(
        ScenarioPlan(
            spec=spec,
            run_key=run_key,
            physics=PhysicsAssembly(
                kind=kind,
                x_label=x_label,
                values=tuple(values),
                model_names=tuple(node_keys),
                node_keys={name: tuple(keys) for name, keys in node_keys.items()},
                metadata={
                    **dict(spec.metadata), "fast": fast, "spec_hash": run_key,
                },
            ),
        )
    )


def _compile_transient(
    plan: ExecutionPlan, spec: ScenarioSpec, *, fast: bool
) -> None:
    """Lower a transient spec: one trajectory node per (model, point).

    Each trajectory factorises its drive-independent C/dt + G matrix
    once, and frees the factor when it ends.
    """
    params = spec.transient
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    node_keys: dict[str, list[str]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = transient_model_name(inner.name)
        if name in node_keys:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        node_keys[name] = []
        adapters: dict[int, TransientModel] = {}  # per n_planes (observe varies)
        for stack, via, power in points:
            adapter = adapters.get(stack.n_planes)
            if adapter is None:
                observe = params.observe or default_observed_nodes(stack)
                adapter = TransientModel(inner, params, observe)
                adapters[stack.n_planes] = adapter
            drive = (
                power
                if params.power_scale == 1.0
                else power.scaled(params.power_scale)
            )
            key = plan.add(
                TransientNode(
                    key=_solve_node_key(plan, adapter, stack, via, drive),
                    stack=stack,
                    via=via,
                    power=drive,
                    model_name=name,
                    model=adapter,
                )
            )
            node_keys[name].append(key)
    _physics_scenario_plan(
        plan, spec, kind="transient", x_label=x_label, values=values,
        node_keys=node_keys, fast=fast,
    )


def _compile_nonlinear(
    plan: ExecutionPlan, spec: ScenarioSpec, *, fast: bool
) -> None:
    """Lower a nonlinear spec: per (model, point), a linear baseline solve
    node plus the fixed-point chain depending on it.

    The baseline is an ordinary content-keyed :class:`SolveNode` — it
    deduplicates against steady-state scenarios at the same point and
    batches by the inner model's ``assembly_key`` — while the chain itself
    is dispatched once the baseline lands, seeded with its result.
    """
    params = spec.nonlinear
    assert params is not None  # guaranteed by ScenarioSpec validation
    x_label, values, points = scenario_axis_points(spec)
    node_keys: dict[str, list[str]] = {}
    for model_spec in spec.models:
        inner = make_model(model_spec)
        name = nonlinear_model_name(inner.name)
        if name in node_keys:
            raise ExperimentError(f"duplicate model names in scenario: {name}")
        node_keys[name] = []
        for stack, via, power in points:
            linear_key = plan.add(
                SolveNode(
                    key=_solve_node_key(plan, inner, stack, via, power),
                    stack=stack,
                    via=via,
                    power=power,
                    model_name=inner.name,
                    model=inner,
                    assembly_key=inner.assembly_key(stack, via),
                )
            )
            # a content key derived from an opaque baseline would *look*
            # stable while depending on compile-local state (same rule as
            # calibrated solves)
            nl_key = (
                content_key(
                    "nonlinear/v1", model_key(inner), params, stack, via, power
                )
                if is_content_key(linear_key)
                else None
            )
            key = plan.add(
                NonlinearNode(
                    key=nl_key or plan.next_opaque_key(name),
                    stack=stack,
                    via=via,
                    power=power,
                    model_name=name,
                    model=inner,
                    params=params,
                    linear=linear_key,
                )
            )
            node_keys[name].append(key)
    _physics_scenario_plan(
        plan, spec, kind="nonlinear", x_label=x_label, values=values,
        node_keys=node_keys, fast=fast,
    )


def compile_plan(
    specs: Sequence[ScenarioSpec], *, fast: bool = False
) -> ExecutionPlan:
    """Lower resolved scenario specs into one merged, deduplicated plan.

    ``specs`` must already be :meth:`~ScenarioSpec.resolved` — the plan
    reflects exactly what runs.  ``fast`` is only recorded into result
    metadata; the fast value subsets themselves were folded in by
    ``resolved``.
    """
    plan = ExecutionPlan()
    for spec in specs:
        if spec.kind == "case_study":
            _compile_case_study(plan, spec)
        elif spec.kind == "transient":
            _compile_transient(plan, spec, fast=fast)
        elif spec.kind == "nonlinear":
            _compile_nonlinear(plan, spec, fast=fast)
        else:
            _compile_sweep(plan, spec, fast=fast)
    if plan.stats["nodes_deduped"]:
        increment("plan_nodes_deduped", plan.stats["nodes_deduped"])
    return plan


# ---------------------------------------------------------------------------
# case-study execution
# ---------------------------------------------------------------------------
def run_case_study_spec(spec: ScenarioSpec):
    """Run a resolved case-study spec through :func:`experiments.case_study.run`."""
    parsed = parse_model_spec(spec.reference)
    if parsed.kind != "fem":
        raise ValidationError(
            f"the case study needs an axisymmetric 'fem[:...]' reference, "
            f"got {spec.reference!r}"
        )
    # the case study (and its DRAM-uP system builder) loads only when a
    # case-study node runs
    from ..experiments import case_study as case_study_module

    # the spec is already resolved: ``fast`` has been folded into
    # model_b_segments, so never pass fast=True here — case_study.run would
    # re-trim the segments behind the content hash's back and the store
    # would file the trimmed result under the full-accuracy key
    return case_study_module.run(
        fem_resolution=parsed.arg,
        fast=False,
        recalibrate=spec.calibrate,
        model_b_segments=spec.model_b_segments,
    )


# ---------------------------------------------------------------------------
# reassembly
# ---------------------------------------------------------------------------
def assemble_scenario(
    entry: ScenarioPlan, node_results: dict[str, Any]
) -> Any:
    """Rebuild one scenario's result from the executed plan nodes.

    Sweeps go through
    :func:`~repro.experiments.harness.assemble_experiment` on a re-keyed
    :class:`~repro.core.sweep.SweepResult`, so the payload does not depend
    on the order the nodes were solved in.  Physics scenarios
    (transient/nonlinear) collect their per-point results into the
    matching experiment container; case studies return their node's
    result directly.
    """
    if entry.physics is not None:
        from .results import NonlinearExperiment, TransientExperiment

        a = entry.physics
        container = (
            TransientExperiment if a.kind == "transient" else NonlinearExperiment
        )
        return container(
            experiment_id=entry.spec.scenario_id,
            title=entry.spec.title,
            x_label=a.x_label,
            x_values=list(a.values),
            results={
                name: [node_results[key] for key in a.node_keys[name]]
                for name in a.model_names
            },
            metadata=dict(a.metadata),
        )
    if entry.assembly is None:
        assert entry.node_key is not None
        return node_results[entry.node_key]
    a = entry.assembly
    from ..core.sweep import assemble_sweep

    all_names = [*a.model_names, a.reference_name]
    point_results = [
        {name: node_results[a.node_keys[name][i]] for name in all_names}
        for i in range(len(a.values))
    ]
    sweep_result = assemble_sweep(
        a.x_label, list(a.values), all_names, point_results, dict(a.metadata)
    )
    result = assemble_experiment(
        experiment_id=entry.spec.scenario_id,
        title=entry.spec.title,
        x_label=a.x_label,
        values=list(a.values),
        model_names=list(a.model_names),
        reference_name=a.reference_name,
        result=sweep_result,
        metadata=dict(a.metadata),
    )
    if a.postprocess == "table1":
        metadata = dict(result.metadata)
        metadata["table_rows"] = rows_from_fig5(result)
        result = replace(result, metadata=metadata)
    return result
