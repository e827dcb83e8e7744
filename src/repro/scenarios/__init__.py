"""Declarative scenarios: spec-driven experiments, registry and run store.

This package turns experiments into data.  A
:class:`~repro.scenarios.spec.ScenarioSpec` describes a sweep (axis,
geometry, power, models, reference, calibration policy), the case study,
an RC transient (``kind: "transient"`` — time grid, capacitance policy,
drive power, observed nodes) or a k(T) fixed point (``kind: "nonlinear"``
— slope policy and loop controls)
as a frozen, JSON-round-trippable value with a stable content hash; the
:data:`~repro.scenarios.registry.SCENARIOS` registry maps ids to specs
(the paper's six experiments are builtin entries); the
:class:`~repro.scenarios.store.RunStore` keeps finished runs as
content-addressed JSON artifacts so unchanged specs are store hits; and
:func:`~repro.scenarios.runner.run_scenario` executes any spec on the
:mod:`repro.perf` sweep engine.

CLI: ``python -m repro run <id|file.json>``, ``python -m repro list``,
``python -m repro batch <dir>``.
"""

from .._lazy import lazy_exports
from .registry import SCENARIOS, ScenarioRegistry
from .spec import (
    AXIS_LABELS,
    AXIS_PARAMETERS,
    AxisSpec,
    GeometryParams,
    GeometryRule,
    NonlinearParams,
    ScenarioSpec,
    TransientParams,
)

# registering the builtin scenarios is an import side effect by design:
# any importer of repro.scenarios sees the paper's six entries
from . import builtin as _builtin  # noqa: F401  (registration side effect)

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".fleet": ("FleetOutcome", "WorkerReport", "run_fleet"),
        ".fsck": ("FsckReport", "scrub"),
        ".lease": ("LeaseManager",),
        ".physics": (
            "NonlinearModel",
            "TransientModel",
            "build_transient_circuit",
            "run_nonlinear_spec_direct",
            "run_transient_spec_direct",
        ),
        ".plan": ("ExecutionPlan", "ScenarioPlan", "compile_plan"),
        ".results": (
            "ExperimentResult",
            "NonlinearExperiment",
            "StoredCaseStudy",
            "TransientExperiment",
        ),
        ".runner": ("BatchRun", "ScenarioRun", "run_batch", "run_scenario"),
        ".scheduler": ("ScheduleOutcome", "execute_plan"),
        ".store": ("RunStore",),
    },
)

__all__ = [
    "AXIS_LABELS",
    "AXIS_PARAMETERS",
    "AxisSpec",
    "BatchRun",
    "ExecutionPlan",
    "ExperimentResult",
    "FleetOutcome",
    "FsckReport",
    "GeometryParams",
    "GeometryRule",
    "LeaseManager",
    "NonlinearExperiment",
    "NonlinearModel",
    "NonlinearParams",
    "RunStore",
    "SCENARIOS",
    "ScenarioPlan",
    "ScenarioRegistry",
    "ScenarioRun",
    "ScenarioSpec",
    "ScheduleOutcome",
    "StoredCaseStudy",
    "TransientExperiment",
    "TransientModel",
    "TransientParams",
    "WorkerReport",
    "build_transient_circuit",
    "compile_plan",
    "execute_plan",
    "run_batch",
    "run_fleet",
    "run_nonlinear_spec_direct",
    "run_scenario",
    "run_transient_spec_direct",
    "scrub",
]
