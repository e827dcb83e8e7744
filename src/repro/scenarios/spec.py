"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, JSON-serialisable description of one
experiment: which parameter is swept over which values, the block geometry
the sweep perturbs, the power specification, which models run, which
reference they are judged against, and the calibration policy.  The
paper's figures are just six such specs (:mod:`repro.scenarios.builtin`);
arbitrary new workloads are JSON files with the same schema, runnable via
``python -m repro run path/to/scenario.json`` with no Python changes.

Every spec has a stable :meth:`~ScenarioSpec.content_hash` over its
canonical JSON form.  The hash keys the content-addressed
:class:`~repro.scenarios.store.RunStore` (re-running an unchanged spec is
a store hit, not a solve) and composes with the :mod:`repro.perf`
content keys, which already content-hash the per-point geometry the spec
expands into.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from ..core.factory import parse_model_spec
from ..errors import ValidationError

#: sweepable parameters: geometry fields (µm), the Eq.-(22) cluster size,
#: and a uniform power multiplier (``power_scale`` leaves the geometry —
#: and hence every assembled system matrix — untouched, so its sweep
#: points form one shared-matrix set: factor once, one RHS per point)
AXIS_PARAMETERS = (
    "radius_um",
    "liner_um",
    "t_si_upper_um",
    "t_ild_um",
    "t_bond_um",
    "cluster_count",
    "power_scale",
)

#: default x-axis label per sweepable parameter (matches the paper figures)
AXIS_LABELS = {
    "radius_um": "radius [um]",
    "liner_um": "liner [um]",
    "t_si_upper_um": "tSi2,3 [um]",
    "t_ild_um": "tD [um]",
    "t_bond_um": "tb [um]",
    "cluster_count": "n TTSVs",
    "power_scale": "power scale",
}

#: allowed keys of the ``power`` mapping (kwargs of PowerSpec)
POWER_KEYS = (
    "device_power_density",
    "ild_power_density",
    "plane_powers",
    "ild_fraction",
)

KINDS = ("sweep", "case_study", "transient", "nonlinear")
POSTPROCESSES = (None, "table1")

#: how transient scenarios attach thermal mass to the network nodes
CAPACITANCE_POLICIES = ("plane_lumped", "substrate_ild")

#: how transient scenarios shape the power sources in time
DRIVE_SHAPES = ("step", "pulse_train")


def _require_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _reject_unknown(kind: str, data: Mapping[str, Any], known: Sequence[str]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {kind} field(s) {unknown}; known: {sorted(known)}"
        )


@dataclass(frozen=True)
class GeometryParams:
    """The Section-IV block geometry a scenario perturbs (lengths in µm).

    Defaults are the paper's common parameters; each scenario overrides the
    dimensions its caption fixes, the sweep axis overrides one per point,
    and :class:`GeometryRule` entries override piecewise along the axis
    (e.g. Fig. 4's aspect-ratio substrate switch).  ``extension_um`` of
    ``None`` keeps the paper's default via extension.
    """

    n_planes: int = 3
    t_si_upper_um: float = 45.0
    t_ild_um: float = 4.0
    t_bond_um: float = 1.0
    radius_um: float = 5.0
    liner_um: float = 0.5
    extension_um: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_planes, int) or self.n_planes < 1:
            raise ValidationError(f"n_planes must be a positive int, got {self.n_planes!r}")
        for name in ("t_si_upper_um", "t_ild_um", "t_bond_um", "radius_um", "liner_um"):
            if _require_number(name, getattr(self, name)) <= 0.0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.extension_um is not None and _require_number(
            "extension_um", self.extension_um
        ) < 0.0:
            raise ValidationError(f"extension_um must be >= 0, got {self.extension_um!r}")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeometryParams":
        _reject_unknown("geometry", data, [f.name for f in fields(cls)])
        return cls(**data)


@dataclass(frozen=True)
class GeometryRule:
    """A piecewise geometry override along the sweep axis.

    The rule applies at axis value ``v`` when ``above < v <= upto`` (either
    bound may be omitted); matching rules apply in order, later ones win.
    ``set`` maps :class:`GeometryParams` field names to replacement values.
    """

    set: Mapping[str, Any]
    above: float | None = None
    upto: float | None = None

    def __post_init__(self) -> None:
        if not self.set:
            raise ValidationError("a geometry rule must set at least one field")
        known = [f.name for f in fields(GeometryParams)]
        _reject_unknown("geometry rule", self.set, known)
        if self.above is None and self.upto is None:
            raise ValidationError(
                "a geometry rule needs an 'above' and/or 'upto' bound "
                "(otherwise set the value in 'geometry' directly)"
            )

    def applies(self, value: float) -> bool:
        if self.above is not None and not value > self.above:
            return False
        if self.upto is not None and not value <= self.upto:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        return {"set": dict(self.set), "above": self.above, "upto": self.upto}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GeometryRule":
        _reject_unknown("rule", data, ("set", "above", "upto"))
        return cls(**data)


@dataclass(frozen=True)
class AxisSpec:
    """The swept parameter and its values (plus an optional fast subset)."""

    parameter: str
    values: tuple[Any, ...]
    label: str | None = None
    fast_values: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if self.parameter not in AXIS_PARAMETERS:
            raise ValidationError(
                f"unknown axis parameter {self.parameter!r}; "
                f"known: {list(AXIS_PARAMETERS)}"
            )
        object.__setattr__(self, "values", tuple(self.values))
        if self.fast_values is not None:
            object.__setattr__(self, "fast_values", tuple(self.fast_values))
        for seq_name in ("values", "fast_values"):
            seq = getattr(self, seq_name)
            if seq is None:
                continue
            if not seq:
                raise ValidationError(f"axis {seq_name} must be non-empty")
            for v in seq:
                if self.parameter == "cluster_count":
                    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                        raise ValidationError(
                            f"cluster_count values must be positive ints, got {v!r}"
                        )
                else:
                    if _require_number("axis value", v) <= 0.0:
                        raise ValidationError(f"axis values must be positive, got {v!r}")

    @property
    def x_label(self) -> str:
        return self.label or AXIS_LABELS[self.parameter]

    def to_dict(self) -> dict[str, Any]:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "label": self.label,
            "fast_values": None if self.fast_values is None else list(self.fast_values),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AxisSpec":
        _reject_unknown("axis", data, ("parameter", "values", "label", "fast_values"))
        return cls(**data)


@dataclass(frozen=True)
class TransientParams:
    """The ``kind == "transient"`` physics: an RC step response.

    ``t_end_s``/``n_steps`` set the backward-Euler time grid,
    ``capacitance`` picks how thermal mass is lumped onto the network
    nodes (``"plane_lumped"`` puts each plane's full-thickness substrate
    ρ·cp·V on its bulk node — the historical library example;
    ``"substrate_ild"`` sums the substrate and ILD capacities from their
    own materials and thicknesses), ``power_scale`` is the drive level
    (the spike magnitude relative to the scenario's steady power), and
    ``observe`` names the circuit nodes whose traces are kept (empty =
    every plane bulk node).

    ``drive`` shapes the sources in time.  The default ``"step"`` is the
    classic step response (sources on at t=0, held constant).
    ``"pulse_train"`` drives them with a rectangular duty-cycle wave:
    on for ``duty`` of every ``period_s`` seconds, off for the rest,
    sampled with a zero-order hold at each backward-Euler step's start.
    ``period_s``/``duty`` are required for ``"pulse_train"`` and must be
    omitted for ``"step"``.  The drive only reshapes the right-hand
    side — the system matrix (and its factorization) is shared across
    drive shapes of one geometry.
    """

    t_end_s: float
    n_steps: int = 200
    capacitance: str = "plane_lumped"
    power_scale: float = 1.0
    observe: tuple[str, ...] = ()
    drive: str = "step"
    period_s: float | None = None
    duty: float | None = None

    def __post_init__(self) -> None:
        if _require_number("t_end_s", self.t_end_s) <= 0.0:
            raise ValidationError(f"t_end_s must be positive, got {self.t_end_s!r}")
        if not isinstance(self.n_steps, int) or isinstance(self.n_steps, bool) \
                or self.n_steps < 1:
            raise ValidationError(
                f"n_steps must be a positive int, got {self.n_steps!r}"
            )
        if self.capacitance not in CAPACITANCE_POLICIES:
            raise ValidationError(
                f"capacitance must be one of {CAPACITANCE_POLICIES}, "
                f"got {self.capacitance!r}"
            )
        if _require_number("power_scale", self.power_scale) <= 0.0:
            raise ValidationError(
                f"power_scale must be positive, got {self.power_scale!r}"
            )
        object.__setattr__(self, "observe", tuple(self.observe))
        for node in self.observe:
            if not node or not isinstance(node, str):
                raise ValidationError(
                    f"observe entries must be non-empty node names, got {node!r}"
                )
        if self.drive not in DRIVE_SHAPES:
            raise ValidationError(
                f"drive must be one of {DRIVE_SHAPES}, got {self.drive!r}"
            )
        if self.drive == "pulse_train":
            if self.period_s is None or self.duty is None:
                raise ValidationError(
                    "pulse_train drive needs both period_s and duty"
                )
            if _require_number("period_s", self.period_s) <= 0.0:
                raise ValidationError(
                    f"period_s must be positive, got {self.period_s!r}"
                )
            duty = _require_number("duty", self.duty)
            if not 0.0 < duty <= 1.0:
                raise ValidationError(
                    f"duty must be in (0, 1], got {self.duty!r}"
                )
        elif self.period_s is not None or self.duty is not None:
            raise ValidationError(
                "period_s/duty only apply to the pulse_train drive"
            )

    def to_dict(self) -> dict[str, Any]:
        data = {
            "t_end_s": self.t_end_s,
            "n_steps": self.n_steps,
            "capacitance": self.capacitance,
            "power_scale": self.power_scale,
            "observe": list(self.observe),
        }
        # the drive keys appear only when a non-default shape is set, so
        # the serialized form — and hence every stored step-response
        # spec's content hash — is unchanged by the grammar extension
        if self.drive != "step":
            data["drive"] = self.drive
            data["period_s"] = self.period_s
            data["duty"] = self.duty
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TransientParams":
        _reject_unknown("transient", data, [f.name for f in fields(cls)])
        kwargs = dict(data)
        if "observe" in kwargs:
            kwargs["observe"] = tuple(kwargs["observe"])
        return cls(**kwargs)


@dataclass(frozen=True)
class NonlinearParams:
    """The ``kind == "nonlinear"`` physics: a k(T) fixed-point solve.

    ``slope_scale`` is the slope policy — a multiplier on every material's
    dk/dT (1 keeps the library values, 0 recovers the linear solve,
    larger values probe sensitivity); ``tolerance``/``max_iterations``/
    ``relaxation`` control the fixed-point loop.  Every converged result
    carries its linear (constant-k) baseline for comparison.
    """

    tolerance: float = 1e-6
    max_iterations: int = 30
    relaxation: float = 1.0
    slope_scale: float = 1.0

    def __post_init__(self) -> None:
        if _require_number("tolerance", self.tolerance) <= 0.0:
            raise ValidationError(
                f"tolerance must be positive, got {self.tolerance!r}"
            )
        if not isinstance(self.max_iterations, int) \
                or isinstance(self.max_iterations, bool) or self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be a positive int, got {self.max_iterations!r}"
            )
        relaxation = _require_number("relaxation", self.relaxation)
        if not 0.0 < relaxation <= 1.0:
            raise ValidationError(
                f"relaxation must be in (0, 1], got {self.relaxation!r}"
            )
        _require_number("slope_scale", self.slope_scale)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NonlinearParams":
        _reject_unknown("nonlinear", data, [f.name for f in fields(cls)])
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, data-defined experiment.

    ``kind == "sweep"`` runs every model of ``models`` (spec strings for
    :func:`repro.core.factory.make_model`) plus the ``reference`` over the
    ``axis``; ``calibrate`` additionally fits a ``model_a_cal`` against the
    reference on up to ``calibration_samples`` axis points (the paper's
    own coefficient workflow).  ``postprocess="table1"`` derives the
    accuracy/runtime table from the finished sweep.  ``kind ==
    "case_study"`` runs the Section IV-E DRAM-µP system instead
    (``model_b_segments`` sets its Model B size; ``calibrate`` maps to the
    recalibration step).

    Two further *physics kinds* run the library's extensions beyond the
    paper.  ``kind == "transient"`` integrates the RC step response of
    each model's network (``transient`` holds the time grid, capacitance
    policy, drive power and observed nodes; models must be Model A specs);
    ``kind == "nonlinear"`` runs the k(T) fixed-point solve around each
    model (``nonlinear`` holds the slope policy and loop controls), each
    converged point carrying its constant-k baseline.  Both accept an
    optional ``axis`` — one trajectory / fixed-point chain per axis value
    — or run a single point at the base geometry; neither calibrates nor
    uses the ``reference``.
    """

    scenario_id: str
    title: str
    kind: str = "sweep"
    description: str = ""
    axis: AxisSpec | None = None
    geometry: GeometryParams = field(default_factory=GeometryParams)
    power: Mapping[str, Any] = field(default_factory=dict)
    rules: tuple[GeometryRule, ...] = ()
    models: tuple[str, ...] = ("a:paper", "b:100", "1d")
    reference: str = "fem:medium"
    calibrate: bool = True
    calibration_samples: int = 4
    postprocess: str | None = None
    model_b_segments: int = 1000
    metadata: Mapping[str, Any] = field(default_factory=dict)
    transient: TransientParams | None = None
    nonlinear: NonlinearParams | None = None

    def __post_init__(self) -> None:
        if not self.scenario_id or not isinstance(self.scenario_id, str):
            raise ValidationError("scenario_id must be a non-empty string")
        if not self.title or not isinstance(self.title, str):
            raise ValidationError("title must be a non-empty string")
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "models", tuple(self.models))
        if self.kind == "sweep":
            if self.axis is None:
                raise ValidationError("a sweep scenario needs an 'axis'")
            if not self.models:
                raise ValidationError("a sweep scenario needs at least one model")
        if self.kind == "transient":
            if self.transient is None:
                raise ValidationError(
                    "a transient scenario needs 'transient' parameters "
                    "(t_end_s at minimum)"
                )
            if not self.models:
                raise ValidationError("a transient scenario needs at least one model")
            for spec in self.models:
                if parse_model_spec(spec).kind != "a":
                    raise ValidationError(
                        f"transient scenarios integrate Model A networks; "
                        f"model {spec!r} is not an 'a[:...]' spec"
                    )
        elif self.transient is not None:
            raise ValidationError(
                f"'transient' parameters only apply to kind 'transient', "
                f"not {self.kind!r}"
            )
        if self.kind == "nonlinear":
            if self.nonlinear is None:
                raise ValidationError(
                    "a nonlinear scenario needs 'nonlinear' parameters "
                    "(defaults are fine: {})"
                )
            if not self.models:
                raise ValidationError("a nonlinear scenario needs at least one model")
        elif self.nonlinear is not None:
            raise ValidationError(
                f"'nonlinear' parameters only apply to kind 'nonlinear', "
                f"not {self.kind!r}"
            )
        if self.kind in ("transient", "nonlinear") and self.calibrate:
            raise ValidationError(
                f"{self.kind} scenarios do not calibrate; set calibrate=false"
            )
        for spec in self.models:
            parse_model_spec(spec)  # raises ValidationError on bad grammar
        parse_model_spec(self.reference)
        _reject_unknown("power", self.power, POWER_KEYS)
        if self.postprocess not in POSTPROCESSES:
            raise ValidationError(
                f"postprocess must be one of {POSTPROCESSES}, got {self.postprocess!r}"
            )
        if self.postprocess is not None and self.kind != "sweep":
            raise ValidationError(
                f"postprocess {self.postprocess!r} only applies to sweep scenarios"
            )
        if not isinstance(self.calibration_samples, int) or self.calibration_samples < 2:
            raise ValidationError(
                f"calibration_samples must be an int >= 2, got {self.calibration_samples!r}"
            )
        if not isinstance(self.model_b_segments, int) or self.model_b_segments < 1:
            raise ValidationError(
                f"model_b_segments must be a positive int, got {self.model_b_segments!r}"
            )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (the JSON schema; see README 'Scenario files').

        The physics blocks are emitted only when set: a sweep/case-study
        spec's canonical JSON — and hence its :meth:`content_hash` and
        every run-store key derived from it — is byte-identical to what
        pre-physics-kind versions produced, so existing stores stay warm.
        """
        data = {
            "scenario_id": self.scenario_id,
            "title": self.title,
            "kind": self.kind,
            "description": self.description,
            "axis": None if self.axis is None else self.axis.to_dict(),
            "geometry": self.geometry.to_dict(),
            "power": dict(self.power),
            "rules": [r.to_dict() for r in self.rules],
            "models": list(self.models),
            "reference": self.reference,
            "calibrate": self.calibrate,
            "calibration_samples": self.calibration_samples,
            "postprocess": self.postprocess,
            "model_b_segments": self.model_b_segments,
            "metadata": dict(self.metadata),
        }
        if self.transient is not None:
            data["transient"] = self.transient.to_dict()
        if self.nonlinear is not None:
            data["nonlinear"] = self.nonlinear.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Validate and build a spec from its plain-dict form."""
        if not isinstance(data, Mapping):
            raise ValidationError(f"scenario must be a JSON object, got {type(data).__name__}")
        _reject_unknown("scenario", data, [f.name for f in fields(cls)])
        kwargs = dict(data)
        if kwargs.get("axis") is not None:
            kwargs["axis"] = AxisSpec.from_dict(kwargs["axis"])
        if "geometry" in kwargs:
            kwargs["geometry"] = GeometryParams.from_dict(kwargs["geometry"])
        if "rules" in kwargs:
            kwargs["rules"] = tuple(GeometryRule.from_dict(r) for r in kwargs["rules"])
        if "power" in kwargs:
            power = dict(kwargs["power"])
            if power.get("plane_powers") is not None:
                power["plane_powers"] = tuple(power["plane_powers"])
            kwargs["power"] = power
        if "models" in kwargs:
            kwargs["models"] = tuple(kwargs["models"])
        if kwargs.get("transient") is not None:
            kwargs["transient"] = TransientParams.from_dict(kwargs["transient"])
        if kwargs.get("nonlinear") is not None:
            kwargs["nonlinear"] = NonlinearParams.from_dict(kwargs["nonlinear"])
        return cls(**kwargs)

    def dumps(self) -> str:
        """The spec as pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def dump(self, path: str | Path) -> Path:
        """Write the spec as JSON and return the path."""
        path = Path(path)
        path.write_text(self.dumps())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec from a JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable digest of the spec's canonical JSON form.

        Two specs hash equal iff they describe the same experiment; the
        hash keys the :class:`~repro.scenarios.store.RunStore` and is safe
        to combine with :func:`repro.perf.content_key` keys.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()

    # ------------------------------------------------------------------
    # derived specs
    # ------------------------------------------------------------------
    def resolved(
        self,
        *,
        fast: bool = False,
        fem_resolution: str | None = None,
        calibrate: bool | None = None,
    ) -> "ScenarioSpec":
        """The spec with run-time choices folded in.

        ``fast`` substitutes the axis' ``fast_values`` (and trims the case
        study's Model B); ``fem_resolution`` rewrites an ``fem[:...]`` /
        ``fem3d[:...]`` reference to the given preset; ``calibrate``
        overrides the spec's calibration policy.  The result is a plain
        spec, so its :meth:`content_hash` reflects exactly what runs.
        """
        spec = self
        if fast:
            if spec.axis is not None and spec.axis.fast_values is not None:
                spec = replace(
                    spec,
                    axis=replace(spec.axis, values=spec.axis.fast_values, fast_values=None),
                )
            if spec.kind == "case_study" and spec.model_b_segments > 100:
                spec = replace(spec, model_b_segments=100)
        if fem_resolution is not None:
            name, _, _ = spec.reference.partition(":")
            if name in ("fem", "fem3d"):
                spec = replace(spec, reference=f"{name}:{fem_resolution}")
        if calibrate is not None and calibrate != spec.calibrate:
            spec = replace(spec, calibrate=calibrate)
        return spec
