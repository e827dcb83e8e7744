"""Run-level result containers: what a stored run loads back into.

A run-store hit turns the stored payload back into the result type of its
scenario kind (:func:`result_from_store_payload`): an
:class:`~repro.experiments.harness.ExperimentResult` for sweeps, a
:class:`TransientExperiment` or :class:`NonlinearExperiment` for the
physics kinds and a :class:`StoredCaseStudy` for the case study.  They
live here, apart from the plan compiler and the physics adapters, and
need numpy alone: serving a run from the store imports no solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.result import NonlinearResult
from ..errors import ExperimentError, ValidationError
from ..network.trajectory import TransientResult
from .spec import ScenarioSpec


@dataclass(frozen=True)
class StoredCaseStudy:
    """A case-study run reloaded from the store (payload-backed view)."""

    payload: dict[str, Any]

    @property
    def title(self) -> str:
        if "title" in self.payload:
            return self.payload["title"]
        from ..experiments.case_study import TITLE

        return TITLE

    def rises(self) -> dict[str, float]:
        return dict(self.payload["rises"])

    def rows(self) -> list[list[Any]]:
        out: list[list[Any]] = [["model", "max ΔT [°C]", "solve time [ms]"]]
        runtimes = self.payload.get("runtimes_ms", {})
        for name, rise in self.payload["rises"].items():
            out.append([name, rise, runtimes.get(name, float("nan"))])
        recal = self.payload.get("recalibrated")
        if recal is not None:
            out.append(
                [
                    f"model_a (recal. k1={recal['k1']:.2f}, k2={recal['k2']:.2f})",
                    recal["max_rise"],
                    float("nan"),
                ]
            )
        return out

    def to_payload(self) -> dict[str, Any]:
        return self.payload


@dataclass(frozen=True)
class TransientExperiment:
    """A completed transient scenario: one trajectory per (model, value).

    ``results[name][i]`` is the observed-node trajectory of adapter
    ``name`` at ``x_values[i]``.  The payload round-trips exactly —
    trajectories are deterministic and carry no wall-clock times.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    results: dict[str, list[TransientResult]]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def series(self) -> dict[str, list[float]]:
        """Final (steady-state) max rise per model per value."""
        return {
            name: [float(r.final.max()) for r in trajectories]
            for name, trajectories in self.results.items()
        }

    def result_at(self, model_name: str, value: Any) -> TransientResult:
        """The trajectory of one model at one axis value."""
        try:
            i = self.x_values.index(value)
            return self.results[model_name][i]
        except (KeyError, ValueError):
            raise ValidationError(
                f"no trajectory for ({model_name!r}, {value!r}); models: "
                f"{sorted(self.results)}, values: {self.x_values}"
            ) from None

    def rows(self) -> list[list[Any]]:
        """Report rows: final/peak rise and the 90 % settle time per point."""
        out: list[list[Any]] = [
            ["value", "model", "final ΔT [°C]", "peak ΔT [°C]", "t90 [µs]"]
        ]
        for i, value in enumerate(self.x_values):
            for name, trajectories in self.results.items():
                r = trajectories[i]
                hottest = r.nodes[int(np.argmax(r.final))]
                out.append(
                    [
                        value,
                        name,
                        float(r.final.max()),
                        r.peak_rise,
                        r.settle_time(hottest) * 1e6,
                    ]
                )
        return out

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "transient",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": self.series,
            "results": {
                name: [r.to_payload() for r in trajectories]
                for name, trajectories in self.results.items()
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TransientExperiment":
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                results={
                    name: [TransientResult.from_payload(p) for p in trajectories]
                    for name, trajectories in payload["results"].items()
                },
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed transient experiment payload: {exc!r}"
            ) from exc


@dataclass(frozen=True)
class NonlinearExperiment:
    """A completed nonlinear scenario: one fixed point per (model, value).

    Every :class:`~repro.core.nonlinear.NonlinearResult` carries its
    constant-k baseline (``history[0]``), so the linear-vs-nonlinear
    comparison needs no separate reference sweep.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    results: dict[str, list[NonlinearResult]]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def series(self) -> dict[str, list[float]]:
        """Converged max rise per model per value."""
        return {
            name: [r.max_rise for r in results]
            for name, results in self.results.items()
        }

    def result_at(self, model_name: str, value: Any) -> NonlinearResult:
        """The fixed-point result of one model at one axis value."""
        try:
            i = self.x_values.index(value)
            return self.results[model_name][i]
        except (KeyError, ValueError):
            raise ValidationError(
                f"no result for ({model_name!r}, {value!r}); models: "
                f"{sorted(self.results)}, values: {self.x_values}"
            ) from None

    def rows(self) -> list[list[Any]]:
        """Report rows: linear vs converged rise and loop diagnostics."""
        out: list[list[Any]] = [
            ["value", "model", "linear ΔT [°C]", "k(T) ΔT [°C]", "lin err %", "iters"]
        ]
        for i, value in enumerate(self.x_values):
            for name, results in self.results.items():
                r = results[i]
                out.append(
                    [
                        value,
                        name,
                        r.linear_rise,
                        r.max_rise,
                        r.linear_error * 100.0,
                        r.iterations,
                    ]
                )
        return out

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": "nonlinear",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": self.series,
            "results": {
                name: [r.to_payload() for r in results]
                for name, results in self.results.items()
            },
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "NonlinearExperiment":
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                results={
                    name: [NonlinearResult.from_payload(p) for p in results]
                    for name, results in payload["results"].items()
                },
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed nonlinear experiment payload: {exc!r}"
            ) from exc


def result_from_store_payload(spec: ScenarioSpec, payload: dict[str, Any]) -> Any:
    """Reconstruct a run-level store payload into the kind's result type."""
    if spec.kind == "transient":
        return TransientExperiment.from_payload(payload)
    if spec.kind == "nonlinear":
        return NonlinearExperiment.from_payload(payload)
    if spec.kind == "case_study":
        return StoredCaseStudy(payload)
    from ..experiments.harness import ExperimentResult

    return ExperimentResult.from_payload(payload)
