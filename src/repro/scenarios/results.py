"""Run-level result containers: what a stored run loads back into.

A run-store hit turns the stored payload back into the result type of its
scenario kind (:func:`result_from_store_payload`): an
:class:`ExperimentResult` for sweeps, a :class:`TransientExperiment` or
:class:`NonlinearExperiment` for the physics kinds and a
:class:`StoredCaseStudy` for the case study.  They live here, apart from
the plan compiler, the sweep harness and the physics adapters, and load
with the standard library and the report helpers alone: serving a sweep,
nonlinear or case-study run from the store imports neither numpy nor a
solver.  A transient run is the exception: its trajectories load back as
numpy arrays (:mod:`repro.network.trajectory`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..analysis.ascii_plot import ascii_plot
from ..analysis.metrics import ErrorMetrics
from ..analysis.report import format_series_table
from ..core.result import NonlinearResult
from ..errors import ExperimentError, ValidationError
from .spec import ScenarioSpec

if TYPE_CHECKING:
    from ..core.sweep import SweepResult
    from ..network.trajectory import TransientResult


@dataclass(frozen=True)
class ExperimentResult:
    """A completed sweep experiment, ready for reporting."""

    experiment_id: str
    title: str
    x_label: str
    x_values: list[Any]
    series: dict[str, list[float]]  # model name -> max ΔT series
    reference_name: str
    errors: dict[str, ErrorMetrics]  # vs the reference, per non-reference model
    runtimes_ms: dict[str, float]  # mean solve time per model
    metadata: dict[str, Any] = field(default_factory=dict)
    sweep_result: SweepResult | None = None

    def table_text(self) -> str:
        """The figure's data as an aligned table (ΔT in °C rise)."""
        return format_series_table(self.x_label, self.x_values, self.series)

    def plot_text(self, *, width: int = 72, height: int = 18) -> str:
        """ASCII rendition of the figure."""
        x = [float(v) for v in self.x_values]
        return ascii_plot(
            x,
            self.series,
            width=width,
            height=height,
            x_label=self.x_label,
            y_label="max ΔT [°C]",
        )

    def error_rows(self) -> list[list[Any]]:
        """Error table rows: model, max %, avg %, mean runtime ms."""
        rows: list[list[Any]] = [["model", "max err %", "avg err %", "time [ms]"]]
        for name, err in self.errors.items():
            pct = err.as_percentages()
            rows.append([name, pct["max_%"], pct["avg_%"], self.runtimes_ms[name]])
        return rows

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable dump for the export helpers and the run store.

        ``errors`` holds the raw fractions (exact float round-trip via
        :meth:`from_payload`); ``errors_pct`` keeps the human-readable
        percentages the reports use.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": self.x_values,
            "series": self.series,
            "reference": self.reference_name,
            "errors": {
                name: {
                    "max_error": err.max_error,
                    "avg_error": err.avg_error,
                    "rms_error": err.rms_error,
                    "signed_mean": err.signed_mean,
                }
                for name, err in self.errors.items()
            },
            "errors_pct": {
                name: err.as_percentages() for name, err in self.errors.items()
            },
            "runtimes_ms": self.runtimes_ms,
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_payload` output (store/JSON).

        The numeric content round-trips exactly (JSON preserves doubles);
        only ``sweep_result`` — the raw per-point solver output — is not
        serialised and comes back as ``None``.
        """
        try:
            return cls(
                experiment_id=payload["experiment_id"],
                title=payload["title"],
                x_label=payload["x_label"],
                x_values=list(payload["x_values"]),
                series={name: list(ys) for name, ys in payload["series"].items()},
                reference_name=payload["reference"],
                errors={
                    name: ErrorMetrics(**values)
                    for name, values in payload["errors"].items()
                },
                runtimes_ms=dict(payload["runtimes_ms"]),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(
                f"malformed experiment payload: {exc!r}"
            ) from exc


@dataclass(frozen=True)
class StoredCaseStudy:
    """A case-study run reloaded from the store (payload-backed view)."""

    payload: dict[str, Any]

    def __post_init__(self) -> None:
        if "title" not in self.payload:
            raise ExperimentError("malformed case-study payload: no 'title'")

    @property
    def title(self) -> str:
        return self.payload["title"]

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
                    runtimes.get("model_a_calibration", float("nan")),
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
        import numpy as np

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
        from ..network.trajectory import TransientResult

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
    return ExperimentResult.from_payload(payload)
