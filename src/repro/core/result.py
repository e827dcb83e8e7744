"""Model results.

Every model (A, B, 1-D, FEM reference) returns a :class:`ModelResult` so
experiments can sweep and compare them uniformly.  Temperatures are stored
as *rises* ΔT above the heat-sink face, the quantity the paper plots;
absolute temperatures add the stack's sink temperature.
:class:`NonlinearResult` wraps the converged result of a k(T) fixed point
(:mod:`repro.core.nonlinear`) with its iteration history; it lives here,
beside the result it wraps, so stored runs load back without a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ValidationError


@dataclass(frozen=True)
class ModelResult:
    """Outcome of one steady-state thermal solve.

    Parameters
    ----------
    model_name:
        E.g. ``"model_a"``, ``"model_b(100)"``, ``"model_1d"``, ``"fem"``.
    max_rise:
        Maximum temperature rise ΔT in kelvin (== °C of rise).
    plane_rises:
        ΔT at the representative (bulk) node of each plane, bottom-up.
    node_temperatures:
        Full node map for network models (may be empty for field solvers).
    sink_temperature:
        Absolute sink temperature in °C used for absolute readouts.
    solve_time:
        Wall-clock seconds spent solving (assembly + factorisation).
    n_unknowns:
        Size of the solved linear system.
    metadata:
        Free-form extras (segment counts, mesh sizes, ...).
    """

    model_name: str
    max_rise: float
    plane_rises: tuple[float, ...]
    sink_temperature: float
    solve_time: float
    n_unknowns: int
    node_temperatures: dict[Any, float] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.model_name:
            raise ValidationError("model_name must be non-empty")
        if self.n_unknowns < 0:
            raise ValidationError("n_unknowns must be non-negative")

    @property
    def max_temperature(self) -> float:
        """Absolute maximum temperature in °C (sink + ΔT)."""
        return self.sink_temperature + self.max_rise

    def plane_rise(self, plane_index: int) -> float:
        """ΔT of one plane (0-based, bottom-up)."""
        try:
            return self.plane_rises[plane_index]
        except IndexError:
            raise ValidationError(
                f"plane {plane_index} out of range; result has "
                f"{len(self.plane_rises)} planes"
            ) from None

    def summary(self) -> str:
        """One-line human-readable summary."""
        rises = ", ".join(f"{t:.2f}" for t in self.plane_rises)
        return (
            f"{self.model_name}: max ΔT = {self.max_rise:.2f} K "
            f"(planes: [{rises}] K, {self.n_unknowns} unknowns, "
            f"{self.solve_time * 1e3:.2f} ms)"
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable dump for the run store's point-level objects.

        Everything experiment assembly consumes (``max_rise``,
        ``plane_rises``, ``solve_time``, …) round-trips exactly — JSON
        preserves doubles — so a point resumed from the store assembles
        byte-identically to a freshly solved one.  ``node_temperatures``
        is included only when its keys are strings (network node ids can
        be tuples, which JSON objects cannot key); assembly never reads
        it.
        """
        payload: dict[str, Any] = {
            "model_name": self.model_name,
            "max_rise": self.max_rise,
            "plane_rises": list(self.plane_rises),
            "sink_temperature": self.sink_temperature,
            "solve_time": self.solve_time,
            "n_unknowns": self.n_unknowns,
            "metadata": self.metadata,
        }
        if self.node_temperatures and all(
            isinstance(k, str) for k in self.node_temperatures
        ):
            payload["node_temperatures"] = dict(self.node_temperatures)
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ModelResult":
        """Rebuild a result from :meth:`to_payload` output (store/JSON)."""
        try:
            return cls(
                model_name=payload["model_name"],
                max_rise=float(payload["max_rise"]),
                plane_rises=tuple(payload["plane_rises"]),
                sink_temperature=float(payload["sink_temperature"]),
                solve_time=float(payload["solve_time"]),
                n_unknowns=int(payload["n_unknowns"]),
                node_temperatures=dict(payload.get("node_temperatures", {})),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed point payload: {exc!r}") from exc


@dataclass(frozen=True)
class NonlinearResult:
    """Converged nonlinear solution plus iteration diagnostics."""

    result: ModelResult
    iterations: int
    history: tuple[float, ...]  # max ΔT per iteration

    @property
    def max_rise(self) -> float:
        return self.result.max_rise

    @property
    def linear_rise(self) -> float:
        """Max ΔT the constant-k (first-iteration) solve predicted."""
        return self.history[0]

    @property
    def linear_error(self) -> float:
        """Relative error a constant-k solve would have made."""
        return (self.history[0] - self.max_rise) / self.max_rise

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable dump (exact float round-trip via JSON doubles).

        Wraps the converged :meth:`ModelResult.to_payload` plus the
        iteration diagnostics — everything but the wall-clock
        ``solve_time`` inside the model payload is deterministic.
        """
        return {
            "kind": "nonlinear",
            "result": self.result.to_payload(),
            "iterations": self.iterations,
            "history": list(self.history),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "NonlinearResult":
        """Rebuild a result from :meth:`to_payload` output (store/JSON)."""
        try:
            return cls(
                result=ModelResult.from_payload(payload["result"]),
                iterations=int(payload["iterations"]),
                history=tuple(payload["history"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed nonlinear payload: {exc!r}") from exc
