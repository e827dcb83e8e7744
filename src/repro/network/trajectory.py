"""The trajectory container of a transient RC analysis.

:class:`TransientResult` lives apart from the backward-Euler integrator
(:mod:`repro.network.transient`) so that stored transient runs load
back with numpy alone: reading a trajectory never imports scipy.
:mod:`repro.scenarios.results` imports it only when a transient payload
loads, so the store hits of the other kinds load neither this module
nor numpy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from .elements import NodeId


@dataclass(frozen=True)
class TransientResult:
    """Node temperature rises over time.

    ``temperatures[k, i]`` is node ``nodes[i]`` at ``times[k]``.
    """

    times: np.ndarray
    temperatures: np.ndarray
    nodes: list[NodeId]

    def trace(self, node: NodeId) -> np.ndarray:
        """Temperature history of one node."""
        try:
            i = self.nodes.index(node)
        except ValueError:
            raise ValidationError(f"no node {node!r} in the transient result") from None
        return self.temperatures[:, i]

    @property
    def final(self) -> np.ndarray:
        """Temperatures at the last time point."""
        return self.temperatures[-1]

    @property
    def peak_rise(self) -> float:
        """The largest rise reached anywhere, any time."""
        return float(self.temperatures.max(initial=0.0))

    def settle_time(self, node: NodeId, *, fraction: float = 0.9) -> float:
        """First time the node reaches ``fraction`` of its final rise."""
        trace = self.trace(node)
        target = fraction * trace[-1]
        hit = np.nonzero(trace >= target)[0]
        return float(self.times[hit[0]]) if hit.size else float(self.times[-1])

    def observed(self, nodes: Sequence[NodeId]) -> "TransientResult":
        """The trajectory restricted to ``nodes`` (column subset, same times).

        Traces of the kept nodes are the exact arrays of the full result —
        the scenario layer stores only the observed subset without
        changing a single bit of it.
        """
        idx = []
        for node in nodes:
            try:
                idx.append(self.nodes.index(node))
            except ValueError:
                raise ValidationError(
                    f"no node {node!r} in the transient result; "
                    f"known: {self.nodes}"
                ) from None
        return TransientResult(
            times=self.times,
            temperatures=self.temperatures[:, idx],
            nodes=list(nodes),
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable dump (exact float round-trip via JSON doubles).

        Node ids must be JSON scalars (str/int) — the scenario layer's
        circuits name nodes with strings; ad-hoc tuple-keyed networks are
        not storable.
        """
        for node in self.nodes:
            if not isinstance(node, (str, int)) or isinstance(node, bool):
                raise ValidationError(
                    f"transient payloads need str/int node ids, got {node!r}"
                )
        return {
            "kind": "transient",
            "times_s": self.times.tolist(),
            "temperatures": self.temperatures.tolist(),
            "nodes": list(self.nodes),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TransientResult":
        """Rebuild a result from :meth:`to_payload` output (store/JSON)."""
        try:
            return cls(
                times=np.asarray(payload["times_s"], dtype=float),
                temperatures=np.asarray(payload["temperatures"], dtype=float),
                nodes=list(payload["nodes"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed transient payload: {exc!r}") from exc
