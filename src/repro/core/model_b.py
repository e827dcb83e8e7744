"""Model B — the distributed π-segment ladder (Section III, Fig. 3).

Each plane j is discretised into n_j π-segments.  A segment contributes a
vertical bulk resistor (surroundings column), a vertical metal resistor
(via column) and a lateral liner resistor linking the two columns — the
R_{3i-2} / R_{3i-1} / R_{3i} triplet of Eq. (21).  KCL at the resulting
2·nA nodes gives the sparse linear system A·T = b of Eq. (19), with the
per-plane heat q_j split evenly over the plane's ILD bulk nodes (Eq. (20)).

Two discretisation schemes are provided:

* ``"paper"`` (default) — the literal Eq. (21) assignment: within plane j
  every segment uses R_metal = RM_j/n_j and R_lateral = n_j·RL_j computed
  over the plane's whole via span, the bulk resistance is divided per
  layer, and the bond below the plane is lumped into the plane's first
  substrate segment;
* ``"uniform"`` — a plain discretisation of the continuum cylinder where
  every segment's three resistances follow from its own height (the bond
  becomes its own segment, the top-plane ILD has no via column).  Used as
  a convergence ablation.

No fitting coefficients are used in either scheme.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.stack import LayerInterval
from ..geometry.tsv import as_cluster
from ..network import GROUND, NetworkSolution, ThermalCircuit
from ..network.circuit import DENSE_CUTOFF
from ..perf import content_key, model_key
from ..resistances import compute_model_b_resistances
from ..resistances.model_a_set import _liner_lateral
from ..units import require_positive_int
from .base import AssembledSystem, ThermalTSVModel
from .result import ModelResult
from .segments import SegmentScheme

#: name of the via-bottom node shared with Model A
T0_NODE = "t0"

_SCHEMES = ("paper", "uniform")


@dataclass(frozen=True, slots=True)
class _Segment:
    """One assembled π-segment (resistances in K/W)."""

    bulk: float
    metal: float | None  # None above the via top (no metal column)
    lateral: float | None
    heat: float  # W injected at the bulk node
    plane_index: int


def _paper_segments(
    stack: Stack3D,
    via: TSVCluster,
    scheme: SegmentScheme,
    power: PowerSpec,
    bond_factor: float,
    exact_area: bool,
) -> list[_Segment]:
    """Eq. (21) segment list, bottom-up across all planes."""
    quantities = compute_model_b_resistances(
        stack, via, bond_factor=bond_factor, exact_area=exact_area
    )
    segments: list[_Segment] = []
    for j in range(stack.n_planes):
        q = quantities.planes[j]
        n_si, n_ild = scheme.split(stack, j)
        n_j = n_si + n_ild
        metal = q.metal_total / n_j
        lateral = n_j * q.liner_total
        heat_per_ild = power.plane_heat(stack, j) / n_ild
        extra_bulk = 0.0  # substrate+bond folded into the first ILD segment
        if n_si == 0 and q.substrate_bulk is not None:
            extra_bulk = q.substrate_bulk + (q.bond_bulk or 0.0)
        for i in range(n_si):
            bulk = (q.substrate_bulk or 0.0) / n_si
            if i == 0:
                bulk += q.bond_bulk or 0.0
            segments.append(_Segment(bulk, metal, lateral, 0.0, j))
        for i in range(n_ild):
            bulk = q.ild_bulk / n_ild
            if i == 0:
                bulk += extra_bulk
            segments.append(_Segment(bulk, metal, lateral, heat_per_ild, j))
    return segments


def _uniform_segments(
    stack: Stack3D,
    via: TSVCluster,
    scheme: SegmentScheme,
    power: PowerSpec,
    bond_factor: float,
    exact_area: bool,
) -> list[_Segment]:
    """Continuum discretisation: resistances from each segment's height."""
    quantities = compute_model_b_resistances(
        stack, via, bond_factor=bond_factor, exact_area=exact_area
    )
    tsv = via.base
    z_bottom, z_top = stack.tsv_span(tsv.extension)
    area = stack.footprint_area - (
        via.total_occupied_area if exact_area else tsv.occupied_area
    )
    metal_area = math.pi * tsv.radius**2
    k_fill = tsv.fill.thermal_conductivity

    def sub_layers(j: int) -> list[tuple[float, float, bool]]:
        """(height, conductivity, is_ild) pieces of plane j, bottom-up.

        Plane 1 contributes only the via-spanning sliver l_ext + ILD1
        (its substrate bulk is the lumped Rs, as in the paper scheme).
        """
        plane = stack.planes[j]
        pieces: list[tuple[float, float, bool]] = []
        if j == 0:
            if tsv.extension > 0.0:
                pieces.append((tsv.extension, plane.substrate.conductivity, False))
        else:
            bond = stack.bond_below(j)
            pieces.append(
                (bond.thickness, bond.material.thermal_conductivity * bond_factor, False)
            )
            pieces.append((plane.substrate.thickness, plane.substrate.conductivity, False))
        pieces.append((plane.ild.thickness, plane.ild.conductivity, True))
        return pieces

    segments: list[_Segment] = []
    z = z_bottom
    for j in range(stack.n_planes):
        n_si, n_ild = scheme.split(stack, j)
        n_j = n_si + n_ild
        heat_per_ild = power.plane_heat(stack, j) / n_ild
        pieces = sub_layers(j)
        non_ild_height = sum(h for h, _, is_ild in pieces if not is_ild)
        for height, k_layer, is_ild in pieces:
            count = n_ild if is_ild else max(
                1, round(n_si * height / non_ild_height) if non_ild_height else 1
            )
            if not is_ild and n_si == 0:
                count = 1
            dz = height / count
            for _ in range(count):
                in_span = z + dz / 2.0 < z_top
                metal = dz / (k_fill * metal_area) if in_span else None
                lateral = _liner_lateral(via, dz, 1.0) if in_span else None
                segments.append(
                    _Segment(
                        bulk=dz / (k_layer * area),
                        metal=metal,
                        lateral=lateral,
                        heat=heat_per_ild if is_ild else 0.0,
                        plane_index=j,
                    )
                )
                z += dz
    del quantities  # aggregates only needed for validation side effects
    return segments


def build_model_b_circuit(
    segments: list[_Segment], rs: float
) -> tuple[ThermalCircuit, list[str]]:
    """Wire the π-segment ladder; returns the circuit and the per-plane
    topmost bulk node names (for plane-rise readouts)."""
    circuit = ThermalCircuit()
    circuit.add_resistor(T0_NODE, GROUND, rs, label="Rs")
    prev_bulk = T0_NODE
    prev_metal: str | None = T0_NODE
    plane_top: dict[int, str] = {}
    for i, seg in enumerate(segments):
        b = f"b{i + 1}"
        circuit.add_resistor(prev_bulk, b, seg.bulk, label=f"R{3 * i + 1}")
        if seg.metal is not None and prev_metal is not None:
            m = f"m{i + 1}"
            circuit.add_resistor(prev_metal, m, seg.metal, label=f"R{3 * i + 2}")
            if seg.lateral is not None:
                circuit.add_resistor(b, m, seg.lateral, label=f"R{3 * i + 3}")
            prev_metal = m
        else:
            prev_metal = None  # the via column has ended
        if seg.heat:
            circuit.add_source(b, seg.heat, label=f"q(b{i + 1})")
        prev_bulk = b
        plane_top[seg.plane_index] = b
    top_nodes = [plane_top[j] for j in sorted(plane_top)]
    return circuit, top_nodes


class ModelB(ThermalTSVModel):
    """The distributed, coefficient-free Model B.

    Parameters
    ----------
    segments:
        Either an int n (→ the paper's ``SegmentScheme.paper(n)``: n
        segments in planes 2..N, n//10 in plane 1) or an explicit
        :class:`SegmentScheme`.
    scheme:
        ``"paper"`` for the literal Eq. (21) assignment, ``"uniform"``
        for the per-height continuum discretisation (ablation).
    bond_factor:
        Effective bond conductance multiplier (case study's c_{1,2}).
    exact_area:
        Use the exact n-via occupied area in bulk-area terms.
    """

    def __init__(
        self,
        segments: int | SegmentScheme = 100,
        *,
        scheme: str = "paper",
        bond_factor: float = 1.0,
        exact_area: bool = False,
    ) -> None:
        if scheme not in _SCHEMES:
            raise ValidationError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
        if isinstance(segments, SegmentScheme):
            self._scheme_obj: SegmentScheme | None = segments
            self._n_upper = max(segments.plane_segments)
        else:
            require_positive_int("segments", segments)
            self._scheme_obj = None
            self._n_upper = segments
        self.scheme = scheme
        self.bond_factor = bond_factor
        self.exact_area = exact_area
        self.name = f"model_b({self._n_upper})"

    def segment_scheme(self, stack: Stack3D) -> SegmentScheme:
        """The per-plane segment counts used for ``stack``."""
        if self._scheme_obj is not None:
            if len(self._scheme_obj.plane_segments) != stack.n_planes:
                raise ValidationError(
                    f"segment scheme covers {len(self._scheme_obj.plane_segments)} "
                    f"planes but the stack has {stack.n_planes}"
                )
            return self._scheme_obj
        return SegmentScheme.paper(self._n_upper, stack.n_planes)

    def _segments(
        self,
        stack: Stack3D,
        cluster: TSVCluster,
        scheme: SegmentScheme,
        power: PowerSpec,
    ) -> list[_Segment]:
        build = _paper_segments if self.scheme == "paper" else _uniform_segments
        return build(
            stack, cluster, scheme, power, self.bond_factor, self.exact_area
        )

    def _build(
        self, stack: Stack3D, cluster: TSVCluster, power: PowerSpec
    ) -> tuple[ThermalCircuit, list[str], SegmentScheme]:
        """Assemble the π-segment ladder circuit for one power spec."""
        scheme = self.segment_scheme(stack)
        segments = self._segments(stack, cluster, scheme, power)
        rs = compute_model_b_resistances(
            stack, cluster, bond_factor=self.bond_factor, exact_area=self.exact_area
        ).rs
        circuit, top_nodes = build_model_b_circuit(segments, rs)
        return circuit, top_nodes, scheme

    def _result(
        self,
        stack: Stack3D,
        cluster: TSVCluster,
        scheme: SegmentScheme,
        solution: NetworkSolution,
        top_nodes: list[str],
        n_unknowns: int,
        elapsed: float,
    ) -> ModelResult:
        return ModelResult(
            model_name=self.name,
            max_rise=solution.max_rise,
            plane_rises=tuple(solution[node] for node in top_nodes),
            sink_temperature=stack.sink_temperature,
            solve_time=elapsed,
            n_unknowns=n_unknowns,
            node_temperatures=dict(solution.temperatures),
            metadata={
                "scheme": self.scheme,
                "plane_segments": scheme.plane_segments,
                "n_segments_total": scheme.total,
                "cluster_count": cluster.count,
            },
        )

    def _solve(
        self, stack: Stack3D, via: TSVCluster, power: PowerSpec
    ) -> ModelResult:
        cluster = as_cluster(via)
        start = time.perf_counter()
        circuit, top_nodes, scheme = self._build(stack, cluster, power)
        solution = circuit.solve()
        elapsed = time.perf_counter() - start
        return self._result(
            stack, cluster, scheme, solution, top_nodes, circuit.n_nodes, elapsed
        )

    # ------------------------------------------------------------------
    # matrix-batched interface
    # ------------------------------------------------------------------
    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of Model B's conductance matrix at (stack, via).

        The π-segment resistances — and hence the assembled Eq. (19)
        matrix — depend only on the model configuration, the stack and the
        (cluster-normalised) via; power enters the Eq. (20) source vector
        alone.  Points sharing this key solve the identical matrix, so
        large-segment sweeps ride the matrix-batched dispatch plane.
        """
        return content_key(
            "model_b_assembly/v1", model_key(self), stack, as_cluster(via)
        )

    def batch_class_key(self, stack: Stack3D, via: TSV | TSVCluster) -> str | None:
        """Stack paper-scheme ladders with the same segment counts.

        Under the ``"paper"`` scheme every segment carries a metal column,
        so the ladder topology — and hence the ``1 + 2·n_A`` system
        structure — is fixed by the per-plane segment counts alone; points
        differing in geometry (and so in every resistance value) still
        stack into one batched dense solve.  The ``"uniform"`` scheme's
        topology depends on where the via span ends, so it opts out, as do
        ladders too large for the dense cutoff (the default 100-segment
        model: those ride the multi-RHS plane via :meth:`assembly_key`
        instead).
        """
        if self.scheme != "paper":
            return None
        try:
            scheme = self.segment_scheme(stack)
        except ValidationError:
            return None
        if 1 + 2 * scheme.total > DENSE_CUTOFF:
            return None
        return content_key("stacked_class/model_b/v1", scheme.plane_segments)

    def assemble_system(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> AssembledSystem | None:
        """Lift one ladder's dense system out for the stacked solve tier.

        The circuit is assembled exactly as :meth:`solve` would (same
        stamping, same dense matrix below the cutoff), so the stacked
        solve — per-item identical to ``numpy.linalg.solve`` — reproduces
        the solo result bit-for-bit.
        """
        if self.batch_class_key(stack, via) is None:
            return None
        cluster = as_cluster(via)
        validate_tsv_in_stack(stack, cluster.member)
        start = time.perf_counter()
        circuit, top_nodes, scheme = self._build(stack, cluster, power)
        matrix, rhs = circuit.assemble()

        def finish(temps: np.ndarray) -> ModelResult:
            elapsed = time.perf_counter() - start
            return self._result(
                stack,
                cluster,
                scheme,
                circuit.solution_from(temps),
                top_nodes,
                circuit.n_nodes,
                elapsed,
            )

        return AssembledSystem(
            matrix=np.asarray(matrix, dtype=float), rhs=rhs, finish=finish
        )

    def solve_batch(
        self,
        stack: Stack3D,
        via: TSV | TSVCluster,
        powers: Sequence[PowerSpec],
    ) -> list[ModelResult]:
        """Solve one (stack, via) ladder under many power specs.

        The circuit is assembled and its conductance matrix factorised
        once; each power spec contributes one Eq. (20) source vector and
        costs one back-substitution.  Results are bit-identical to
        per-point :meth:`solve` calls (wall-clock ``solve_time`` excepted)
        — the per-power source vector accumulates exactly the heats the
        per-point circuit build would have stamped.
        """
        powers = list(powers)
        if not powers:
            return []
        cluster = as_cluster(via)
        validate_tsv_in_stack(stack, cluster.member)
        start = time.perf_counter()
        circuit, top_nodes, scheme = self._build(stack, cluster, powers[0])
        # the first member's heats are already stamped into the circuit;
        # later members only differ in their Eq. (20) source vector
        sources = [circuit.source_vector()]
        for power in powers[1:]:
            segments = self._segments(stack, cluster, scheme, power)
            q = np.zeros(circuit.n_nodes)
            for i, seg in enumerate(segments):
                if seg.heat:
                    q[circuit.node_index(f"b{i + 1}")] += seg.heat
            sources.append(q)
        solutions = circuit.solve_many(sources)
        elapsed = time.perf_counter() - start
        return [
            self._result(
                stack, cluster, scheme, solution, top_nodes, circuit.n_nodes, elapsed
            )
            for solution in solutions
        ]
