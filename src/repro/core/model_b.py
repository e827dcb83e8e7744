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
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ValidationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from ..network import GROUND, ThermalCircuit
from ..network.circuit import DENSE_CUTOFF, stamp_conductances
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


@dataclass(frozen=True)
class _Segments:
    """The π-segments bottom-up across all planes, as arrays.

    Resistances are in K/W; ``metal`` and ``lateral`` are NaN above the
    via top (no metal column).  ``heat`` (W) is injected at each
    segment's bulk node; ``rs`` is the lumped first-plane substrate.
    """

    bulk: np.ndarray
    metal: np.ndarray
    lateral: np.ndarray
    heat: np.ndarray
    plane_index: np.ndarray
    rs: float

    def __len__(self) -> int:
        return len(self.bulk)


def _paper_segments(
    stack: Stack3D,
    via: TSVCluster,
    scheme: SegmentScheme,
    power: PowerSpec,
    bond_factor: float,
    exact_area: bool,
) -> _Segments:
    """Eq. (21) segments, bottom-up across all planes.

    Within a plane every segment has the same metal and lateral
    resistance, and every substrate (ILD) segment the same bulk one, bar
    the first, which also carries the lumped bond (substrate + bond when
    the plane has no substrate segments).  Each value is computed once,
    with scalar float operations, and repeated.
    """
    quantities = compute_model_b_resistances(
        stack, via, bond_factor=bond_factor, exact_area=exact_area
    )
    bulk, heat, plane_index = [], [], []
    metal, lateral = [], []
    for j in range(stack.n_planes):
        q = quantities.planes[j]
        n_si, n_ild = scheme.split(stack, j)
        n_j = n_si + n_ild
        heat_per_ild = power.plane_heat(stack, j) / n_ild
        extra_bulk = 0.0  # substrate+bond folded into the first ILD segment
        if n_si == 0 and q.substrate_bulk is not None:
            extra_bulk = q.substrate_bulk + (q.bond_bulk or 0.0)
        if n_si:
            si_bulk = np.full(n_si, (q.substrate_bulk or 0.0) / n_si)
            si_bulk[0] = si_bulk[0] + (q.bond_bulk or 0.0)
            bulk.append(si_bulk)
        ild_bulk = np.full(n_ild, q.ild_bulk / n_ild)
        ild_bulk[0] = ild_bulk[0] + extra_bulk
        bulk.append(ild_bulk)
        heat.append(np.zeros(n_si))
        heat.append(np.full(n_ild, heat_per_ild))
        metal.append(np.full(n_j, q.metal_total / n_j))
        lateral.append(np.full(n_j, n_j * q.liner_total))
        plane_index.append(np.full(n_j, j))
    return _Segments(
        bulk=np.concatenate(bulk),
        metal=np.concatenate(metal),
        lateral=np.concatenate(lateral),
        heat=np.concatenate(heat),
        plane_index=np.concatenate(plane_index),
        rs=quantities.rs,
    )


def _uniform_segments(
    stack: Stack3D,
    via: TSVCluster,
    scheme: SegmentScheme,
    power: PowerSpec,
    bond_factor: float,
    exact_area: bool,
) -> _Segments:
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

    columns: dict[str, list[float]] = {
        name: [] for name in ("bulk", "metal", "lateral", "heat", "plane_index")
    }
    z = z_bottom
    for j in range(stack.n_planes):
        n_si, n_ild = scheme.split(stack, j)
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
                columns["bulk"].append(dz / (k_layer * area))
                columns["metal"].append(
                    dz / (k_fill * metal_area) if in_span else math.nan
                )
                columns["lateral"].append(
                    _liner_lateral(via, dz, 1.0) if in_span else math.nan
                )
                columns["heat"].append(heat_per_ild if is_ild else 0.0)
                columns["plane_index"].append(j)
                z += dz
    return _Segments(
        **{name: np.array(values) for name, values in columns.items()},
        rs=quantities.rs,
    )


def build_model_b_circuit(
    segments: _Segments, rs: float
) -> tuple[ThermalCircuit, list[str]]:
    """Wire the π-segment ladder one resistor at a time; returns the
    circuit and the per-plane topmost bulk node names (for plane-rise
    readouts).

    The reference for :func:`_build_ladder`, which stamps the same ladder
    from arrays; :class:`ModelB` itself never builds this circuit.
    """
    circuit = ThermalCircuit()
    circuit.add_resistor(T0_NODE, GROUND, rs, label="Rs")
    prev_bulk = T0_NODE
    prev_metal: str | None = T0_NODE
    plane_top: dict[int, str] = {}
    for i in range(len(segments)):
        metal = float(segments.metal[i])
        lateral = float(segments.lateral[i])
        heat = float(segments.heat[i])
        b = f"b{i + 1}"
        circuit.add_resistor(
            prev_bulk, b, float(segments.bulk[i]), label=f"R{3 * i + 1}"
        )
        if not math.isnan(metal) and prev_metal is not None:
            m = f"m{i + 1}"
            circuit.add_resistor(prev_metal, m, metal, label=f"R{3 * i + 2}")
            if not math.isnan(lateral):
                circuit.add_resistor(b, m, lateral, label=f"R{3 * i + 3}")
            prev_metal = m
        else:
            prev_metal = None  # the via column has ended
        if heat:
            circuit.add_source(b, heat, label=f"q(b{i + 1})")
        prev_bulk = b
        plane_top[int(segments.plane_index[i])] = b
    top_nodes = [plane_top[j] for j in sorted(plane_top)]
    return circuit, top_nodes


@dataclass(frozen=True)
class _Ladder:
    """One π-ladder's Eq. (19) matrix, stamped from segment arrays."""

    csr: Any  # scipy.sparse CSR
    node_names: list[str]  # in row order: t0, b1, m1, b2, m2, ...
    bulk_rows: np.ndarray  # the row of each segment's bulk node
    top_rows: np.ndarray  # the row of each plane's topmost bulk node

    @property
    def matrix(self) -> Any:
        """The matrix solves use: the CSR above DENSE_CUTOFF nodes, dense below."""
        if len(self.node_names) > DENSE_CUTOFF:
            return self.csr
        return self.csr.toarray()

    def source_vector(self, heat: np.ndarray) -> np.ndarray:
        """The Eq. (20) source vector of per-segment bulk-node heats."""
        q = np.zeros(len(self.node_names))
        heated = heat != 0.0
        q[self.bulk_rows[heated]] = heat[heated]
        return q


def _build_ladder(segments: _Segments) -> _Ladder:
    """Stamp :func:`build_model_b_circuit`'s ladder without the circuit.

    Rows follow the circuit's node insertion order (``t0, b1, m1, b2,
    …``, bulk nodes only once the via column has ended) and the
    resistors its edge order (Rs, then each segment's bulk, metal and
    lateral resistor), so :func:`~repro.network.circuit.stamp_conductances`
    emits the circuit's COO triplets element for element: the matrix —
    and every temperature solved from it — is bit-identical.
    """
    n_seg = len(segments)
    has_metal = ~np.isnan(segments.metal)
    # the via column runs up to the first segment without metal
    k = n_seg if has_metal.all() else int(np.argmin(has_metal))
    i = np.arange(n_seg)
    bulk_rows = np.where(i < k, 1 + 2 * i, 1 + k + i)
    metal_rows = 2 + 2 * i[:k]
    prev_bulk = np.concatenate(([0], bulk_rows[:-1]))
    prev_metal = np.concatenate(([0], metal_rows))[:k]  # empty when k == 0
    # per column-segment edges (bulk, metal, lateral), row-major
    column_a = np.stack([prev_bulk[:k], prev_metal, bulk_rows[:k]], axis=1)
    column_b = np.stack([bulk_rows[:k], metal_rows, metal_rows], axis=1)
    column_r = np.stack(
        [segments.bulk[:k], segments.metal[:k], segments.lateral[:k]], axis=1
    )
    wired = np.ones_like(column_a, dtype=bool)
    wired[:, 2] = ~np.isnan(segments.lateral[:k])
    ia = np.concatenate(([0], column_a[wired], prev_bulk[k:]))
    ib = np.concatenate(([-1], column_b[wired], bulk_rows[k:]))
    resistance = np.concatenate(([segments.rs], column_r[wired], segments.bulk[k:]))
    n = 1 + n_seg + k
    names = [T0_NODE]
    for s in range(1, k + 1):
        names += (f"b{s}", f"m{s}")
    names += [f"b{s}" for s in range(k + 1, n_seg + 1)]
    plane = segments.plane_index
    plane_ends = np.flatnonzero(np.append(plane[1:] != plane[:-1], True))
    return _Ladder(
        csr=stamp_conductances(ia, ib, resistance, n, sparse=True),
        node_names=names,
        bulk_rows=bulk_rows,
        top_rows=bulk_rows[plane_ends],
    )


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
    ) -> _Segments:
        build = _paper_segments if self.scheme == "paper" else _uniform_segments
        return build(
            stack, cluster, scheme, power, self.bond_factor, self.exact_area
        )

    def _build(
        self, stack: Stack3D, cluster: TSVCluster, power: PowerSpec
    ) -> tuple[_Ladder, np.ndarray, SegmentScheme]:
        """Stamp the π-segment ladder and its source vector for one power spec."""
        scheme = self.segment_scheme(stack)
        segments = self._segments(stack, cluster, scheme, power)
        ladder = _build_ladder(segments)
        return ladder, ladder.source_vector(segments.heat), scheme

    def _result(
        self,
        stack: Stack3D,
        cluster: TSVCluster,
        scheme: SegmentScheme,
        ladder: _Ladder,
        temps: np.ndarray,
        elapsed: float,
    ) -> ModelResult:
        temperatures = dict(zip(ladder.node_names, temps.tolist()))
        return ModelResult(
            model_name=self.name,
            max_rise=max(temperatures.values()),
            plane_rises=tuple(temps[ladder.top_rows].tolist()),
            sink_temperature=stack.sink_temperature,
            solve_time=elapsed,
            n_unknowns=len(ladder.node_names),
            node_temperatures=temperatures,
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
        from ..network.solve import solve_linear_system

        system = self.assemble_system(stack, via, power)
        return system.finish(solve_linear_system(system.matrix, system.rhs))

    # ------------------------------------------------------------------
    # the stacked-tier interface
    # ------------------------------------------------------------------
    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of Model B's conductance matrix at (stack, via).

        The π-segment resistances — and hence the assembled Eq. (19)
        matrix — depend only on the model configuration, the stack and the
        (cluster-normalised) via; power enters the Eq. (20) source vector
        alone.  Points sharing this key solve the identical matrix, so
        a power sweep factors it once (a shared-matrix set of the stacked
        tier), large-segment ladders included.
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
        model: those batch by :meth:`assembly_key` alone).
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
    ) -> AssembledSystem:
        """Lift one ladder's system out for the stacked solve tier.

        The ladder is stamped exactly as :meth:`solve` stamps it (same
        triplets; dense below the cutoff, sparse above), so the stacked
        solve — per-item identical to ``numpy.linalg.solve``, or one
        column of a shared-matrix set — reproduces the solo result
        bit-for-bit.
        """
        cluster = as_cluster(via)
        validate_tsv_in_stack(stack, cluster.member)
        start = time.perf_counter()
        ladder, rhs, scheme = self._build(stack, cluster, power)

        def finish(temps: np.ndarray) -> ModelResult:
            elapsed = time.perf_counter() - start
            return self._result(stack, cluster, scheme, ladder, temps, elapsed)

        return AssembledSystem(matrix=ladder.matrix, rhs=rhs, finish=finish)
