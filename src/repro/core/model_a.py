"""Model A — the paper's lumped compact resistive network (Section II).

Each plane contributes one *bulk* node and one *via-metal* node; the
resistance triple of :mod:`repro.resistances.model_a_set` links them to the
plane below, and the lumped first-plane substrate Rs ties the whole ladder
to the heat-sink ground (Fig. 2).  ``ModelA.solve`` stamps this network
directly (:meth:`ModelA.assemble_system`), bit-identical to the generic
:class:`~repro.network.ThermalCircuit` that :func:`build_model_a_circuit`
wires; for the paper's three-plane case
:func:`solve_three_plane_closed_form` additionally writes out Eqs. (1)–(6)
literally, which the test-suite uses to verify the generic assembly.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import GeometryError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from ..network import GROUND, ThermalCircuit
from ..network.circuit import DENSE_CUTOFF
from ..perf import content_key
from ..resistances import (
    FittingCoefficients,
    ModelAResistances,
    compute_model_a_resistances,
)
from .base import AssembledSystem, StackedMember, ThermalTSVModel
from .result import ModelResult


def bulk_node(plane_index: int) -> str:
    """Name of plane ``plane_index``'s bulk node (0-based)."""
    return f"bulk{plane_index + 1}"


def metal_node(plane_index: int) -> str:
    """Name of plane ``plane_index``'s via-metal node (0-based)."""
    return f"tsv{plane_index + 1}"


#: name of the via-bottom node (the paper's T0)
T0_NODE = "t0"


def build_model_a_circuit(
    resistances: ModelAResistances, plane_heats: tuple[float, ...]
) -> ThermalCircuit:
    """Assemble the Fig. 2 network for any number of planes.

    ``plane_heats[j]`` (watts) is injected at plane j's bulk node, matching
    the q1–q3 sources of the paper.
    """
    if len(plane_heats) != resistances.n_planes:
        raise GeometryError(
            f"{resistances.n_planes} planes but {len(plane_heats)} heat values"
        )
    circuit = ThermalCircuit()
    circuit.add_resistor(T0_NODE, GROUND, resistances.rs, label="Rs")
    for j, triple in enumerate(resistances.planes):
        below_bulk = T0_NODE if j == 0 else bulk_node(j - 1)
        below_metal = T0_NODE if j == 0 else metal_node(j - 1)
        circuit.add_resistor(bulk_node(j), below_bulk, triple.bulk, label=f"Rbulk{j + 1}")
        circuit.add_resistor(metal_node(j), below_metal, triple.metal, label=f"Rmetal{j + 1}")
        circuit.add_resistor(bulk_node(j), metal_node(j), triple.liner, label=f"Rliner{j + 1}")
        circuit.add_source(bulk_node(j), plane_heats[j], label=f"q{j + 1}")
    return circuit


def _edges(
    resistances: ModelAResistances,
) -> list[tuple[int, int | None, float, bool]]:
    """Fig. 2's resistors in :func:`build_model_a_circuit`'s order.

    Each is ``(row, other row or None for ground, R, lateral)``; rows
    follow the circuit's node insertion order: t0 = 0, bulk_j = 2j + 1,
    metal_j = 2j + 2.  ``lateral`` marks the liner resistors, the only
    ones k2 divides (k1 divides all the others).
    """
    edges = [(0, None, resistances.rs, False)]  # Rs: t0 — ground
    for j, triple in enumerate(resistances.planes):
        bulk, metal = 2 * j + 1, 2 * j + 2
        edges += [
            (bulk, 0 if j == 0 else bulk - 2, triple.bulk, False),
            (metal, 0 if j == 0 else metal - 2, triple.metal, False),
            (bulk, metal, triple.liner, True),
        ]
    return edges


@functools.lru_cache(maxsize=None)
def _node_names(n_planes: int) -> tuple[str, ...]:
    """Row order of the Fig. 2 system: t0, then each plane's bulk and metal."""
    names = [T0_NODE]
    for j in range(n_planes):
        names.extend((bulk_node(j), metal_node(j)))
    return tuple(names)


def _stamp(matrix: np.ndarray, ia: int, ib: int | None, resistance: float) -> None:
    """Add one resistor's ``g = 1/R`` to a dense conductance matrix."""
    g = 1.0 / resistance
    matrix[ia, ia] += g
    if ib is not None:
        matrix[ib, ib] += g
        matrix[ia, ib] -= g
        matrix[ib, ia] -= g


def _heat_vector(heats: tuple[float, ...]) -> np.ndarray:
    """Plane j's heat at its bulk node (row 2j + 1)."""
    rhs = np.zeros(2 * len(heats) + 1)
    rhs[1::2] += heats
    return rhs


def split_system(
    stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G_vert, G_lat, q)`` of the Fig. 2 system at unit coefficients.

    k1 divides every vertical resistance and k2 every lateral one
    (:mod:`repro.resistances.model_a_set`), so with ``c_bond = 1`` Model
    A's conductance matrix is ``k1·G_vert + k2·G_lat`` — equal, up to
    rounding, to the one :meth:`ModelA.assemble_system` stamps for
    ``FittingCoefficients(k1, k2)``.  The calibration fit stamps each
    sample once this way.
    """
    cluster = as_cluster(via)
    validate_tsv_in_stack(stack, cluster.member)
    resistances = compute_model_a_resistances(stack, cluster)
    n = 2 * stack.n_planes + 1
    vertical, lateral = np.zeros((n, n)), np.zeros((n, n))
    for ia, ib, resistance, is_lateral in _edges(resistances):
        _stamp(lateral if is_lateral else vertical, ia, ib, resistance)
    heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
    return vertical, lateral, _heat_vector(heats)


class ModelA(ThermalTSVModel):
    """The lumped Model A with fitting coefficients.

    Parameters
    ----------
    fit:
        Fitting coefficients (k1, k2, c_bond).  Defaults to the paper's
        block values k1 = 1.3, k2 = 0.55 used throughout Figs. 4–7.
    exact_area:
        Use the exact n-via occupied area in the bulk-area term (ablation;
        the paper keeps the single-via area).
    """

    name = "model_a"

    def __init__(
        self,
        fit: FittingCoefficients | None = None,
        *,
        exact_area: bool = False,
    ) -> None:
        self.fit = fit or FittingCoefficients.paper_block()
        self.exact_area = exact_area

    def resistances(self, stack: Stack3D, via: TSV | TSVCluster) -> ModelAResistances:
        """The Eq. (7)–(16) resistance set this model will solve."""
        return compute_model_a_resistances(
            stack, via, self.fit, exact_area=self.exact_area
        )

    def batch_class_key(self, stack: Stack3D, via: TSV | TSVCluster) -> str | None:
        """Stack any same-plane-count Model A points, whatever their fit.

        The network topology depends only on the plane count, so every
        point with ``n_planes`` planes — across radii, liner thicknesses,
        even across differently calibrated Model A instances — assembles
        a congruent ``2·n_planes + 1`` node system and may ride one
        batched dense solve.
        """
        if 2 * stack.n_planes + 1 > DENSE_CUTOFF:
            return None  # pragma: no cover - would need a ~100-plane stack
        return content_key("stacked_class/model_a/v1", stack.n_planes)

    def assemble_system(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> AssembledSystem:
        """Stamp the Fig. 2 system directly, skipping the circuit object.

        The dense matrix is stamped in exactly
        :func:`build_model_a_circuit`'s edge order with the same
        ``g = 1/R`` accumulation, so it is bit-identical to
        ``circuit.conductance_matrix(sparse=False)`` — and therefore the
        stacked solve reproduces :meth:`solve`'s temperatures bit-for-bit
        (asserted by the identity tests) while avoiding the per-point
        circuit build and sparse-COO round-trip on the hot sweep path.
        """
        cluster = as_cluster(via)
        validate_tsv_in_stack(stack, cluster.member)
        return self._assemble(stack, cluster, power)

    def _assemble(
        self, stack: Stack3D, cluster: TSVCluster, power: PowerSpec
    ) -> AssembledSystem:
        """:meth:`assemble_system` on an already validated cluster."""
        heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
        start = time.perf_counter()
        resistances = self.resistances(stack, cluster)
        n = 2 * stack.n_planes + 1
        matrix = np.zeros((n, n))
        for ia, ib, resistance, _lateral in _edges(resistances):
            _stamp(matrix, ia, ib, resistance)
        return AssembledSystem(
            matrix=matrix,
            rhs=_heat_vector(heats),
            finish=self._finisher(stack, cluster, start),
        )

    def assemble_batch(
        self, members: Sequence[StackedMember]
    ) -> list[AssembledSystem] | None:
        """Stamp a stacked batch of Model A points in one vectorised pass.

        The members share one batch class, so one plane count and one
        edge pattern.  Every member's resistances come from its own model
        (fits may differ); the conductances ``1/R`` of edge ``e`` across
        all members form one column, added to the ``(m, n, n)`` stack in
        :func:`_edges` order.  Each matrix entry therefore receives the
        same float additions in the same order as :meth:`assemble_system`
        makes them, so every member's matrix is bit-identical to its solo
        stamp.
        """
        if not all(type(model) is ModelA for model, *_ in members):
            return super().assemble_batch(members)
        finishes, rhs, resistances = [], [], []
        # a geometry sweep shares its stack and power objects: one heat
        # vector per distinct pair (keyed by identity, alive for the call)
        heat_vectors: dict[tuple[int, int], np.ndarray] = {}
        for model, stack, via, power in members:
            cluster = as_cluster(via)
            validate_tsv_in_stack(stack, cluster.member)
            pair = (id(stack), id(power))
            if pair not in heat_vectors:
                heat_vectors[pair] = _heat_vector(
                    tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
                )
            start = time.perf_counter()
            edges = _edges(model.resistances(stack, cluster))
            resistances.append([r for _, _, r, _ in edges])
            rhs.append(heat_vectors[pair])
            finishes.append(model._finisher(stack, cluster, start))
        n = len(rhs[0])
        conductance = 1.0 / np.array(resistances)  # (m, edges)
        matrices = np.zeros((len(members), n, n))
        for e, (ia, ib, _, _) in enumerate(edges):  # one pattern per plane count
            g = conductance[:, e]
            matrices[:, ia, ia] += g
            if ib is not None:
                matrices[:, ib, ib] += g
                matrices[:, ia, ib] -= g
                matrices[:, ib, ia] -= g
        return [
            AssembledSystem(matrix=matrix, rhs=q, finish=finish)
            for matrix, q, finish in zip(matrices, rhs, finishes)
        ]

    def _finisher(
        self, stack: Stack3D, cluster: TSVCluster, start: float
    ) -> Callable[[np.ndarray], ModelResult]:
        """Turn a solved temperature vector into this point's result."""
        node_names = _node_names(stack.n_planes)

        def finish(temps: np.ndarray) -> ModelResult:
            elapsed = time.perf_counter() - start
            values = temps.tolist()
            return ModelResult(
                model_name=self.name,
                max_rise=max(values),
                plane_rises=tuple(values[1::2]),  # bulk_j is row 2j + 1
                sink_temperature=stack.sink_temperature,
                solve_time=elapsed,
                n_unknowns=len(node_names),
                node_temperatures=dict(zip(node_names, values)),
                metadata={
                    "k1": self.fit.k1,
                    "k2": self.fit.k2,
                    "c_bond": self.fit.c_bond,
                    "cluster_count": cluster.count,
                },
            )

        return finish

    def _solve(
        self, stack: Stack3D, via: TSVCluster, power: PowerSpec
    ) -> ModelResult:
        from ..network.solve import solve_dense

        system = self._assemble(stack, via, power)
        return system.finish(solve_dense(system.matrix, system.rhs))


def solve_three_plane_closed_form(
    stack: Stack3D,
    via: TSV | TSVCluster,
    power: PowerSpec,
    fit: FittingCoefficients | None = None,
) -> dict[str, float]:
    """Literal Eqs. (1)–(6) for a three-plane stack.

    Returns the temperatures ``{"T0": ..., ..., "T5": ...}`` of Fig. 2.
    Kept as an independent implementation (explicit 6×6 system in the
    paper's own variables) to cross-validate the generic network assembly.
    """
    if stack.n_planes != 3:
        raise GeometryError("the closed form covers exactly three planes")
    fit = fit or FittingCoefficients.paper_block()
    cluster = as_cluster(via)
    r1, r2, r3, r4, r5, r6, r7, r8, r9, rs = compute_model_a_resistances(
        stack, cluster, fit
    ).as_paper_tuple()
    q1, q2, q3 = (power.plane_heat(stack, j) for j in range(3))
    r89 = r8 + r9

    # unknowns x = [T0, T1, T2, T3, T4, T5]
    a = np.zeros((6, 6))
    b = np.zeros(6)
    # (1) q3 = (T5-T3)/R7 + (T5-T4)/(R8+R9)
    a[0, 5] = 1.0 / r7 + 1.0 / r89
    a[0, 3] = -1.0 / r7
    a[0, 4] = -1.0 / r89
    b[0] = q3
    # (2) q2 + (T5-T3)/R7 = (T3-T4)/R6 + (T3-T1)/R4
    a[1, 5] = 1.0 / r7
    a[1, 3] = -1.0 / r7 - 1.0 / r6 - 1.0 / r4
    a[1, 4] = 1.0 / r6
    a[1, 1] = 1.0 / r4
    b[1] = -q2
    # (3) (T3-T4)/R6 + (T5-T4)/(R8+R9) = (T4-T2)/R5
    a[2, 3] = 1.0 / r6
    a[2, 5] = 1.0 / r89
    a[2, 4] = -1.0 / r6 - 1.0 / r89 - 1.0 / r5
    a[2, 2] = 1.0 / r5
    b[2] = 0.0
    # (4) q1 + (T3-T1)/R4 = (T1-T2)/R3 + (T1-T0)/R1
    a[3, 3] = 1.0 / r4
    a[3, 1] = -1.0 / r4 - 1.0 / r3 - 1.0 / r1
    a[3, 2] = 1.0 / r3
    a[3, 0] = 1.0 / r1
    b[3] = -q1
    # (5) (T1-T2)/R3 + (T4-T2)/R5 = (T2-T0)/R2
    a[4, 1] = 1.0 / r3
    a[4, 4] = 1.0 / r5
    a[4, 2] = -1.0 / r3 - 1.0 / r5 - 1.0 / r2
    a[4, 0] = 1.0 / r2
    b[4] = 0.0
    # (6) T0 = Rs (q1 + q2 + q3)
    a[5, 0] = 1.0
    b[5] = rs * (q1 + q2 + q3)

    t = np.linalg.solve(a, b)
    return {f"T{i}": float(t[i]) for i in range(6)}
