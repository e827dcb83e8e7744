"""Model A — the paper's lumped compact resistive network (Section II).

Each plane contributes one *bulk* node and one *via-metal* node; the
resistance triple of :mod:`repro.resistances.model_a_set` links them to the
plane below, and the lumped first-plane substrate Rs ties the whole ladder
to the heat-sink ground (Fig. 2).  ``ModelA.solve`` assembles this network
with the generic :class:`~repro.network.ThermalCircuit` stamper; for the
paper's three-plane case :func:`solve_three_plane_closed_form` additionally
writes out Eqs. (1)–(6) literally, which the test-suite uses to verify the
generic assembly.
"""

from __future__ import annotations

import time

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
from .base import AssembledSystem, ThermalTSVModel
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
        heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
        start = time.perf_counter()
        resistances = self.resistances(stack, cluster)
        n_planes = stack.n_planes
        n = 2 * n_planes + 1
        matrix = np.zeros((n, n))
        rhs = np.zeros(n)

        def stamp(ia: int, ib: int | None, resistance: float) -> None:
            g = 1.0 / resistance
            matrix[ia, ia] += g
            if ib is not None:
                matrix[ib, ib] += g
                matrix[ia, ib] -= g
                matrix[ib, ia] -= g

        # node order matches circuit insertion: t0=0, bulk_j=2j+1, metal_j=2j+2
        stamp(0, None, resistances.rs)  # Rs: t0 — ground
        for j, triple in enumerate(resistances.planes):
            bulk, metal = 2 * j + 1, 2 * j + 2
            stamp(bulk, 0 if j == 0 else bulk - 2, triple.bulk)
            stamp(metal, 0 if j == 0 else metal - 2, triple.metal)
            stamp(bulk, metal, triple.liner)
            rhs[bulk] += heats[j]

        node_names = [T0_NODE]
        for j in range(n_planes):
            node_names.extend((bulk_node(j), metal_node(j)))

        def finish(temps: np.ndarray) -> ModelResult:
            elapsed = time.perf_counter() - start
            temperatures = {
                name: float(temps[i]) for i, name in enumerate(node_names)
            }
            return ModelResult(
                model_name=self.name,
                max_rise=max(temperatures.values()),
                plane_rises=tuple(
                    temperatures[bulk_node(j)] for j in range(n_planes)
                ),
                sink_temperature=stack.sink_temperature,
                solve_time=elapsed,
                n_unknowns=n,
                node_temperatures=temperatures,
                metadata={
                    "k1": self.fit.k1,
                    "k2": self.fit.k2,
                    "c_bond": self.fit.c_bond,
                    "cluster_count": cluster.count,
                },
            )

        return AssembledSystem(matrix=matrix, rhs=rhs, finish=finish)

    def _solve(
        self, stack: Stack3D, via: TSVCluster, power: PowerSpec
    ) -> ModelResult:
        heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
        start = time.perf_counter()
        resistances = self.resistances(stack, via)
        circuit = build_model_a_circuit(resistances, heats)
        solution = circuit.solve()
        elapsed = time.perf_counter() - start
        plane_rises = tuple(solution[bulk_node(j)] for j in range(stack.n_planes))
        return ModelResult(
            model_name=self.name,
            max_rise=solution.max_rise,
            plane_rises=plane_rises,
            sink_temperature=stack.sink_temperature,
            solve_time=elapsed,
            n_unknowns=circuit.n_nodes,
            node_temperatures=dict(solution.temperatures),
            metadata={
                "k1": self.fit.k1,
                "k2": self.fit.k2,
                "c_bond": self.fit.c_bond,
                "cluster_count": via.count,
            },
        )


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
