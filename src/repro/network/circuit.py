"""The :class:`ThermalCircuit` builder and its steady-state solution.

Both analytical models of the paper (and the 1-D baseline) are assembled on
top of this class: nodes are created implicitly by referencing them from
resistors/sources, the ground node is the heat sink, and ``solve()`` stamps
the nodal conductance matrix (KCL) and solves G·ΔT = q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NetworkError
from .elements import GROUND, Capacitor, HeatSource, NodeId, Resistor

#: below this many unknowns a dense solve is faster than sparse setup
DENSE_CUTOFF = 200


@dataclass(frozen=True)
class NetworkSolution:
    """Steady-state node temperature rises above the ground node.

    Access temperatures with item syntax: ``solution["bulk2"]``; the ground
    node always reads 0.
    """

    temperatures: dict[NodeId, float]
    circuit: "ThermalCircuit"

    def __getitem__(self, node: NodeId) -> float:
        if node == GROUND:
            return 0.0
        try:
            return self.temperatures[node]
        except KeyError:
            raise NetworkError(f"no node {node!r} in the solved circuit") from None

    @property
    def max_rise(self) -> float:
        """Largest temperature rise in the network, K."""
        return max(self.temperatures.values(), default=0.0)

    @property
    def hottest_node(self) -> NodeId:
        """The node with the largest rise."""
        if not self.temperatures:
            raise NetworkError("empty network has no hottest node")
        return max(self.temperatures, key=self.temperatures.__getitem__)

    def heat_flow(self, node_a: NodeId, node_b: NodeId) -> float:
        """Net heat (W) flowing from ``node_a`` to ``node_b`` through all
        resistors that directly connect them."""
        pair = {node_a, node_b}
        g_total = sum(
            r.conductance
            for r in self.circuit.resistor_adjacency().get(node_a, ())
            if {r.node_a, r.node_b} == pair
        )
        if g_total == 0.0:
            raise NetworkError(f"no resistor connects {node_a!r} and {node_b!r}")
        return (self[node_a] - self[node_b]) * g_total

    def sink_heat(self) -> float:
        """Total heat (W) flowing into the ground node; equals Σ sources
        at steady state (energy conservation)."""
        total = 0.0
        for r in self.circuit.resistor_adjacency().get(GROUND, ()):
            other = r.node_b if r.node_a == GROUND else r.node_a
            total += (self[other] - 0.0) * r.conductance
        return total


class ThermalCircuit:
    """A mutable thermal resistance network with a single ground node."""

    def __init__(self) -> None:
        self.resistors: list[Resistor] = []
        self.sources: list[HeatSource] = []
        self.capacitors: list[Capacitor] = []
        self._nodes: dict[NodeId, int] = {}
        # node -> incident resistors, rebuilt lazily when resistors change
        self._adjacency: dict[NodeId, tuple[Resistor, ...]] | None = None
        self._adjacency_marker: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _touch(self, node: NodeId) -> None:
        if node != GROUND and node not in self._nodes:
            self._nodes[node] = len(self._nodes)

    def add_resistor(
        self, node_a: NodeId, node_b: NodeId, resistance: float, *, label: str = ""
    ) -> Resistor:
        """Add a resistor (K/W) between two nodes, creating them if new."""
        r = Resistor(node_a, node_b, resistance, label)
        self._touch(node_a)
        self._touch(node_b)
        self.resistors.append(r)
        return r

    def add_source(self, node: NodeId, power: float, *, label: str = "") -> HeatSource:
        """Inject ``power`` watts into ``node``."""
        s = HeatSource(node, power, label)
        self._touch(node)
        self.sources.append(s)
        return s

    def add_capacitor(
        self, node: NodeId, capacitance: float, *, label: str = ""
    ) -> Capacitor:
        """Attach a thermal capacitance (J/K) to ``node`` (transient only)."""
        c = Capacitor(node, capacitance, label)
        self._touch(node)
        self.capacitors.append(c)
        return c

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[NodeId]:
        """All non-ground nodes in insertion order."""
        return list(self._nodes)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def node_index(self, node: NodeId) -> int:
        """Matrix row/column of a node."""
        try:
            return self._nodes[node]
        except KeyError:
            raise NetworkError(f"no node {node!r} in the circuit") from None

    def resistor_adjacency(self) -> dict[NodeId, tuple[Resistor, ...]]:
        """Node → incident resistors index (built once, reused until the
        resistor list changes).

        Replaces the O(n_resistors) set-building linear scans that
        :meth:`NetworkSolution.heat_flow` / :meth:`NetworkSolution.sink_heat`
        used to run per query.  Validity is tracked by a hash of the
        resistor *identities* (Resistor itself is frozen), so any mutation
        of the public ``resistors`` list — append, removal, or in-place
        replacement — triggers a rebuild.
        """
        marker = hash(tuple(map(id, self.resistors)))
        if self._adjacency is None or self._adjacency_marker != marker:
            index: dict[NodeId, list[Resistor]] = {}
            for r in self.resistors:
                index.setdefault(r.node_a, []).append(r)
                if r.node_b != r.node_a:
                    index.setdefault(r.node_b, []).append(r)
            self._adjacency = {n: tuple(rs) for n, rs in index.items()}
            self._adjacency_marker = marker
        return self._adjacency

    def validate(self) -> None:
        """Check the network is solvable: non-empty and fully grounded.

        Every node must reach :data:`GROUND` through resistors, otherwise
        the conductance matrix is singular.
        """
        if not self._nodes:
            raise NetworkError("circuit has no nodes")
        # BFS from ground over the resistor adjacency
        adjacency = self.resistor_adjacency()
        seen = {GROUND}
        frontier = [GROUND]
        while frontier:
            current = frontier.pop()
            for r in adjacency.get(current, ()):
                nb = r.node_b if r.node_a == current else r.node_a
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        floating = [n for n in self._nodes if n not in seen]
        if floating:
            raise NetworkError(
                f"{len(floating)} node(s) have no path to ground, e.g. {floating[0]!r}"
            )

    # ------------------------------------------------------------------
    # assembly and solve
    # ------------------------------------------------------------------
    def conductance_matrix(self, *, sparse: bool | None = None):
        """The KCL nodal conductance matrix G (ground eliminated).

        Parameters
        ----------
        sparse:
            Force sparse (True) or dense (False) output; ``None`` picks
            sparse above :data:`DENSE_CUTOFF` nodes.
        """
        # scipy loads with the first assembly, not with the circuit
        # classes: a stored run reads back without it
        import scipy.sparse as sp

        n = self.n_nodes
        if sparse is None:
            sparse = n > DENSE_CUTOFF
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for r in self.resistors:
            g = r.conductance
            ia = None if r.node_a == GROUND else self._nodes[r.node_a]
            ib = None if r.node_b == GROUND else self._nodes[r.node_b]
            if ia is not None:
                rows.append(ia)
                cols.append(ia)
                vals.append(g)
            if ib is not None:
                rows.append(ib)
                cols.append(ib)
                vals.append(g)
            if ia is not None and ib is not None:
                rows.extend((ia, ib))
                cols.extend((ib, ia))
                vals.extend((-g, -g))
        matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        if sparse:
            return matrix
        return matrix.toarray()

    def source_vector(self) -> np.ndarray:
        """The heat-injection vector q aligned with :attr:`nodes`."""
        q = np.zeros(self.n_nodes)
        for s in self.sources:
            q[self._nodes[s.node]] += s.power
        return q

    def assemble(self):
        """Validate and return ``(matrix, source_vector)`` without solving.

        The stacked execution tier uses this to lift a circuit's system
        out for a batched cross-matrix solve; the matrix is exactly what
        :meth:`solve` would assemble (same sparse/dense policy).
        """
        self.validate()  # also primes the node→resistor adjacency index
        return self.conductance_matrix(), self.source_vector()

    def solution_from(self, temps: np.ndarray) -> NetworkSolution:
        """Wrap an externally solved temperature vector, as :meth:`solve` would."""
        return NetworkSolution(
            temperatures={node: float(temps[i]) for node, i in self._nodes.items()},
            circuit=self,
        )

    def solve(self) -> NetworkSolution:
        """Solve G·ΔT = q and return node temperature rises."""
        from .solve import solve_linear_system

        self.validate()  # also primes the node→resistor adjacency index
        matrix = self.conductance_matrix()
        temps = solve_linear_system(matrix, self.source_vector())
        return NetworkSolution(
            temperatures={node: float(temps[i]) for node, i in self._nodes.items()},
            circuit=self,
        )

    def solve_many(self, sources: list[np.ndarray]) -> list[NetworkSolution]:
        """Solve G·ΔT = q for many source vectors against one factorization.

        The conductance matrix is assembled and factorised once
        (:func:`~repro.network.solve.solve_linear_system_multi`); each
        source vector costs one back-substitution, and column ``j`` is
        bit-for-bit identical to ``solve()`` with that source — Model B's
        matrix-group dispatch relies on this.  All returned solutions
        reference *this* circuit (whose own sources may correspond to any
        one of the vectors).
        """
        from .solve import solve_linear_system_multi

        if not sources:
            return []
        self.validate()
        matrix = self.conductance_matrix()
        temps = solve_linear_system_multi(matrix, np.column_stack(sources))
        return [
            NetworkSolution(
                temperatures={
                    node: float(temps[i, j]) for node, i in self._nodes.items()
                },
                circuit=self,
            )
            for j in range(len(sources))
        ]
