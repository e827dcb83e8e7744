"""The :class:`ThermalCircuit` builder and its steady-state solution.

Both analytical models of the paper (and the 1-D baseline) are assembled on
top of this class: nodes are created implicitly by referencing them from
resistors/sources, the ground node is the heat sink, and ``solve()`` stamps
the nodal conductance matrix (KCL) and solves G·ΔT = q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NetworkError, ValidationError
from .elements import GROUND, Capacitor, HeatSource, NodeId, Resistor

#: below this many unknowns a dense solve is faster than sparse setup
DENSE_CUTOFF = 200


def stamp_conductances(
    ia: np.ndarray,
    ib: np.ndarray,
    resistance: np.ndarray,
    n: int,
    *,
    sparse: bool | None = None,
):
    """The KCL nodal conductance matrix of resistors given as arrays.

    Resistor ``k`` links rows ``ia[k]`` and ``ib[k]`` (``-1`` is the
    ground node) through ``resistance[k]`` K/W.  The COO triplets come out
    in the order a per-resistor loop emits them — each resistor's diagonal
    entries, then its two off-diagonal ones — so ``tocsr`` sums duplicates
    in that order too and the matrix is bit-identical whatever built the
    arrays (:meth:`ThermalCircuit.conductance_matrix`, Model B's ladder).

    Raises what a :class:`~repro.network.elements.Resistor` raises:
    :class:`~repro.errors.NetworkError` for a resistor from a node to
    itself, :class:`~repro.errors.ValidationError` for a resistance that is
    not finite and positive.  ``sparse`` forces the output format;
    ``None`` picks sparse above :data:`DENSE_CUTOFF` nodes.
    """
    # scipy loads with the first assembly, not with the circuit classes:
    # a stored run reads back without it
    import scipy.sparse as sp

    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    resistance = np.asarray(resistance, dtype=float)
    loops = np.flatnonzero(ia == ib)
    if loops.size:
        raise NetworkError(f"resistor {loops[0]} connects a node to itself")
    bad = np.flatnonzero(~(np.isfinite(resistance) & (resistance > 0.0)))
    if bad.size:
        raise ValidationError(
            f"resistance {bad[0]} must be finite and positive, "
            f"got {resistance[bad[0]]!r}"
        )
    g = 1.0 / resistance
    both = (ia >= 0) & (ib >= 0)
    keep = np.stack([ia >= 0, ib >= 0, both, both], axis=1)
    rows = np.stack([ia, ib, ia, ib], axis=1)[keep]
    cols = np.stack([ia, ib, ib, ia], axis=1)[keep]
    vals = np.stack([g, g, -g, -g], axis=1)[keep]
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    if sparse is None:
        sparse = n > DENSE_CUTOFF
    return matrix if sparse else matrix.toarray()


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
        index = dict(self._nodes)
        index[GROUND] = -1
        count = len(self.resistors)
        ia = np.fromiter((index[r.node_a] for r in self.resistors), np.intp, count)
        ib = np.fromiter((index[r.node_b] for r in self.resistors), np.intp, count)
        resistance = np.fromiter((r.resistance for r in self.resistors), float, count)
        return stamp_conductances(ia, ib, resistance, self.n_nodes, sparse=sparse)

    def source_vector(self) -> np.ndarray:
        """The heat-injection vector q aligned with :attr:`nodes`."""
        q = np.zeros(self.n_nodes)
        for s in self.sources:
            q[self._nodes[s.node]] += s.power
        return q

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
