"""Array stamping against the one-resistor-at-a-time circuit builders.

Model B stamps its π-ladder from arrays and Model A stamps its Fig. 2
system directly; :meth:`ThermalCircuit.conductance_matrix` builds its
triplets in one array pass.  The circuit builders and a plain
per-resistor loop stay as the reference: matrices and temperatures must
match them bit for bit.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ModelA, ModelB, paper_stack, paper_tsv
from repro.core.base import solve_stacked
from repro.core.model_a import build_model_a_circuit
from repro.core.model_b import _build_ladder, build_model_b_circuit
from repro.errors import NetworkError, ValidationError
from repro.geometry import PowerSpec, TSVCluster, as_cluster
from repro.network import GROUND, Resistor, ThermalCircuit
from repro.network.circuit import stamp_conductances
from repro.resistances import FittingCoefficients
from repro.units import um


def loop_csr(circuit: ThermalCircuit) -> sp.csr_matrix:
    """The conductance matrix from a plain per-resistor COO loop."""
    nodes = {node: i for i, node in enumerate(circuit.nodes)}
    rows, cols, vals = [], [], []
    for r in circuit.resistors:
        g = 1.0 / r.resistance
        ia = None if r.node_a == GROUND else nodes[r.node_a]
        ib = None if r.node_b == GROUND else nodes[r.node_b]
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
    n = circuit.n_nodes
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assert_same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


@pytest.fixture()
def fig7_block():
    """The Fig. 7 block: tSi2,3 = 20 um, tD = 4 um, r = 10 um, tL = 1 um."""
    stack = paper_stack(t_si_upper=um(20.0), t_ild=um(4.0), t_bond=um(1.0))
    return stack, paper_tsv(radius=um(10.0), liner_thickness=um(1.0)), PowerSpec()


class TestModelBLadder:
    @pytest.mark.parametrize("segments", [1, 10, 100, 1000])
    def test_matrix_and_temperatures_match_the_circuit(self, fig7_block, segments):
        stack, via, power = fig7_block
        model = ModelB(segments)
        cluster = as_cluster(via)
        pieces = model._segments(stack, cluster, model.segment_scheme(stack), power)
        ladder = _build_ladder(pieces)
        circuit, top_nodes = build_model_b_circuit(pieces, pieces.rs)
        assert ladder.node_names == circuit.nodes
        assert_same_csr(ladder.csr, circuit.conductance_matrix(sparse=True))
        assert_same_csr(ladder.csr, loop_csr(circuit))
        reference = circuit.solve()
        result = model.solve(stack, via, power)
        assert list(result.node_temperatures) == circuit.nodes
        assert result.node_temperatures == reference.temperatures  # bit-equal
        assert result.max_rise == reference.max_rise
        assert result.plane_rises == tuple(reference[n] for n in top_nodes)

    @pytest.mark.parametrize("segments", [1, 7, 60])
    def test_uniform_scheme_matches_the_circuit(self, fig7_block, segments):
        stack, via, power = fig7_block
        model = ModelB(segments, scheme="uniform")
        cluster = TSVCluster(via, 4)
        pieces = model._segments(stack, cluster, model.segment_scheme(stack), power)
        assert np.isnan(pieces.metal).any()  # the via column ends below the top
        circuit, _ = build_model_b_circuit(pieces, pieces.rs)
        assert_same_csr(_build_ladder(pieces).csr, loop_csr(circuit))
        result = model.solve(stack, cluster, power)
        assert result.node_temperatures == circuit.solve().temperatures

    def test_uniform_ladder_without_a_via_column(self):
        # one plane and a zero extension: the via spans nothing, so no
        # segment carries metal and the ladder is bulk resistors only
        stack, via = paper_stack(n_planes=1), paper_tsv(extension=0.0)
        model = ModelB(10, scheme="uniform")
        cluster = as_cluster(via)
        pieces = model._segments(stack, cluster, model.segment_scheme(stack), PowerSpec())
        assert np.isnan(pieces.metal).all()
        circuit, _ = build_model_b_circuit(pieces, pieces.rs)
        ladder = _build_ladder(pieces)
        assert ladder.node_names == circuit.nodes
        assert_same_csr(ladder.csr, loop_csr(circuit))
        result = model.solve(stack, via, PowerSpec())
        assert result.node_temperatures == circuit.solve().temperatures

    def test_batch_and_stacked_routes_match_the_solo_solve(self, fig7_block):
        stack, via, _ = fig7_block
        powers = [PowerSpec(), PowerSpec(plane_powers=(0.5, 1.0, 2.0))]
        for model in (ModelB(10), ModelB(300)):  # a dense and a sparse ladder
            solo = [model.solve(stack, via, p).node_temperatures for p in powers]
            shared = solve_stacked([(model, stack, via, p) for p in powers])
            assert [r.node_temperatures for r in shared] == solo
        expected = ModelB(10).solve(stack, via, powers[1]).node_temperatures
        system = ModelB(10).assemble_system(stack, via, powers[1])
        temps = np.linalg.solve(system.matrix, system.rhs)
        assert system.finish(temps).node_temperatures == expected


class TestModelA:
    def test_solve_matches_the_circuit_bit_for_bit(self, fig7_block):
        stack, via, power = fig7_block
        rng = random.Random(7)
        for _ in range(20):
            fit = FittingCoefficients(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0))
            probe = via.with_radius(um(rng.uniform(2.0, 12.0)))
            cluster = TSVCluster(probe, rng.choice((1, 4, 9)))
            model = ModelA(fit)
            heats = tuple(power.plane_heat(stack, j) for j in range(stack.n_planes))
            circuit = build_model_a_circuit(model.resistances(stack, cluster), heats)
            reference = circuit.solve()
            result = model.solve(stack, cluster, power)
            assert result.node_temperatures == reference.temperatures
            assert list(result.node_temperatures) == circuit.nodes
            assert result.max_rise == reference.max_rise
            assert result.n_unknowns == circuit.n_nodes


class TestCircuitStamping:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_a_plain_loop(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 300)
        circuit = ThermalCircuit()
        names = [f"n{i}" for i in range(n)]
        circuit.add_resistor(names[0], GROUND, rng.uniform(0.1, 10.0))
        for i in range(1, n):  # a spanning tree keeps every node grounded
            circuit.add_resistor(names[rng.randrange(i)], names[i], rng.uniform(0.1, 10.0))
        for _ in range(n):
            a, b = rng.sample(names + [GROUND], 2)
            # integer resistances stamp like their float values
            value = rng.choice((rng.uniform(1e-3, 1e3), rng.randint(1, 9)))
            circuit.add_resistor(a, b, value)
        reference = loop_csr(circuit)
        assert_same_csr(circuit.conductance_matrix(sparse=True), reference)
        dense = circuit.conductance_matrix(sparse=False)
        assert dense.tobytes() == reference.toarray().tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_resistance_raises_like_a_resistor(self, bad):
        with pytest.raises(ValidationError):
            Resistor("a", GROUND, bad)
        with pytest.raises(ValidationError):
            stamp_conductances([0, 0], [-1, 1], [1.0, bad], 2)

    def test_self_loop_raises_like_a_resistor(self):
        with pytest.raises(NetworkError):
            Resistor("a", "a", 1.0)
        with pytest.raises(NetworkError):
            stamp_conductances([0, 1], [-1, 1], [1.0, 1.0], 2)
        with pytest.raises(NetworkError):  # ground to ground
            stamp_conductances([-1], [-1], [1.0], 1)
