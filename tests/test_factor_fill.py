"""The default sparse factor: symmetric inputs, banded Cholesky, counters.

Every factorisation goes through :func:`repro.network.solve.factorize`.
Wrapping it while the fast builtins plus one 3-D (``fem3d:16x16x32``)
and one 2-D (``fem:fine``) Fig. 7 point run checks that

* every sparse matrix factored is exactly symmetric — the premise of
  its Cholesky factor;
* on the two FEM matrices the default factor is the banded Cholesky (no
  SuperLU fallback), its solutions agree with scipy's COLAMD ``splu`` to
  ``rtol=1e-10``, and its band stores at most 1.75x the entries of the
  symmetric-mode minimum-degree SuperLU factor it replaced;
* the ``sparse_factorizations`` / ``sparse_factor_nnz`` counters of
  :func:`repro.perf.stats` count exactly those factors and the entries
  they store.

Deterministic: fill and counts, no timings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import perf
from repro.network import solve as solve_module
from repro.network.solve import SYMMETRIC_SPLU, BandedCholesky
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.spec import AxisSpec

#: sparse factorisations of a cold in-process run of the 9 fast builtins:
#: 40 distinct matrices, and table1 factors 9 of fig5's Model B ladders
#: again (no factor outlives its solve)
BUILTIN_SPARSE_FACTORIZATIONS = 49
#: sparse factorisations of the two Fig. 7 points: the two FEM matrices
#: and the 421-unknown Model B ladder of the 3-D point's models
FIG7_POINT_SPARSE_FACTORIZATIONS = 3
#: unknowns of the Fig. 7 block on a 16x16x32 voxel mesh (17 x 17 x 49)
FIG7_3D_UNKNOWNS = 14_161
#: unknowns of the Fig. 7 block on the 2-D ``fine`` mesh
FIG7_FINE_UNKNOWNS = 8_512
#: band entries allowed per entry of the minimum-degree SuperLU factor
#: (measured: 1.38x in 3-D, 1.60x in 2-D ``fine``)
MAX_BAND_TO_SUPERLU_NNZ = 1.75


@dataclass
class Factored:
    matrix: object
    banded: bool  # a BandedCholesky, not a SuperLU (or dense) factor
    #: entries the factor stores: the size of the band array for a
    #: BandedCholesky, ``SuperLU.nnz``; None for a dense factor
    stored_nnz: int | None
    solution: np.ndarray  # the factor applied to :func:`_rhs`


def _rhs(n_unknowns: int) -> np.ndarray:
    return np.random.default_rng(0).uniform(0.0, 1.0, n_unknowns)


def _fig7_points():
    """One 3-D and one 2-D ``fine`` FEM point of the Fig. 7 block."""
    fem3d = replace(
        SCENARIOS.get("fem3d_power"),
        scenario_id="fill_fem3d",
        reference="fem3d:16x16x32",
        axis=AxisSpec(parameter="power_scale", values=(1.0,)),
    )
    fine = replace(
        SCENARIOS.get("fig7"),
        scenario_id="fill_fem_fine",
        reference="fem:fine",
        calibrate=False,
        axis=AxisSpec(parameter="cluster_count", values=(1,)),
    )
    return fem3d, fine


@pytest.fixture(scope="module")
def factored():
    """Every factorisation of the run, plus the counters it left behind."""
    calls: list[Factored] = []
    original = solve_module.factorize

    def recording(matrix):
        solve = original(matrix)
        lu = getattr(solve, "__self__", None)  # sparse solves are bound
        banded = isinstance(lu, BandedCholesky)
        if banded:
            stored = lu.factor.shape[0] * lu.factor.shape[1]
        elif isinstance(lu, spla.SuperLU):
            stored = lu.nnz
        else:
            stored = None
        calls.append(Factored(matrix, banded, stored, solve(_rhs(matrix.shape[0]))))
        return solve

    perf.reset()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve_module, "factorize", recording)
        for scenario_id in SCENARIOS.ids():
            run_scenario(scenario_id, fast=True)
        n_builtin = len(calls)
        for spec in _fig7_points():
            run_scenario(spec)
    counters = perf.stats()["counters"]
    perf.reset()
    return calls, n_builtin, counters


def _sparse(calls):
    return [c for c in calls if sp.issparse(c.matrix)]


def _only(calls, n_unknowns):
    (call,) = [c for c in _sparse(calls) if c.matrix.shape[0] == n_unknowns]
    return call


def test_default_ordered_matrices_are_exactly_symmetric(factored):
    calls, _, _ = factored
    default = _sparse(calls)
    assert len(default) > 2
    for call in default:
        assert (call.matrix != call.matrix.T).nnz == 0, call.matrix.shape


def test_fill_counters_count_every_sparse_factor_exactly(factored):
    calls, n_builtin, counters = factored
    sparse_calls = _sparse(calls)
    assert len([c for c in calls[:n_builtin] if sp.issparse(c.matrix)]) == (
        BUILTIN_SPARSE_FACTORIZATIONS
    )
    assert counters["sparse_factorizations"] == (
        BUILTIN_SPARSE_FACTORIZATIONS + FIG7_POINT_SPARSE_FACTORIZATIONS
    )
    assert counters["sparse_factorizations"] == len(sparse_calls)
    assert counters["sparse_factor_nnz"] == sum(c.stored_nnz for c in sparse_calls)
    # every sparse matrix of the run is SPD: none fell back
    assert "sparse_factor_fallbacks" not in counters
    assert all(c.banded for c in sparse_calls)


@pytest.mark.parametrize(
    "n_unknowns",
    [FIG7_3D_UNKNOWNS, FIG7_FINE_UNKNOWNS],
    ids=["fem3d_16x16x32", "fem_fine"],
)
def test_fem_default_factor_is_banded_cholesky(factored, n_unknowns):
    calls, _, _ = factored
    call = _only(calls, n_unknowns)
    assert call.banded
    colamd = spla.splu(call.matrix.tocsc())  # scipy's default ordering
    np.testing.assert_allclose(
        call.solution, colamd.solve(_rhs(n_unknowns)), rtol=1e-10
    )
    mmd = spla.splu(call.matrix.tocsc(), **SYMMETRIC_SPLU)
    assert call.stored_nnz <= MAX_BAND_TO_SUPERLU_NNZ * mmd.nnz
