"""The default sparse factor: symmetric inputs, halved fill, fill counters.

Every sparse factorisation goes through
:meth:`repro.perf.cache.FactorizationCache._factorize`.  Wrapping it while
the fast builtins plus one 3-D (``fem3d:16x16x32``) and one 2-D
(``fem:fine``) Fig. 7 point run checks that

* every matrix factored with the default ordering is exactly symmetric —
  the premise of symmetric-mode SuperLU on ``A + Aᵀ``;
* its fill (``L.nnz + U.nnz``) is well under scipy's COLAMD default on the
  two FEM matrices, with solutions that agree to ``rtol=1e-10``;
* the ``sparse_factorizations`` / ``sparse_factor_nnz`` counters of
  :func:`repro.perf.stats` count exactly those factors and the entries
  SuperLU stores for them.

Deterministic: fill and counts, no timings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import perf
from repro.perf.cache import FactorizationCache
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.spec import AxisSpec

#: sparse factorisations of a cold in-process run of the 9 fast builtins
BUILTIN_SPARSE_FACTORIZATIONS = 40
#: unknowns of the Fig. 7 block on a 16x16x32 voxel mesh (17 x 17 x 49)
FIG7_3D_UNKNOWNS = 14_161
#: unknowns of the Fig. 7 block on the 2-D ``fine`` mesh
FIG7_FINE_UNKNOWNS = 8_512


@dataclass
class Factored:
    matrix: object
    permc_spec: str | None
    stored_nnz: int | None  # ``SuperLU.nnz``; None for a dense factor
    fill: int | None  # ``L.nnz + U.nnz``; None for a dense factor
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
    original = FactorizationCache._factorize

    def recording(matrix, permc_spec=None):
        solve = original(matrix, permc_spec)
        lu = getattr(solve, "__self__", None)  # SuperLU.solve is bound
        sparse = isinstance(lu, spla.SuperLU)
        calls.append(
            Factored(
                matrix,
                permc_spec,
                lu.nnz if sparse else None,
                lu.L.nnz + lu.U.nnz if sparse else None,
                solve(_rhs(matrix.shape[0])),
            )
        )
        return solve

    perf.reset()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FactorizationCache, "_factorize", staticmethod(recording))
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
    default = [c for c in _sparse(calls) if c.permc_spec is None]
    assert len(default) > 2
    for call in default:
        assert (call.matrix != call.matrix.T).nnz == 0, call.matrix.shape


def test_fill_counters_count_every_sparse_factor_exactly(factored):
    calls, n_builtin, counters = factored
    sparse_calls = _sparse(calls)
    assert len([c for c in calls[:n_builtin] if sp.issparse(c.matrix)]) == (
        BUILTIN_SPARSE_FACTORIZATIONS
    )
    assert counters["sparse_factorizations"] == BUILTIN_SPARSE_FACTORIZATIONS + 2
    assert counters["sparse_factorizations"] == len(sparse_calls)
    assert counters["sparse_factor_nnz"] == sum(c.stored_nnz for c in sparse_calls)
    # with the default ordering SuperLU stores no entry beyond L and U
    assert all(c.stored_nnz == c.fill for c in sparse_calls if c.permc_spec is None)


@pytest.mark.parametrize(
    ("n_unknowns", "max_fill_ratio"),
    [(FIG7_3D_UNKNOWNS, 0.55), (FIG7_FINE_UNKNOWNS, 0.75)],
    ids=["fem3d_16x16x32", "fem_fine"],
)
def test_fem_factor_fill_beats_colamd(factored, n_unknowns, max_fill_ratio):
    calls, _, _ = factored
    call = _only(calls, n_unknowns)
    assert call.permc_spec is None
    colamd = spla.splu(call.matrix.tocsc())  # scipy's default ordering
    assert call.fill <= max_fill_ratio * (colamd.L.nnz + colamd.U.nnz)
    np.testing.assert_allclose(
        call.solution, colamd.solve(_rhs(n_unknowns)), rtol=1e-10
    )
