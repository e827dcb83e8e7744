"""Shared fixtures: the paper's standard geometries at test-friendly sizes."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

# One BLAS thread per process, as ``python -m repro`` runs (set before
# anything loads numpy).  Fleet workers and process pools fork from this
# process; with a multi-thread OpenBLAS already loaded here, a forked
# 3-worker fleet drill sometimes ran about 10x slower and its workers lost
# their 1 s leases mid-solve, solving nodes twice.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from repro import PowerSpec, TSV, paper_stack, paper_tsv
from repro.resistances import FittingCoefficients
from repro.scenarios import AxisSpec, GeometryParams, ScenarioSpec
from repro.units import um

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "builtin_digests.json"


@pytest.fixture()
def block_stack():
    """The Fig. 5 block: tSi2,3 = 45 um, tD = 7 um, tb = 1 um."""
    return paper_stack(t_si_upper=um(45.0), t_ild=um(7.0), t_bond=um(1.0))


@pytest.fixture()
def thin_stack():
    """A thin-substrate block (Fig. 7 geometry): tSi2,3 = 20 um, tD = 4 um."""
    return paper_stack(t_si_upper=um(20.0), t_ild=um(4.0), t_bond=um(1.0))


@pytest.fixture()
def block_tsv() -> TSV:
    """The Fig. 5 via: r = 5 um, tL = 1 um, l_ext = 1 um."""
    return paper_tsv(radius=um(5.0), liner_thickness=um(1.0))


@pytest.fixture()
def block_power() -> PowerSpec:
    """The paper's density-mode power spec."""
    return PowerSpec()


@pytest.fixture()
def paper_fit() -> FittingCoefficients:
    return FittingCoefficients.paper_block()


@pytest.fixture()
def factorizations(monkeypatch) -> list[int]:
    """The unknown count of every matrix the solvers factor, in order.

    Wraps :func:`repro.network.solve.factorize`, the one place the
    network solvers factor a matrix (dense or sparse), for this process;
    work done in forked pool workers is not seen.
    """
    from repro.network import solve as solve_module

    calls: list[int] = []
    real = solve_module.factorize

    def recording(matrix):
        calls.append(matrix.shape[0])
        return real(matrix)

    monkeypatch.setattr(solve_module, "factorize", recording)
    return calls


@pytest.fixture()
def block_sweep():
    """Make an uncalibrated radius sweep (values in um) on the Fig. 5 block.

    The geometry is that of ``block_stack`` and ``block_tsv``.  The
    reference is solved at every point like any model, so it may be any
    model spec whose name differs from the models'.
    """

    def make(models, values=(2.0, 5.0, 10.0), *, reference="1d"):
        return ScenarioSpec(
            scenario_id="block_sweep",
            title="Block radius sweep",
            axis=AxisSpec(parameter="radius_um", values=tuple(values)),
            geometry=GeometryParams(t_ild_um=7.0, liner_um=1.0),
            models=tuple(models),
            reference=reference,
            calibrate=False,
        )

    return make


@pytest.fixture(scope="session")
def golden_snapshot():
    """``scripts/golden_snapshot.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "golden_snapshot", ROOT / "scripts" / "golden_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def cold_planned(golden_snapshot):
    """Run a builtin (``"<id>/<mode>"``) cold; return its payload.

    See ``golden_snapshot.cold_payload``: every plan node must be solved
    in the run, with the counters zeroed first.
    """
    from repro import perf

    def run(run_id, **options):
        scenario_id, mode = run_id.split("/")
        payload = golden_snapshot.cold_payload(scenario_id, mode, **options)
        if scenario_id != "case_study":  # the case study is no plan point
            assert perf.stats()["counters"]["plan_point_solves"] > 0
        return payload

    return run


@pytest.fixture()
def eager_digest(golden_snapshot):
    """Look up the eager reference path's digest of ``"<id>/<mode>"``.

    The digests were recorded before that path was deleted.  Outside the
    environment that recorded them the lookup skips the test and names
    the fields that differ.
    """
    recorded = json.loads(DIGESTS.read_text())
    here = golden_snapshot.environment()
    differ = [
        f"{key} {here.get(key)} (digests: {want})"
        for key, want in recorded["environment"].items()
        if here.get(key) != want
    ]

    def digest(run_id):
        if differ:
            pytest.skip("digests were made elsewhere: " + "; ".join(differ))
        return recorded["digests"][run_id]

    return digest
