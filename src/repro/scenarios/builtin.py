"""The paper's experiments as registry entries.

Figures 4–7, Table I and the case study are nothing but six
:class:`~repro.scenarios.spec.ScenarioSpec` instances — the geometry and
sweep values come straight from the captions (the block geometries
mirror :mod:`repro.experiments.params`).  ``python -m repro fig4`` (and
the other paper ids) runs them; ``tests/test_golden.py`` pins their
payloads, and ``tests/test_experiments.py`` checks them against the
paper's claims.
"""

from __future__ import annotations

from .registry import SCENARIOS
from .spec import (
    AxisSpec,
    GeometryParams,
    GeometryRule,
    NonlinearParams,
    ScenarioSpec,
    TransientParams,
)


@SCENARIOS.register
def fig4() -> ScenarioSpec:
    """Fig. 4: the radius sweep with the aspect-ratio substrate switch."""
    return ScenarioSpec(
        scenario_id="fig4",
        title="Fig. 4: max ΔT vs TTSV radius",
        description="max ΔT vs TTSV radius (1–20 µm), thin/thick substrate regimes",
        axis=AxisSpec(
            parameter="radius_um",
            values=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0),
            fast_values=(1.0, 3.0, 5.0, 8.0, 12.0, 20.0),
        ),
        geometry=GeometryParams(t_ild_um=4.0, t_bond_um=1.0, liner_um=0.5),
        rules=(
            GeometryRule(set={"t_si_upper_um": 5.0}, upto=5.0),
            GeometryRule(set={"t_si_upper_um": 45.0}, above=5.0),
        ),
        models=("a:paper", "b:100", "1d"),
        metadata={
            "caption": "tL=0.5um, tD=4um, tb=1um; tSi2,3 = 5um (r<=5) / 45um (r>5)"
        },
    )


def _fig5_spec(scenario_id: str, title: str, postprocess: str | None) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=scenario_id,
        title=title,
        description="max ΔT vs liner thickness; Model B at the Table I segment counts",
        axis=AxisSpec(
            parameter="liner_um",
            values=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
            fast_values=(0.5, 1.5, 3.0),
        ),
        geometry=GeometryParams(
            t_si_upper_um=45.0, t_ild_um=7.0, t_bond_um=1.0, radius_um=5.0
        ),
        models=("a:paper", "b:1,1,1", "b:2,20,20", "b:10,100,100", "b:50,500,500", "1d"),
        postprocess=postprocess,
        metadata={
            "caption": "r=5um, tD=7um, tb=1um, tSi2,3=45um",
            "segment_counts": [1, 20, 100, 500],
        },
    )


@SCENARIOS.register
def fig5() -> ScenarioSpec:
    """Fig. 5: the liner sweep (doubles as the Table I study)."""
    return _fig5_spec("fig5", "Fig. 5: max ΔT vs liner thickness", None)


@SCENARIOS.register
def table1() -> ScenarioSpec:
    """Table I: the Fig. 5 sweep post-processed into the accuracy table."""
    return _fig5_spec(
        "table1",
        "Table I: error and run time vs # of segments in Model B",
        "table1",
    )


@SCENARIOS.register
def fig6() -> ScenarioSpec:
    """Fig. 6: the non-monotonic substrate-thickness sweep."""
    return ScenarioSpec(
        scenario_id="fig6",
        title="Fig. 6: max ΔT vs substrate thickness (non-monotonic)",
        description="max ΔT vs upper-substrate thickness (5–80 µm)",
        axis=AxisSpec(
            parameter="t_si_upper_um",
            values=(5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 80.0),
            fast_values=(5.0, 20.0, 45.0, 80.0),
        ),
        geometry=GeometryParams(
            t_ild_um=7.0, t_bond_um=1.0, radius_um=8.0, liner_um=1.0
        ),
        models=("a:paper", "b:100", "1d"),
        metadata={"caption": "tL=1um, tD=7um, tb=1um, r=8um"},
    )


@SCENARIOS.register
def fig7() -> ScenarioSpec:
    """Fig. 7: the constant-metal-area cluster sweep."""
    return ScenarioSpec(
        scenario_id="fig7",
        title="Fig. 7: max ΔT vs number of TTSVs (constant metal area)",
        description="max ΔT vs cluster size n (Eq. 22 transform, constant metal area)",
        axis=AxisSpec(
            parameter="cluster_count",
            values=(1, 2, 4, 9, 16),
            fast_values=(1, 2, 4),
        ),
        geometry=GeometryParams(
            t_si_upper_um=20.0, t_ild_um=4.0, t_bond_um=1.0, radius_um=10.0, liner_um=1.0
        ),
        models=("a:paper", "b:100", "1d"),
        metadata={"caption": "tL=1um, tD=4um, tb=1um, tSi2,3=20um, r0=10um"},
    )


@SCENARIOS.register
def fem3d_power() -> ScenarioSpec:
    """A 3-D Cartesian FEM power sweep — the shared-matrix showcase.

    Every point shares the block geometry and differs only in a uniform
    power multiplier, so the (expensive, cache-sensitive) 3-D system is
    voxelised, assembled and factorised exactly once per run and each
    point costs one back-substitution.  Also the only builtin that
    exercises the ``fem3d`` factory grammar end-to-end.
    """
    return ScenarioSpec(
        scenario_id="fem3d_power",
        title="3-D FEM check: max ΔT vs uniform power scale",
        description=(
            "uniform power scaling of the Fig. 7 block against the 3-D "
            "Cartesian FEM (explicit via, squared-liner equivalent); one "
            "shared system matrix across the whole sweep"
        ),
        axis=AxisSpec(
            parameter="power_scale",
            values=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
            fast_values=(0.5, 1.0),
        ),
        geometry=GeometryParams(
            t_si_upper_um=20.0, t_ild_um=4.0, t_bond_um=1.0, radius_um=10.0,
            liner_um=1.0,
        ),
        models=("a:paper", "1d"),
        reference="fem3d:12x12x24",
        calibrate=False,
        metadata={
            "caption": "tL=1um, tD=4um, tb=1um, tSi2,3=20um, r=10um; "
            "power scaled uniformly per point"
        },
    )


@SCENARIOS.register
def transient_spike() -> ScenarioSpec:
    """A 4x power spike against the Fig. 5 block, swept over TTSV radius.

    The first builtin of the ``transient`` physics kind: each radius gets
    one backward-Euler step-response trajectory of Model A's RC network
    (plane-lumped thermal mass), answering how fast — and how far — the
    planes heat up when the workload steps to four times its steady
    power.  All three trajectories share nothing but their time grid
    (the radius changes the network), but repeated drive levels of one
    network would share one factor through the factor cache.
    """
    return ScenarioSpec(
        scenario_id="transient_spike",
        title="Transient: plane heat-up under a 4x power spike",
        description=(
            "backward-Euler step response of Model A's RC network under a "
            "4x power step; one trajectory per TTSV radius"
        ),
        kind="transient",
        axis=AxisSpec(
            parameter="radius_um",
            values=(2.0, 5.0, 10.0),
            fast_values=(5.0,),
        ),
        geometry=GeometryParams(
            t_si_upper_um=45.0, t_ild_um=7.0, t_bond_um=1.0, liner_um=0.5
        ),
        models=("a:paper",),
        calibrate=False,
        transient=TransientParams(
            t_end_s=5e-3, n_steps=200, power_scale=4.0
        ),
        metadata={"caption": "tL=0.5um, tD=7um, tb=1um, tSi2,3=45um; q -> 4q at t=0"},
    )


@SCENARIOS.register
def nonlinear_hotspot() -> ScenarioSpec:
    """k(T) fixed-point solves at rising power — the hotspot feedback loop.

    The first builtin of the ``nonlinear`` physics kind: silicon's
    conductivity drops ~0.3 %/K, so the hotter the stack runs the worse
    it spreads heat.  Each power level converges Model A under the
    library k(T) slopes and reports the converged rise next to its
    constant-k baseline; the baselines are ordinary solve nodes that
    dedup against steady-state scenarios and share Model A's point
    geometry across the sweep.
    """
    return ScenarioSpec(
        scenario_id="nonlinear_hotspot",
        title="Nonlinear: k(T) feedback vs power level",
        description=(
            "temperature-dependent-conductivity fixed point around Model A "
            "at 1-4x the paper's power; converged vs constant-k rises"
        ),
        kind="nonlinear",
        axis=AxisSpec(
            parameter="power_scale",
            values=(1.0, 2.0, 4.0),
            fast_values=(2.0,),
        ),
        geometry=GeometryParams(
            t_si_upper_um=45.0, t_ild_um=7.0, t_bond_um=1.0, radius_um=5.0,
            liner_um=0.5,
        ),
        models=("a:paper",),
        calibrate=False,
        nonlinear=NonlinearParams(tolerance=1e-8),
        metadata={"caption": "r=5um, tL=0.5um, tD=7um, tb=1um; k(T) slopes from the library"},
    )


@SCENARIOS.register
def case_study() -> ScenarioSpec:
    """Section IV-E: the 3-D DRAM-µP system (with recalibration)."""
    return ScenarioSpec(
        scenario_id="case_study",
        title="Section IV-E: 3-D DRAM-uP case study",
        description="the 3-D DRAM-µP system; calibrate=True re-fits Model A vs our FEM",
        kind="case_study",
        models=(),
        model_b_segments=1000,
    )
