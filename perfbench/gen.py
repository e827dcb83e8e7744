"""Seeded input generator: scenario JSON files and the store-hit target mix.

Everything here is a pure function of ``(workload, seed)``: the same seed
writes byte-identical files, and the program under test sees nothing but
these files (plus builtin scenario ids for ``store_hit``).  Values are
drawn from the paper's ranges: radius 2-12 um, liner 0.2-3 um, upper
substrate 10-80 um, power scale 0.25-2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("store_hit", "fem_jobs", "fem_fleet")

#: every registered builtin scenario id (``python -m repro list``)
BUILTINS = (
    "fig4",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "fem3d_power",
    "transient_spike",
    "nonlinear_hotspot",
    "case_study",
)

RADIUS_UM = (2.0, 12.0)
LINER_UM = (0.2, 3.0)
T_SI_UM = (10.0, 80.0)
POWER_SCALE = (0.25, 2.0)

#: generated sweep specs mixed into the store-hit targets
HIT_SPECS = 2
#: FEM scenario counts per family (3-D power, 3-D radius, calibrated 2-D)
FEM_POWER_SPECS = 1
FEM_RADIUS_SPECS = 1
FEM_CAL_SPECS = 2
FEM3D = "fem3d:16x16x32"
#: the Fig. 7 block the 3-D specs solve (tL=1um, tD=4um, tb=1um, tSi2,3=20um)
FEM3D_BLOCK = {
    "t_si_upper_um": 20.0, "t_ild_um": 4.0, "t_bond_um": 1.0,
    "radius_um": 10.0, "liner_um": 1.0,
}
#: radii whose 16x16x32 voxel mesh of that block has the r=10um cell count
#: (17x17x49); 9.0-9.25um would add two cells per side, about 1.25x the
#: unknowns and nearly twice the factor time
FEM3D_RADIUS_UM = (9.6, 12.0)
#: passes of the store-hit mix written per seed (more than any run needs)
HIT_PASSES = 200


@dataclass
class Inputs:
    """What one workload run feeds the program."""

    workload: str
    seed: int
    root: Path
    #: scenario files, in the order the program is given them
    spec_files: list[Path] = field(default_factory=list)
    #: store_hit only: ``run`` targets, one pass after another
    mix: list[str] = field(default_factory=list)
    #: store_hit only: how many targets make one pass
    pass_len: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _draw(rng: random.Random, bounds: tuple[float, float], digits: int = 3) -> float:
    return round(rng.uniform(*bounds), digits)


def _geometry(rng: random.Random, **fixed: float) -> dict:
    geometry = {
        "t_si_upper_um": _draw(rng, T_SI_UM),
        "t_ild_um": 4.0,
        "t_bond_um": 1.0,
        "radius_um": _draw(rng, RADIUS_UM),
        "liner_um": _draw(rng, LINER_UM),
    }
    geometry.update(fixed)
    return geometry


def _distinct(rng: random.Random, bounds: tuple[float, float], n: int, digits: int) -> list[float]:
    values: set[float] = set()
    while len(values) < n:
        values.add(_draw(rng, bounds, digits))
    return sorted(values)


def _spec(scenario_id: str, parameter: str, values: list[float], geometry: dict,
          *, models: list[str], reference: str, calibrate: bool) -> dict:
    spec = {
        "scenario_id": scenario_id,
        "title": f"perfbench {scenario_id}",
        "kind": "sweep",
        "axis": {"parameter": parameter, "values": values},
        "geometry": geometry,
        "models": models,
        "reference": reference,
        "calibrate": calibrate,
    }
    if calibrate:
        spec["calibration_samples"] = 3
    return spec


def hit_specs(rng: random.Random) -> list[dict]:
    """Cheap network sweeps served from the store next to the builtins."""
    specs = []
    for i in range(HIT_SPECS):
        parameter, bounds = rng.choice(
            [("radius_um", RADIUS_UM), ("liner_um", LINER_UM), ("t_si_upper_um", T_SI_UM)]
        )
        specs.append(_spec(
            f"hit_{i}", parameter, _distinct(rng, bounds, 6, 3),
            _geometry(rng, radius_um=_draw(rng, (8.0, 12.0)), liner_um=_draw(rng, (0.2, 1.0))),
            models=["a:paper", "b:100", "1d"], reference="fem:coarse", calibrate=False,
        ))
    return specs


def fem_specs(rng: random.Random) -> list[dict]:
    """3-D power sweeps, 3-D radius sweeps and calibrated 2-D sweeps.

    A 3-D solve's cost grows steeply with its voxel count, which the
    geometry sets (thin layers and liners add cells), so the 3-D specs
    keep the paper's Fig. 7 block and draw only power scales and radii
    from a band of one mesh size: every seed then costs the same.  The
    2-D sweeps solve the same block for the same reason and draw only
    their swept tSi values; they also carry Model B, so every core model
    runs.
    """
    specs = []
    for i in range(FEM_POWER_SPECS):
        specs.append(_spec(
            f"fem3d_power_{i}", "power_scale", _distinct(rng, POWER_SCALE, 6, 3),
            dict(FEM3D_BLOCK), models=["a:paper", "1d"], reference=FEM3D, calibrate=False,
        ))
    for i in range(FEM_RADIUS_SPECS):
        specs.append(_spec(
            f"fem3d_radius_{i}", "radius_um", _distinct(rng, FEM3D_RADIUS_UM, 2, 3),
            dict(FEM3D_BLOCK), models=["a:paper", "1d"], reference=FEM3D, calibrate=False,
        ))
    for i in range(FEM_CAL_SPECS):
        specs.append(_spec(
            f"fem2d_cal_{i}", "t_si_upper_um", _distinct(rng, T_SI_UM, 5, 3),
            dict(FEM3D_BLOCK),
            models=["a:paper", "b:1", "1d"], reference="fem:fine", calibrate=True,
        ))
    return specs


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Write ``workload``'s inputs for ``seed`` under ``root``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    # fem_jobs and fem_fleet solve the same specs for a given seed
    rng = _rng("fem" if workload.startswith("fem_") else workload, seed)
    root.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload=workload, seed=seed, root=root)
    specs = hit_specs(rng) if workload == "store_hit" else fem_specs(rng)
    for spec in specs:
        path = root / f"{spec['scenario_id']}.json"
        path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        inputs.spec_files.append(path)
    if workload == "store_hit":
        targets = [*BUILTINS, *(str(p) for p in inputs.spec_files)]
        inputs.pass_len = len(targets)
        for _ in range(HIT_PASSES):
            rng.shuffle(targets)
            inputs.mix.extend(targets)
    return inputs
