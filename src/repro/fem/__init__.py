"""Finite-volume heat solvers — the library's COMSOL substitute."""

from .axisym import (
    NATURAL_ORDERING_CUTOFF,
    AxisymField,
    assemble_axisymmetric,
    solve_axisymmetric,
)
from .cartesian import CartesianField, assemble_cartesian, solve_cartesian
from .mesh import centers, graded_mesh, layered_mesh, refine, unique_breakpoints
from .reference import AXISYM_PRESETS, CARTESIAN_PRESETS, FEMReference
from .voxelize import (
    AxisymGeometry,
    AxisymGrids,
    CartesianGeometry,
    CartesianGrids,
    axisym_source_density,
    build_axisym_geometry,
    build_axisym_grids,
    build_cartesian_geometry,
    build_cartesian_grids,
    cartesian_source_density,
    grid_via_positions,
)

__all__ = [
    "NATURAL_ORDERING_CUTOFF",
    "assemble_axisymmetric",
    "solve_axisymmetric",
    "AxisymField",
    "solve_cartesian",
    "assemble_cartesian",
    "CartesianField",
    "FEMReference",
    "AXISYM_PRESETS",
    "CARTESIAN_PRESETS",
    "build_axisym_geometry",
    "build_axisym_grids",
    "build_cartesian_geometry",
    "build_cartesian_grids",
    "axisym_source_density",
    "cartesian_source_density",
    "grid_via_positions",
    "AxisymGeometry",
    "AxisymGrids",
    "CartesianGeometry",
    "CartesianGrids",
    "layered_mesh",
    "graded_mesh",
    "centers",
    "refine",
    "unique_breakpoints",
]
