"""Voxelisation: turn a stack + via geometry into solver grids.

The finite-volume solvers consume per-cell conductivity and source-density
arrays.  This module builds them for

* the axisymmetric unit cell (one via at the axis of an equal-area
  circular footprint), and
* the 3-D Cartesian block (any number of vias at explicit positions, with
  anti-aliased conductivities on via boundaries).

Heat totals are preserved exactly: source densities are normalised to the
actual discretised source volume, so the FVM consumes the same watts as
the network models it is compared against.

The build is split along the matrix/RHS boundary of the linear system it
feeds: the *geometry* half (mesh + per-cell conductivity — everything the
system matrix depends on) is independent of the power specification, and
the *source* half (per-cell heat density — the right-hand side) is a cheap
deposition on a finished mesh.  :func:`build_axisym_geometry` /
:func:`build_cartesian_geometry` expose the power-independent half with
their own cache keys, so a shared-matrix set of the stacked tier (e.g. a
power sweep) is voxelised exactly once and only re-deposits sources per
point.  All hot loops are numpy-broadcast — identical
floating-point operations per cell as the historical per-cell loops, so
the arrays are bit-for-bit unchanged.

Both full-grid builders are memoized on the *content* of (stack, via,
power) plus their keyword arguments through
:data:`repro.perf.assembly_cache`: sweep points that share a
sub-configuration (and repeated sweeps under multi-scenario traffic) skip
the voxelisation entirely.  Grid building is deterministic, so a cache hit
returns arrays identical to a fresh build.

The geometry half splits once more, along the conductivity boundary: the
*frame* (mesh edges, via coverage fractions, plane bands) depends only on
geometric dimensions — thicknesses, radii, positions — never on any
material's conductivity.  Frames are cached under conductivity-*neutralised*
(stack, via) keys, so the k(T) fixed-point loop of
:class:`~repro.core.nonlinear.NonlinearSolver` around an FEM model — which
re-evaluates every layer's conductivity each iteration but never moves an
interface — rebuilds only the cheap conductivity stamping and reuses the
frame (including the expensive Cartesian coverage loops) across all
iterations.  ``voxel_frame_hits`` / ``voxel_frame_misses`` in
:func:`repro.perf.stats` count the reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import GeometryError
from ..geometry import PowerSpec, Stack3D, TSV
from ..geometry.stack import LayerInterval
from ..materials import Material
from ..perf import assembly_cache, content_key, increment
from .mesh import centers, layered_mesh


@dataclass(frozen=True)
class AxisymGrids:
    """Everything :func:`repro.fem.axisym.solve_axisymmetric` needs."""

    r_edges: np.ndarray
    z_edges: np.ndarray
    conductivity: np.ndarray
    source_density: np.ndarray
    plane_bands: list[tuple[float, float]]  # z-extent of each plane (incl. its ILD)


@dataclass(frozen=True)
class AxisymGeometry:
    """The power-independent half of :class:`AxisymGrids`.

    Mesh plus conductivity fully determine the assembled system matrix;
    two points sharing an ``AxisymGeometry`` differ only in their
    right-hand side (see :func:`axisym_source_density`).
    """

    r_edges: np.ndarray
    z_edges: np.ndarray
    conductivity: np.ndarray
    plane_bands: list[tuple[float, float]]


@dataclass(frozen=True)
class CartesianGrids:
    """Everything :func:`repro.fem.cartesian.solve_cartesian` needs."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    z_edges: np.ndarray
    conductivity: np.ndarray
    source_density: np.ndarray
    plane_bands: list[tuple[float, float]]


@dataclass(frozen=True)
class CartesianGeometry:
    """The power-independent half of :class:`CartesianGrids`.

    ``outer_frac`` (per-cell via+liner coverage) is kept because the
    source deposition needs it to exclude the via footprint.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    z_edges: np.ndarray
    conductivity: np.ndarray
    outer_frac: np.ndarray
    plane_bands: list[tuple[float, float]]


@dataclass(frozen=True)
class AxisymFrame:
    """The conductivity-free half of :class:`AxisymGeometry`.

    Mesh edges and plane bands depend only on geometric dimensions, so two
    stacks differing solely in material conductivities — successive k(T)
    fixed-point iterates, say — share one frame bit-for-bit.
    """

    r_edges: np.ndarray
    z_edges: np.ndarray
    plane_bands: list[tuple[float, float]]


@dataclass(frozen=True)
class CartesianFrame:
    """The conductivity-free half of :class:`CartesianGeometry`.

    Carries the per-cell via coverage fractions — the expensive part of
    the 3-D voxelisation — which are pure functions of mesh and via
    placement.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    z_edges: np.ndarray
    metal_frac: np.ndarray
    outer_frac: np.ndarray
    plane_bands: list[tuple[float, float]]


def _neutral_material(material: Material) -> Material:
    """The material with its conductivity data wiped (frame-key helper)."""
    return replace(material, thermal_conductivity=1.0, conductivity_slope=0.0)


def _conductivity_free(stack: Stack3D, via: TSV) -> tuple[Stack3D, TSV]:
    """(stack, via) with every material conductivity neutralised.

    Keys the frame caches: the frame is a pure function of this pair plus
    the mesh targets, so any two inputs that agree here — no matter how
    their conductivities differ — may share a cached frame.  Densities and
    specific heats are left alone; they never change within a solve.
    """
    planes = tuple(
        replace(
            plane,
            substrate=replace(
                plane.substrate,
                material=_neutral_material(plane.substrate.material),
            ),
            ild=replace(
                plane.ild, material=_neutral_material(plane.ild.material)
            ),
        )
        for plane in stack.planes
    )
    bonds = tuple(
        replace(bond, material=_neutral_material(bond.material))
        for bond in stack.bonds
    )
    neutral_stack = replace(stack, planes=planes, bonds=bonds)
    neutral_via = replace(
        via, fill=_neutral_material(via.fill), liner=_neutral_material(via.liner)
    )
    return neutral_stack, neutral_via


def _z_breakpoints(stack: Stack3D, via: TSV) -> list[float]:
    """All z planes the mesh must honour: layer interfaces, via bottom,
    device-layer bottoms."""
    points = [0.0]
    for iv in stack.layer_intervals():
        points.append(iv.z1)
    z_bottom, z_top = stack.tsv_span(via.extension)
    points.extend([z_bottom, z_top])
    for j in range(stack.n_planes):
        top = stack.substrate_top(j)
        points.append(top - stack.planes[j].device_layer_thickness)
    return points


def _plane_bands(stack: Stack3D) -> list[tuple[float, float]]:
    """z-extent of each plane: bottom of its substrate to top of its ILD."""
    bands: list[tuple[float, float]] = []
    intervals = stack.layer_intervals()
    for j in range(stack.n_planes):
        plane_ivs = [iv for iv in intervals if iv.plane_index == j]
        z0 = min(iv.z0 for iv in plane_ivs)
        z1 = stack.ild_interval(j).z1
        bands.append((z0, z1))
    return bands


def _layer_of(intervals: list[LayerInterval], z: float) -> LayerInterval:
    for iv in intervals:
        if iv.z0 - 1e-15 <= z < iv.z1 + 1e-15:
            return iv
    raise GeometryError(f"z = {z} outside the stack")


def _layer_conductivities(stack: Stack3D, zc: np.ndarray) -> np.ndarray:
    """Bulk conductivity of the stack layer containing each z centre."""
    intervals = stack.layer_intervals()
    return np.array([_layer_of(intervals, z).layer.conductivity for z in zc])


def _source_regions(
    stack: Stack3D, via: TSV, power: PowerSpec, power_scale: float
) -> list[tuple[float, float, bool, float]]:
    """(z0, z1, via_crosses_region, watts) for every heat-bearing band.

    ``via_crosses_region`` tells the voxelisers to exclude the via
    footprint from the source; the watts are already scaled for unit
    cells (``power_scale``).
    """
    z_bottom, z_top = stack.tsv_span(via.extension)
    regions: list[tuple[float, float, bool, float]] = []
    for j in range(stack.n_planes):
        # device band: top slice of the substrate
        top = stack.substrate_top(j)
        dev0 = top - stack.planes[j].device_layer_thickness
        crosses = z_bottom < top - 1e-15 and z_top > dev0 + 1e-15
        regions.append((dev0, top, crosses, power.device_heat(stack, j) * power_scale))
        # ILD band
        ild = stack.ild_interval(j)
        crosses = z_bottom < ild.z1 - 1e-15 and z_top > ild.z0 + 1e-15
        regions.append(
            (ild.z0, ild.z1, crosses, power.ild_heat(stack, j) * power_scale)
        )
    return regions


# ---------------------------------------------------------------------------
# axisymmetric unit cell
# ---------------------------------------------------------------------------
def build_axisym_grids(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    *,
    cell_area: float | None = None,
    power_scale: float = 1.0,
    nr: int = 36,
    nz: int = 90,
) -> AxisymGrids:
    """Grids for one via at the axis of an equal-area circular cell.

    Parameters
    ----------
    stack, via, power:
        The geometry and heat description.
    cell_area:
        Horizontal area of the cell; defaults to the stack footprint.
        Cluster experiments pass footprint/n (each member via serves an
        equal share of the block — the adiabatic unit-cell reduction).
    power_scale:
        Multiplies every per-plane heat (1/n for cluster unit cells).
    nr, nz:
        Target radial/axial cell counts.
    """
    key = content_key(
        "axisym", stack, via, power, cell_area, power_scale, nr, nz
    )
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            return cached
    # through the cached geometry builder: a per-point power sweep misses
    # the power-keyed grids cache every point but shares the power-free
    # geometry (mesh + conductivity) with earlier points — and with any
    # shared-matrix set that already built it
    geometry = build_axisym_geometry(
        stack, via, cell_area=cell_area, nr=nr, nz=nz
    )
    grids = AxisymGrids(
        r_edges=geometry.r_edges,
        z_edges=geometry.z_edges,
        conductivity=geometry.conductivity,
        source_density=axisym_source_density(
            stack, via, power, power_scale, geometry.r_edges, geometry.z_edges
        ),
        plane_bands=geometry.plane_bands,
    )
    if key is not None:
        assembly_cache.put(key, grids)
    return grids


def build_axisym_geometry(
    stack: Stack3D,
    via: TSV,
    *,
    cell_area: float | None = None,
    nr: int = 36,
    nz: int = 90,
) -> AxisymGeometry:
    """The power-independent mesh + conductivity of the axisymmetric cell.

    Cached under its own (power-free) key, so a shared-matrix set — many
    right-hand sides against one system — voxelises exactly once.
    """
    key = content_key("axisym_geom", stack, via, cell_area, nr, nz)
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            return cached
    geometry = _build_axisym_geometry(
        stack, via, cell_area=cell_area, nr=nr, nz=nz
    )
    if key is not None:
        assembly_cache.put(key, geometry)
    return geometry


def _axisym_frame(
    stack: Stack3D, via: TSV, *, area: float, nr: int, nz: int
) -> AxisymFrame:
    """The cached conductivity-free axisymmetric mesh (see module docs)."""
    neutral_stack, neutral_via = _conductivity_free(stack, via)
    key = content_key("axisym_frame", neutral_stack, neutral_via, area, nr, nz)
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            increment("voxel_frame_hits")
            return cached
        increment("voxel_frame_misses")
    r_edges = layered_mesh(
        [0.0, via.radius, via.outer_radius, math.sqrt(area / math.pi)],
        nr,
        min_per_layer=3,
        weights=[0.25, 0.15, 0.6],
    )
    z_edges = layered_mesh(_z_breakpoints(stack, via), nz, min_per_layer=2)
    frame = AxisymFrame(
        r_edges=r_edges, z_edges=z_edges, plane_bands=_plane_bands(stack)
    )
    if key is not None:
        assembly_cache.put(key, frame)
    return frame


def _build_axisym_geometry(
    stack: Stack3D,
    via: TSV,
    *,
    cell_area: float | None,
    nr: int,
    nz: int,
) -> AxisymGeometry:
    area = cell_area if cell_area is not None else stack.footprint_area
    if via.occupied_area >= area:
        raise GeometryError("via (incl. liner) does not fit the unit cell")
    frame = _axisym_frame(stack, via, area=area, nr=nr, nz=nz)
    rc, zc = centers(frame.r_edges), centers(frame.z_edges)

    z_bottom, z_top = stack.tsv_span(via.extension)
    # layer conductivity broadcast down each column, via/liner masks on top
    conductivity = np.repeat(
        _layer_conductivities(stack, zc)[None, :], rc.size, axis=0
    )
    span = (zc > z_bottom) & (zc < z_top)
    conductivity[np.ix_(rc < via.radius, span)] = via.fill.thermal_conductivity
    inside_liner = (rc >= via.radius) & (rc < via.outer_radius)
    conductivity[np.ix_(inside_liner, span)] = via.liner.thermal_conductivity
    return AxisymGeometry(
        r_edges=frame.r_edges,
        z_edges=frame.z_edges,
        conductivity=conductivity,
        plane_bands=frame.plane_bands,
    )


def axisym_source_density(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    power_scale: float,
    r_edges: np.ndarray,
    z_edges: np.ndarray,
) -> np.ndarray:
    """Per-cell heat density on a finished axisymmetric mesh (the RHS half)."""
    rc, zc = centers(r_edges), centers(z_edges)
    ring_areas = math.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2)
    source = np.zeros((rc.size, zc.size))
    for z0, z1, crosses, watts in _source_regions(stack, via, power, power_scale):
        if watts == 0.0:
            continue
        z_mask = (zc > z0) & (zc < z1)
        r_mask = rc >= via.outer_radius if crosses else np.ones(rc.size, dtype=bool)
        dz = (z_edges[1:] - z_edges[:-1])[z_mask]
        volume = ring_areas[r_mask].sum() * dz.sum()
        if volume <= 0.0:
            raise GeometryError("source region has zero discretised volume")
        source[np.ix_(r_mask, z_mask)] += watts / volume
    return source


# ---------------------------------------------------------------------------
# Cartesian block with explicit via positions
# ---------------------------------------------------------------------------
def grid_via_positions(n: int, side_x: float, side_y: float) -> list[tuple[float, float]]:
    """Uniform grid placement of n vias over a rectangle.

    Perfect squares become √n × √n grids; other counts use the most
    square rows × cols factorisation (2 → 2×1).
    """
    if n <= 0:
        raise GeometryError("need at least one via")
    rows = int(math.sqrt(n))
    while n % rows:
        rows -= 1
    cols = n // rows
    return [
        ((i + 0.5) * side_x / cols, (j + 0.5) * side_y / rows)
        for j in range(rows)
        for i in range(cols)
    ]


def _coverage(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    cx: float,
    cy: float,
    radius: float,
    subsamples: int = 4,
) -> np.ndarray:
    """Fraction of each (x, y) cell covered by the disc, by subsampling.

    Broadcast over all cells at once; each cell sees the same subsample
    points and inside-test as the historical per-cell loop (cells wholly
    outside the disc's bounding box evaluate to exactly 0.0 either way),
    so the fractions are bit-for-bit unchanged.
    """
    offsets = (np.arange(subsamples) + 0.5) / subsamples
    xs = x_edges[:-1, None] + offsets[None, :] * np.diff(x_edges)[:, None]
    ys = y_edges[:-1, None] + offsets[None, :] * np.diff(y_edges)[:, None]
    inside = (xs[:, None, :, None] - cx) ** 2 + (
        ys[None, :, None, :] - cy
    ) ** 2 <= radius**2
    return inside.mean(axis=(2, 3))


def squared_via_dimensions(via: TSV) -> tuple[float, float]:
    """(half_side, liner_thickness) of the equivalent *square* via.

    A round via is awkward on a Cartesian mesh: cells straddling the liner
    mix materials and short out the very barrier the paper studies.  The
    equivalent square via sidesteps this:

    * the metal square has the same cross-section (side s = √π·r), so the
      vertical resistance is preserved exactly;
    * the liner ring thickness t is chosen so that the thin square ring's
      lateral resistance t/(k·h·4(s+t)) equals the cylindrical shell's
      ln((r+tL)/r)/(2π·k·h), preserving the paper's R3/R6/R9 exactly.
    """
    s = math.sqrt(math.pi) * via.radius
    c = math.log(via.outer_radius / via.radius) / (2.0 * math.pi)
    if 4.0 * c >= 1.0:
        raise GeometryError("liner too thick for the squared-via equivalence")
    t = 4.0 * s * c / (1.0 - 4.0 * c)
    return s / 2.0, t


def _square_coverage(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    cx: float,
    cy: float,
    half_side: float,
) -> np.ndarray:
    """Exact fraction of each (x, y) cell covered by an axis-aligned square."""
    x0, x1 = cx - half_side, cx + half_side
    y0, y1 = cy - half_side, cy + half_side
    overlap_x = np.clip(
        np.minimum(x_edges[1:], x1) - np.maximum(x_edges[:-1], x0), 0.0, None
    ) / np.diff(x_edges)
    overlap_y = np.clip(
        np.minimum(y_edges[1:], y1) - np.maximum(y_edges[:-1], y0), 0.0, None
    ) / np.diff(y_edges)
    return np.outer(overlap_x, overlap_y)


def build_cartesian_grids(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    *,
    via_positions: list[tuple[float, float]] | None = None,
    nx: int = 40,
    ny: int = 40,
    nz: int = 80,
    via_style: str = "squared",
) -> CartesianGrids:
    """Grids for a rectangular block with vias at explicit (x, y) positions.

    ``via_style``:

    * ``"squared"`` (default) — each via becomes the resistance-equivalent
      square via of :func:`squared_via_dimensions`, mesh-aligned so the
      liner barrier is represented exactly;
    * ``"round"`` — the literal circle, anti-aliased by area-fraction
      conductivity mixing.  Boundary cells then mix liner and bulk
      *arithmetically*, which overestimates lateral conductance through
      the liner; kept as an ablation of that discretisation error.
    """
    key = content_key(
        "cartesian", stack, via, power,
        tuple(via_positions) if via_positions is not None else None,
        nx, ny, nz, via_style,
    )
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            return cached
    # cached geometry builder: shares the expensive 3-D voxelization with
    # other powers at this geometry and with shared-matrix sets
    geometry = build_cartesian_geometry(
        stack, via,
        via_positions=via_positions, nx=nx, ny=ny, nz=nz, via_style=via_style,
    )
    grids = CartesianGrids(
        x_edges=geometry.x_edges,
        y_edges=geometry.y_edges,
        z_edges=geometry.z_edges,
        conductivity=geometry.conductivity,
        source_density=cartesian_source_density(
            stack, via, power,
            geometry.x_edges, geometry.y_edges, geometry.z_edges,
            geometry.outer_frac,
        ),
        plane_bands=geometry.plane_bands,
    )
    if key is not None:
        assembly_cache.put(key, grids)
    return grids


def build_cartesian_geometry(
    stack: Stack3D,
    via: TSV,
    *,
    via_positions: list[tuple[float, float]] | None = None,
    nx: int = 40,
    ny: int = 40,
    nz: int = 80,
    via_style: str = "squared",
) -> CartesianGeometry:
    """The power-independent mesh + conductivity of the Cartesian block.

    Cached under its own (power-free) key; the expensive 3-D voxelisation
    of a shared-matrix set runs once no matter how many right-hand sides
    it serves.
    """
    key = content_key(
        "cartesian_geom", stack, via,
        tuple(via_positions) if via_positions is not None else None,
        nx, ny, nz, via_style,
    )
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            return cached
    geometry = _build_cartesian_geometry(
        stack, via,
        via_positions=via_positions, nx=nx, ny=ny, nz=nz, via_style=via_style,
    )
    if key is not None:
        assembly_cache.put(key, geometry)
    return geometry


def _cartesian_frame(
    stack: Stack3D,
    via: TSV,
    *,
    via_positions: list[tuple[float, float]] | None,
    nx: int,
    ny: int,
    nz: int,
    via_style: str,
) -> CartesianFrame:
    """The cached conductivity-free Cartesian mesh + coverage fractions."""
    neutral_stack, neutral_via = _conductivity_free(stack, via)
    key = content_key(
        "cartesian_frame", neutral_stack, neutral_via,
        tuple(via_positions) if via_positions is not None else None,
        nx, ny, nz, via_style,
    )
    if key is not None:
        cached = assembly_cache.get(key)
        if cached is not None:
            increment("voxel_frame_hits")
            return cached
        increment("voxel_frame_misses")
    side = stack.footprint_side
    positions = via_positions or [(side / 2.0, side / 2.0)]
    if via_style == "squared":
        half_metal, liner_t = squared_via_dimensions(via)
        half_outer = half_metal + liner_t
    else:
        half_metal, half_outer = via.radius, via.outer_radius

    def axis_mesh(target: int) -> np.ndarray:
        points = [0.0, side]
        for cx, cy in positions:
            points.extend(
                [cx - half_outer, cx - half_metal, cx + half_metal,
                 cx + half_outer, cy - half_outer, cy - half_metal,
                 cy + half_metal, cy + half_outer]
            )
        inside = sorted({p for p in points if 0.0 <= p <= side})
        return layered_mesh(inside, target, min_per_layer=1)

    x_edges = axis_mesh(nx)
    y_edges = axis_mesh(ny)
    z_edges = layered_mesh(_z_breakpoints(stack, via), nz, min_per_layer=2)
    n_x, n_y = x_edges.size - 1, y_edges.size - 1

    metal_frac = np.zeros((n_x, n_y))
    outer_frac = np.zeros((n_x, n_y))
    for cx, cy in positions:
        if via_style == "squared":
            metal_frac += _square_coverage(x_edges, y_edges, cx, cy, half_metal)
            outer_frac += _square_coverage(x_edges, y_edges, cx, cy, half_outer)
        else:
            metal_frac += _coverage(x_edges, y_edges, cx, cy, half_metal)
            outer_frac += _coverage(x_edges, y_edges, cx, cy, half_outer)
    frame = CartesianFrame(
        x_edges=x_edges,
        y_edges=y_edges,
        z_edges=z_edges,
        metal_frac=np.clip(metal_frac, 0.0, 1.0),
        outer_frac=np.clip(outer_frac, 0.0, 1.0),
        plane_bands=_plane_bands(stack),
    )
    if key is not None:
        assembly_cache.put(key, frame)
    return frame


def _build_cartesian_geometry(
    stack: Stack3D,
    via: TSV,
    *,
    via_positions: list[tuple[float, float]] | None,
    nx: int,
    ny: int,
    nz: int,
    via_style: str,
) -> CartesianGeometry:
    if via_style not in ("squared", "round"):
        raise GeometryError(f"via_style must be 'squared' or 'round', got {via_style!r}")
    frame = _cartesian_frame(
        stack, via,
        via_positions=via_positions, nx=nx, ny=ny, nz=nz, via_style=via_style,
    )
    zc = centers(frame.z_edges)
    n_x, n_y = frame.metal_frac.shape
    n_z = zc.size
    metal_frac, outer_frac = frame.metal_frac, frame.outer_frac
    liner_frac = np.clip(outer_frac - metal_frac, 0.0, 1.0)

    z_bottom, z_top = stack.tsv_span(via.extension)
    k_z = _layer_conductivities(stack, zc)
    # bulk conductivity everywhere, the anti-aliased via mix on the span
    conductivity = np.broadcast_to(k_z[None, None, :], (n_x, n_y, n_z)).copy()
    span = (zc > z_bottom) & (zc < z_top)
    via_mix = (
        metal_frac * via.fill.thermal_conductivity
        + liner_frac * via.liner.thermal_conductivity
    )
    conductivity[:, :, span] = (
        via_mix[:, :, None] + (1.0 - outer_frac)[:, :, None] * k_z[span][None, None, :]
    )
    return CartesianGeometry(
        x_edges=frame.x_edges,
        y_edges=frame.y_edges,
        z_edges=frame.z_edges,
        conductivity=conductivity,
        outer_frac=outer_frac,
        plane_bands=frame.plane_bands,
    )


def cartesian_source_density(
    stack: Stack3D,
    via: TSV,
    power: PowerSpec,
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    z_edges: np.ndarray,
    outer_frac: np.ndarray,
) -> np.ndarray:
    """Per-cell heat density on a finished Cartesian mesh (the RHS half)."""
    zc = centers(z_edges)
    n_x, n_y = x_edges.size - 1, y_edges.size - 1
    cell_area = np.outer(np.diff(x_edges), np.diff(y_edges))
    source = np.zeros((n_x, n_y, zc.size))
    for z0, z1, crosses, watts in _source_regions(stack, via, power, 1.0):
        if watts == 0.0:
            continue
        z_mask = (zc > z0) & (zc < z1)
        weight = (1.0 - outer_frac) if crosses else np.ones((n_x, n_y))
        dz = (z_edges[1:] - z_edges[:-1])[z_mask]
        volume = (cell_area * weight).sum() * dz.sum()
        if volume <= 0.0:
            raise GeometryError("source region has zero discretised volume")
        source[:, :, z_mask] += (watts / volume) * weight[:, :, None]
    return source
