"""Axisymmetric (r–z) steady-state heat conduction, finite-volume method.

This is the library's substitute for the paper's COMSOL runs: it solves

    (1/r) ∂/∂r ( r k ∂T/∂r ) + ∂/∂z ( k ∂T/∂z ) = −q(r, z)

on a structured cell-centred grid with per-cell conductivity, a Dirichlet
heat-sink face at z = 0 (ΔT = 0) and adiabatic outer/top boundaries (the
lateral boundary of the analysed block is a symmetry plane between
neighbouring blocks, hence no flux).  Face conductances use the standard
harmonic mean, which is exact for piecewise-constant k in 1-D and makes
the scheme conservative across material interfaces (silicon/liner/copper).

The solver knows nothing about stacks or vias; :mod:`repro.fem.reference`
builds the conductivity/source grids from the geometry layer.  Every
mesh, coarse or fine, factorises through the banded Cholesky of
:func:`repro.network.solve.solve_sparse`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError, ValidationError
from ..network.solve import solve_sparse

@dataclass(frozen=True)
class AxisymField:
    """Solution field on the (nr × nz) cell grid."""

    r_edges: np.ndarray
    z_edges: np.ndarray
    temperatures: np.ndarray  # shape (nr, nz), kelvin rise above the sink
    solve_time: float
    conductivity: np.ndarray | None = None  # per-cell k, kept for flux queries

    @property
    def nr(self) -> int:
        return self.r_edges.size - 1

    @property
    def nz(self) -> int:
        return self.z_edges.size - 1

    @property
    def n_unknowns(self) -> int:
        return self.temperatures.size

    @property
    def max_rise(self) -> float:
        return float(self.temperatures.max())

    def max_rise_in_band(self, z0: float, z1: float) -> float:
        """Maximum rise among cells whose centres lie in [z0, z1]."""
        zc = 0.5 * (self.z_edges[:-1] + self.z_edges[1:])
        mask = (zc >= z0) & (zc <= z1)
        if not mask.any():
            raise ValidationError(f"no cell centres in band [{z0}, {z1}]")
        return float(self.temperatures[:, mask].max())

    def at(self, r: float, z: float) -> float:
        """Rise of the cell containing (r, z)."""
        i = int(np.clip(np.searchsorted(self.r_edges, r) - 1, 0, self.nr - 1))
        j = int(np.clip(np.searchsorted(self.z_edges, z) - 1, 0, self.nz - 1))
        return float(self.temperatures[i, j])

    def z_profile(self, r: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(z centres, T) along one radial column (the axis by default)."""
        i = int(np.clip(np.searchsorted(self.r_edges, r) - 1, 0, self.nr - 1))
        zc = 0.5 * (self.z_edges[:-1] + self.z_edges[1:])
        return zc, self.temperatures[i].copy()

    def radial_profile(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """(r centres, T) across the cell layer containing ``z``."""
        j = int(np.clip(np.searchsorted(self.z_edges, z) - 1, 0, self.nz - 1))
        rc = 0.5 * (self.r_edges[:-1] + self.r_edges[1:])
        return rc, self.temperatures[:, j].copy()

    def vertical_flux(self, z: float) -> np.ndarray:
        """Downward heat flow (W) through each radial ring at the grid face
        nearest to ``z``.

        Positive values flow toward the heat sink.  Needs the per-cell
        conductivity the solver attaches to the field.
        """
        if self.conductivity is None:
            raise SolverError("field carries no conductivity; cannot compute flux")
        j = int(np.clip(np.searchsorted(self.z_edges, z), 1, self.nz - 1))
        zc = 0.5 * (self.z_edges[:-1] + self.z_edges[1:])
        ring = np.pi * (self.r_edges[1:] ** 2 - self.r_edges[:-1] ** 2)
        d_below = self.z_edges[j] - zc[j - 1]
        d_above = zc[j] - self.z_edges[j]
        g = ring / (
            d_below / self.conductivity[:, j - 1] + d_above / self.conductivity[:, j]
        )
        return g * (self.temperatures[:, j] - self.temperatures[:, j - 1])

    def flux_partition(self, z: float, r_boundary: float) -> tuple[float, float]:
        """(inner watts, outer watts) crossing the face nearest ``z``.

        With ``r_boundary`` at the via's outer radius this quantifies the
        paper's path split: heat descending *through the via* versus
        through the surrounding bulk.
        """
        flux = self.vertical_flux(z)
        rc = 0.5 * (self.r_edges[:-1] + self.r_edges[1:])
        inner = float(flux[rc < r_boundary].sum())
        outer = float(flux[rc >= r_boundary].sum())
        return inner, outer


def _check_grid(edges: np.ndarray, name: str) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError(f"{name} must be a 1-D array of at least 2 edges")
    if np.any(np.diff(edges) <= 0):
        raise ValidationError(f"{name} must be strictly increasing")
    return edges


def _check_axisym_inputs(
    r_edges: np.ndarray, z_edges: np.ndarray, conductivity: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the (mesh, conductivity) pair shared by both solve paths."""
    r_edges = _check_grid(r_edges, "r_edges")
    z_edges = _check_grid(z_edges, "z_edges")
    if abs(r_edges[0]) > 1e-15:
        raise ValidationError("r_edges must start at the axis (r = 0)")
    nr, nz = r_edges.size - 1, z_edges.size - 1
    k = np.asarray(conductivity, dtype=float)
    if k.shape != (nr, nz):
        raise ValidationError(
            f"conductivity shape must be ({nr}, {nz}), got {k.shape}"
        )
    if np.any(k <= 0):
        raise SolverError("conductivity must be positive everywhere")
    return r_edges, z_edges, k


def solve_axisymmetric(
    r_edges: np.ndarray,
    z_edges: np.ndarray,
    conductivity: np.ndarray,
    source_density: np.ndarray,
) -> AxisymField:
    """Solve the axisymmetric heat equation on a structured grid.

    Parameters
    ----------
    r_edges, z_edges:
        Cell edge coordinates; ``r_edges[0]`` must be 0 (the axis).
    conductivity:
        Per-cell k, shape (nr, nz), W/(m·K); all entries positive.
    source_density:
        Per-cell volumetric heat q, shape (nr, nz), W/m³.

    Returns
    -------
    AxisymField
        Temperature rises above the z=0 Dirichlet face.
    """
    r_edges, z_edges, k = _check_axisym_inputs(r_edges, z_edges, conductivity)
    nr, nz = r_edges.size - 1, z_edges.size - 1
    q = np.asarray(source_density, dtype=float)
    if q.shape != (nr, nz):
        raise ValidationError(f"source shape must be ({nr}, {nz}), got {q.shape}")

    start = time.perf_counter()
    matrix, volume = _assemble_axisym_system(r_edges, z_edges, k)
    rhs = (q * volume).ravel()
    temps = solve_sparse(matrix, rhs).reshape(nr, nz)
    elapsed = time.perf_counter() - start
    return AxisymField(
        r_edges=r_edges,
        z_edges=z_edges,
        temperatures=temps,
        solve_time=elapsed,
        conductivity=k,
    )


def assemble_axisymmetric(
    r_edges: np.ndarray, z_edges: np.ndarray, conductivity: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Validate and assemble one axisymmetric system without solving it.

    Returns the (conductance matrix, cell volumes) pair
    :func:`solve_axisymmetric` would build internally — the RHS of a
    source grid ``q`` is ``(q * volume).ravel()``.
    :class:`~repro.fem.reference.FEMReference` assembles through it, so
    the stacked tier can factor one matrix for many source grids.
    """
    r_edges, z_edges, k = _check_axisym_inputs(r_edges, z_edges, conductivity)
    return _assemble_axisym_system(r_edges, z_edges, k)


def _assemble_axisym_system(
    r_edges: np.ndarray, z_edges: np.ndarray, k: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """(conductance matrix, cell volumes) of the validated system."""
    nr, nz = r_edges.size - 1, z_edges.size - 1
    dr = np.diff(r_edges)  # (nr,)
    dz = np.diff(z_edges)  # (nz,)
    rc = 0.5 * (r_edges[:-1] + r_edges[1:])
    # cell volumes: π (r_e² − r_w²) Δz
    ring = np.pi * (r_edges[1:] ** 2 - r_edges[:-1] ** 2)  # (nr,)
    volume = ring[:, None] * dz[None, :]

    def idx(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return i * nz + j

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros((nr, nz))

    # radial faces between cell (i, j) and (i+1, j) at r = r_edges[i+1]
    if nr > 1:
        area_r = 2.0 * np.pi * r_edges[1:-1][:, None] * dz[None, :]  # (nr-1, nz)
        d_west = (r_edges[1:-1] - rc[:-1])[:, None]
        d_east = (rc[1:] - r_edges[1:-1])[:, None]
        g_r = area_r / (d_west / k[:-1, :] + d_east / k[1:, :])
        ii, jj = np.meshgrid(np.arange(nr - 1), np.arange(nz), indexing="ij")
        a = idx(ii, jj).ravel()
        b = idx(ii + 1, jj).ravel()
        g = g_r.ravel()
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-g, -g))
        np.add.at(diag, (ii.ravel(), jj.ravel()), g)
        np.add.at(diag, (ii.ravel() + 1, jj.ravel()), g)

    # axial faces between cell (i, j) and (i, j+1)
    if nz > 1:
        zc = 0.5 * (z_edges[:-1] + z_edges[1:])
        area_z = ring[:, None] * np.ones((1, nz - 1))
        d_south = (z_edges[1:-1] - zc[:-1])[None, :]
        d_north = (zc[1:] - z_edges[1:-1])[None, :]
        g_z = area_z / (d_south / k[:, :-1] + d_north / k[:, 1:])
        ii, jj = np.meshgrid(np.arange(nr), np.arange(nz - 1), indexing="ij")
        a = idx(ii, jj).ravel()
        b = idx(ii, jj + 1).ravel()
        g = g_z.ravel()
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-g, -g))
        np.add.at(diag, (ii.ravel(), jj.ravel()), g)
        np.add.at(diag, (ii.ravel(), jj.ravel() + 1), g)

    # bottom Dirichlet face (z = 0): ghost at the face with ΔT = 0
    g_bottom = ring * k[:, 0] / (0.5 * dz[0])
    diag[:, 0] += g_bottom
    # outer radial, top: adiabatic — nothing to add

    n = nr * nz
    all_rows = np.concatenate(rows + [idx(np.arange(nr).repeat(nz), np.tile(np.arange(nz), nr))])
    all_cols = np.concatenate(cols + [idx(np.arange(nr).repeat(nz), np.tile(np.arange(nz), nr))])
    all_vals = np.concatenate(vals + [diag.ravel()])
    matrix = sp.coo_matrix((all_vals, (all_rows, all_cols)), shape=(n, n)).tocsr()
    return matrix, volume
