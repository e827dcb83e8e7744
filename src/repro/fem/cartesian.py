"""3-D Cartesian steady-state heat conduction, finite-volume method.

Complements the axisymmetric solver for geometries a single symmetric via
cannot represent: multiple vias at arbitrary positions (the Fig. 7 cluster
cross-check) and any per-cell heat-source density.

Same discretisation choices as :mod:`repro.fem.axisym`: cell-centred,
harmonic-mean face conductances, Dirichlet heat sink at z = 0, adiabatic
sides and top.

:func:`solve_cartesian_multi` is the matrix-batched entry point: many
source grids against one (mesh, conductivity) pair assemble and factorise
the — expensive, 3-D — system exactly once and back-substitute per
right-hand side, bit-for-bit identical to per-point
:func:`solve_cartesian` calls.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError, ValidationError
from ..network.solve import solve_sparse, solve_sparse_multi


@dataclass(frozen=True)
class CartesianField:
    """Solution field on the (nx × ny × nz) cell grid."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    z_edges: np.ndarray
    temperatures: np.ndarray  # (nx, ny, nz) kelvin rise
    solve_time: float

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
        return float(self.temperatures[:, :, mask].max())

    def top_map(self) -> np.ndarray:
        """Temperature map of the topmost cell layer (hotspot view)."""
        return self.temperatures[:, :, -1].copy()


def _check_grid(edges: np.ndarray, name: str) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError(f"{name} must be a 1-D array of at least 2 edges")
    if np.any(np.diff(edges) <= 0):
        raise ValidationError(f"{name} must be strictly increasing")
    return edges


def _check_cartesian_inputs(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    z_edges: np.ndarray,
    conductivity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    x_edges = _check_grid(x_edges, "x_edges")
    y_edges = _check_grid(y_edges, "y_edges")
    z_edges = _check_grid(z_edges, "z_edges")
    nx, ny, nz = x_edges.size - 1, y_edges.size - 1, z_edges.size - 1
    k = np.asarray(conductivity, dtype=float)
    if k.shape != (nx, ny, nz):
        raise ValidationError(
            f"conductivity shape must be ({nx}, {ny}, {nz}), got {k.shape}"
        )
    if np.any(k <= 0):
        raise SolverError("conductivity must be positive everywhere")
    return x_edges, y_edges, z_edges, k


def _check_cartesian_source(
    source_density: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    q = np.asarray(source_density, dtype=float)
    if q.shape != shape:
        raise ValidationError(
            f"source shape must be {shape}, got {q.shape}"
        )
    return q


def solve_cartesian(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    z_edges: np.ndarray,
    conductivity: np.ndarray,
    source_density: np.ndarray,
) -> CartesianField:
    """Solve ∇·(k∇T) = −q on a structured 3-D grid.

    ``conductivity`` and ``source_density`` are per-cell arrays of shape
    (nx, ny, nz); the z = 0 face is the isothermal heat sink.
    """
    x_edges, y_edges, z_edges, k = _check_cartesian_inputs(
        x_edges, y_edges, z_edges, conductivity
    )
    nx, ny, nz = x_edges.size - 1, y_edges.size - 1, z_edges.size - 1
    q = _check_cartesian_source(source_density, (nx, ny, nz))

    start = time.perf_counter()
    matrix, volume = _assemble_cartesian_system(x_edges, y_edges, z_edges, k)
    rhs = (q * volume).ravel()
    temps = solve_sparse(matrix, rhs).reshape(nx, ny, nz)
    elapsed = time.perf_counter() - start
    return CartesianField(
        x_edges=x_edges,
        y_edges=y_edges,
        z_edges=z_edges,
        temperatures=temps,
        solve_time=elapsed,
    )


def solve_cartesian_multi(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    z_edges: np.ndarray,
    conductivity: np.ndarray,
    source_densities: Sequence[np.ndarray],
) -> list[CartesianField]:
    """Solve one Cartesian system against many source grids.

    One assembly + one factorisation, one back-substitution per source
    grid; field ``i`` is bit-for-bit identical to
    ``solve_cartesian(..., source_densities[i])``.  The recorded
    ``solve_time`` is the batch's wall-clock share per field.
    """
    x_edges, y_edges, z_edges, k = _check_cartesian_inputs(
        x_edges, y_edges, z_edges, conductivity
    )
    nx, ny, nz = x_edges.size - 1, y_edges.size - 1, z_edges.size - 1
    sources = [
        _check_cartesian_source(q, (nx, ny, nz)) for q in source_densities
    ]
    if not sources:
        return []

    start = time.perf_counter()
    matrix, volume = _assemble_cartesian_system(x_edges, y_edges, z_edges, k)
    rhs_block = np.column_stack([(q * volume).ravel() for q in sources])
    temps_block = solve_sparse_multi(matrix, rhs_block)
    elapsed = (time.perf_counter() - start) / len(sources)
    return [
        CartesianField(
            x_edges=x_edges,
            y_edges=y_edges,
            z_edges=z_edges,
            temperatures=temps_block[:, i].reshape(nx, ny, nz),
            solve_time=elapsed,
        )
        for i in range(len(sources))
    ]


def _assemble_cartesian_system(
    x_edges: np.ndarray,
    y_edges: np.ndarray,
    z_edges: np.ndarray,
    k: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """(conductance matrix, cell volumes) of the validated system."""
    nx, ny, nz = x_edges.size - 1, y_edges.size - 1, z_edges.size - 1
    dx, dy, dz = np.diff(x_edges), np.diff(y_edges), np.diff(z_edges)
    volume = dx[:, None, None] * dy[None, :, None] * dz[None, None, :]
    n = nx * ny * nz
    linear = np.arange(n).reshape(nx, ny, nz)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros((nx, ny, nz))

    def couple(axis: int, spacing: np.ndarray, face_area: np.ndarray) -> None:
        """Stamp the face conductances along one axis."""
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        sl_lo, sl_hi = tuple(sl_lo), tuple(sl_hi)
        shape = [1, 1, 1]
        shape[axis] = spacing.size - 1
        half_lo = (0.5 * spacing[:-1]).reshape(shape)
        half_hi = (0.5 * spacing[1:]).reshape(shape)
        g = face_area / (half_lo / k[sl_lo] + half_hi / k[sl_hi])
        a = linear[sl_lo].ravel()
        b = linear[sl_hi].ravel()
        gg = g.ravel()
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-gg, -gg))
        np.add.at(diag, tuple(np.unravel_index(a, diag.shape)), gg)
        np.add.at(diag, tuple(np.unravel_index(b, diag.shape)), gg)

    if nx > 1:
        area = dy[None, :, None] * dz[None, None, :] * np.ones((nx - 1, 1, 1))
        couple(0, dx, area)
    if ny > 1:
        area = dx[:, None, None] * dz[None, None, :] * np.ones((1, ny - 1, 1))
        couple(1, dy, area)
    if nz > 1:
        area = dx[:, None, None] * dy[None, :, None] * np.ones((1, 1, nz - 1))
        couple(2, dz, area)

    # bottom Dirichlet
    area_bottom = dx[:, None] * dy[None, :]
    diag[:, :, 0] += area_bottom * k[:, :, 0] / (0.5 * dz[0])

    all_idx = linear.ravel()
    all_rows = np.concatenate(rows + [all_idx])
    all_cols = np.concatenate(cols + [all_idx])
    all_vals = np.concatenate(vals + [diag.ravel()])
    matrix = sp.coo_matrix((all_vals, (all_rows, all_cols)), shape=(n, n)).tocsr()
    return matrix, volume
