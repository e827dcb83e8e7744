"""The FEM reference model — the library's stand-in for the paper's COMSOL.

:class:`FEMReference` plugs the finite-volume solvers into the common
:class:`~repro.core.base.ThermalTSVModel` interface so experiments can
sweep it next to Models A/B/1-D.

Cluster handling mirrors the experiments' physics:

* the axisymmetric back-end reduces an n-via cluster to a unit cell of
  area A0/n carrying 1/n of the heat (uniformly distributed vias and
  power make the cell boundaries adiabatic symmetry planes);
* the Cartesian back-end places all n vias explicitly on a uniform grid
  inside the square footprint — slower, used as a cross-check.

The FEM system matrix depends only on (mesh, conductivity) — i.e. on the
stack, the via and the resolution — while the power specification enters
the right-hand side alone.  :meth:`FEMReference.assembly_key` exposes that
identity, and :meth:`FEMReference.assemble_batch` exploits it: the points
of a stacked unit that share one geometry are voxelised and assembled
once, and :func:`~repro.core.base.solve_stacked` factors their matrix
once and back-substitutes per point, bit-for-bit identical to per-point
solves.

:meth:`FEMReference.batch_class_key` also declares small axisymmetric
meshes *stackable*: points whose matrices differ (geometry sweeps) but
share a mesh topology solve as one block-diagonal natural-ordering
factorisation — see :func:`repro.network.solve.solve_sparse_stacked`.
A solo :meth:`~FEMReference.solve` is the one-member case of the same
assembly.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..errors import ValidationError
from ..geometry import PowerSpec, Stack3D, TSV, TSVCluster, validate_tsv_in_stack
from ..geometry.tsv import as_cluster
from ..perf import content_key, model_key
from ..network.solve import solve_sparse
from .axisym import (
    NATURAL_ORDERING_CUTOFF,
    AxisymField,
    _permc_spec,
    assemble_axisymmetric,
)
from .cartesian import CartesianField, assemble_cartesian
from .voxelize import (
    axisym_source_density,
    build_axisym_geometry,
    build_cartesian_geometry,
    cartesian_source_density,
    grid_via_positions,
)
from ..core.base import (
    AssembledSystem,
    StackedMember,
    ThermalTSVModel,
    shared_matrix_sets,
)
from ..core.result import ModelResult

#: resolution presets: (nr, nz) for axisym, (nx, ny, nz) for cartesian
AXISYM_PRESETS = {
    "coarse": (24, 60),
    "medium": (36, 90),
    "fine": (56, 140),
}
CARTESIAN_PRESETS = {
    "coarse": (24, 24, 48),
    "medium": (36, 36, 72),
    "fine": (52, 52, 104),
}


class FEMReference(ThermalTSVModel):
    """Finite-volume reference solution (the COMSOL substitute).

    Parameters
    ----------
    resolution:
        ``"coarse"`` / ``"medium"`` / ``"fine"`` or an explicit cell-count
        tuple — (nr, nz) for the axisymmetric back-end, (nx, ny, nz) for
        the Cartesian one.
    solver:
        ``"axisym"`` (default, fast) or ``"cartesian"``.
    """

    def __init__(
        self,
        resolution: str | tuple[int, ...] = "medium",
        *,
        solver: str = "axisym",
    ) -> None:
        if solver not in ("axisym", "cartesian"):
            raise ValidationError(f"solver must be 'axisym' or 'cartesian', got {solver!r}")
        self.solver = solver
        presets = AXISYM_PRESETS if solver == "axisym" else CARTESIAN_PRESETS
        if isinstance(resolution, str):
            try:
                self.resolution = presets[resolution]
            except KeyError:
                raise ValidationError(
                    f"unknown resolution {resolution!r}; known: {sorted(presets)}"
                ) from None
        else:
            expected = 2 if solver == "axisym" else 3
            if len(resolution) != expected:
                raise ValidationError(
                    f"{solver} resolution needs {expected} cell counts, got {resolution!r}"
                )
            self.resolution = tuple(int(n) for n in resolution)
        self.name = "fem" if solver == "axisym" else "fem3d"

    def _solve(
        self, stack: Stack3D, via: TSVCluster, power: PowerSpec
    ) -> ModelResult:
        (system,) = self._assemble_set(stack, via, [power])
        return system.finish(
            solve_sparse(system.matrix, system.rhs, permc_spec=system.permc_spec)
        )

    # ------------------------------------------------------------------
    # the stacked-tier interface
    # ------------------------------------------------------------------
    def assembly_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Content hash of the FEM system matrix at (stack, via).

        The mesh and per-cell conductivity — hence the assembled matrix —
        are fully determined by the model configuration, the stack and
        the (cluster-normalised) via; power only shapes the RHS.  Points
        sharing this key solve the identical matrix.
        """
        return content_key(
            "fem_assembly/v1", model_key(self), stack, as_cluster(via)
        )

    def batch_class_key(
        self, stack: Stack3D, via: TSV | TSVCluster
    ) -> str | None:
        """Stack axisymmetric meshes of identical topology.

        The finite-volume matrix's sparsity pattern is fixed by the cell
        counts alone — geometry and materials only change the coefficient
        values — so points whose *voxelised* meshes (which refine past
        the nominal resolution to honour layer breakpoints) end up with
        the same (nr, nz) share a structure and may ride the
        block-diagonal stacked sparse tier.  That tier factorises with
        natural ordering, whose fill-in premium is only acceptable on
        small meshes: systems past
        :data:`~repro.fem.axisym.NATURAL_ORDERING_CUTOFF` unknowns (the
        ``medium`` preset and up) opt out and batch by
        :meth:`assembly_key` alone, as does the Cartesian back-end (3-D
        fill-in).  The mesh frame comes from the voxel-frame cache, so
        repeated key probes cost a cache hit, not a meshing pass.
        """
        if self.solver != "axisym":
            return None
        try:
            cluster = as_cluster(via)
            validate_tsv_in_stack(stack, cluster.member)
            nr, nz = self.resolution
            geometry = build_axisym_geometry(
                stack,
                cluster.member,
                cell_area=stack.footprint_area / cluster.count,
                nr=nr,
                nz=nz,
            )
        except ValidationError:
            return None
        shape = (geometry.r_edges.size - 1, geometry.z_edges.size - 1)
        if shape[0] * shape[1] > NATURAL_ORDERING_CUTOFF:
            return None
        return content_key("stacked_class/fem_axisym/v1", shape)

    def assemble_system(
        self, stack: Stack3D, via: TSV | TSVCluster, power: PowerSpec
    ) -> AssembledSystem:
        """One point's sparse system, exactly as :meth:`solve` builds it."""
        (system,) = self.assemble_batch([(self, stack, via, power)])
        return system

    def assemble_batch(
        self, members: Sequence[StackedMember]
    ) -> list[AssembledSystem]:
        """Assemble a stacked unit, voxelising once per shared-matrix set.

        Members with an equal :meth:`assembly_key` share one mesh,
        conductivity and matrix: the set's geometry is built and its
        matrix assembled once, each member adds only its own source
        density, and the set's systems hold one matrix object, which
        :func:`~repro.core.base.solve_stacked` factors once.  Every system
        is the one :meth:`solve` assembles (same ``permc_spec`` too), so
        ``finish`` reproduces the solo result bit-for-bit.
        """
        if not all(isinstance(model, FEMReference) for model, *_ in members):
            return super().assemble_batch(members)
        systems: list[Any] = [None] * len(members)
        for indices in shared_matrix_sets(members):
            model, stack, via, _ = members[indices[0]]
            cluster = as_cluster(via)
            validate_tsv_in_stack(stack, cluster.member)
            powers = [members[i][3] for i in indices]
            for i, system in zip(indices, model._assemble_set(stack, cluster, powers)):
                systems[i] = system
        return systems

    def _assemble_set(
        self, stack: Stack3D, via: TSVCluster, powers: Sequence[PowerSpec]
    ) -> list[AssembledSystem]:
        """One system per power over one voxelisation and one matrix."""
        if self.solver == "axisym":
            return self._assemble_axisym(stack, via, powers)
        return self._assemble_cartesian(stack, via, powers)

    # ------------------------------------------------------------------
    # axisymmetric back-end
    # ------------------------------------------------------------------
    def _axisym_result(
        self, stack: Stack3D, n: int, field, plane_bands
    ) -> ModelResult:
        plane_rises = tuple(
            field.max_rise_in_band(z0, z1) for z0, z1 in plane_bands
        )
        return ModelResult(
            model_name=self.name,
            max_rise=field.max_rise,
            plane_rises=plane_rises,
            sink_temperature=stack.sink_temperature,
            solve_time=field.solve_time,
            n_unknowns=field.n_unknowns,
            metadata={
                "solver": "axisym",
                "nr": field.nr,
                "nz": field.nz,
                "cluster_count": n,
                "unit_cell": n > 1,
            },
        )

    def _assemble_axisym(
        self, stack: Stack3D, via: TSVCluster, powers: Sequence[PowerSpec]
    ) -> list[AssembledSystem]:
        nr, nz = self.resolution
        n = via.count
        start = time.perf_counter()
        geometry = build_axisym_geometry(
            stack,
            via.member,
            cell_area=stack.footprint_area / n,
            nr=nr,
            nz=nz,
        )
        matrix, volume = assemble_axisymmetric(
            geometry.r_edges, geometry.z_edges, geometry.conductivity
        )
        shape = volume.shape

        def finish(temps: np.ndarray) -> ModelResult:
            field = AxisymField(
                r_edges=geometry.r_edges,
                z_edges=geometry.z_edges,
                temperatures=np.asarray(temps, dtype=float).reshape(shape),
                solve_time=time.perf_counter() - start,
                conductivity=geometry.conductivity,
            )
            return self._axisym_result(stack, n, field, geometry.plane_bands)

        permc_spec = _permc_spec(volume.size)
        return [
            AssembledSystem(
                matrix=matrix,
                rhs=(
                    axisym_source_density(
                        stack, via.member, power, 1.0 / n,
                        geometry.r_edges, geometry.z_edges,
                    )
                    * volume
                ).ravel(),
                finish=finish,
                permc_spec=permc_spec,
            )
            for power in powers
        ]

    # ------------------------------------------------------------------
    # Cartesian back-end
    # ------------------------------------------------------------------
    def _cartesian_result(
        self, stack: Stack3D, via: TSVCluster, positions, field, plane_bands
    ) -> ModelResult:
        plane_rises = tuple(
            field.max_rise_in_band(z0, z1) for z0, z1 in plane_bands
        )
        return ModelResult(
            model_name=self.name,
            max_rise=field.max_rise,
            plane_rises=plane_rises,
            sink_temperature=stack.sink_temperature,
            solve_time=field.solve_time,
            n_unknowns=field.n_unknowns,
            metadata={
                "solver": "cartesian",
                "shape": tuple(int(s - 1) for s in (
                    field.x_edges.size, field.y_edges.size, field.z_edges.size
                )),
                "cluster_count": via.count,
                "via_positions": positions,
            },
        )

    def _assemble_cartesian(
        self, stack: Stack3D, via: TSVCluster, powers: Sequence[PowerSpec]
    ) -> list[AssembledSystem]:
        nx, ny, nz = self.resolution
        side = stack.footprint_side
        positions = grid_via_positions(via.count, side, side)
        start = time.perf_counter()
        geometry = build_cartesian_geometry(
            stack,
            via.member,
            via_positions=positions,
            nx=nx,
            ny=ny,
            nz=nz,
        )
        matrix, volume = assemble_cartesian(
            geometry.x_edges, geometry.y_edges, geometry.z_edges,
            geometry.conductivity,
        )

        def finish(temps: np.ndarray) -> ModelResult:
            field = CartesianField(
                x_edges=geometry.x_edges,
                y_edges=geometry.y_edges,
                z_edges=geometry.z_edges,
                temperatures=np.asarray(temps, dtype=float).reshape(volume.shape),
                solve_time=time.perf_counter() - start,
            )
            return self._cartesian_result(
                stack, via, positions, field, geometry.plane_bands
            )

        return [
            AssembledSystem(
                matrix=matrix,
                rhs=(
                    cartesian_source_density(
                        stack, via.member, power,
                        geometry.x_edges, geometry.y_edges, geometry.z_edges,
                        geometry.outer_frac,
                    )
                    * volume
                ).ravel(),
                finish=finish,
            )
            for power in powers
        ]
