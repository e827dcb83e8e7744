"""The 3-D stack: planes, bonding layers and the footprint.

The stack is described bottom-up, plane 1 being adjacent to the heat sink
(Fig. 1 of the paper): ``Si1 | ILD1 | bond1 | Si2 | ILD2 | bond2 | ... |
SiN | ILDN``.  :meth:`Stack3D.layer_intervals` exposes the z-extents of all
layers, which is what the finite-volume solvers voxelise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

from ..errors import GeometryError
from ..units import require_positive
from .layers import Layer, LayerKind
from .plane import DevicePlane


@dataclass(frozen=True, slots=True)
class LayerInterval:
    """A layer instance positioned in the stack, with z-extent [z0, z1)."""

    z0: float
    z1: float
    layer: Layer
    plane_index: int  # 0-based plane the layer belongs to; bonds belong to the plane below

    @property
    def thickness(self) -> float:
        return self.z1 - self.z0

    @property
    def kind(self) -> LayerKind:
        return self.layer.kind


@dataclass(frozen=True, slots=True)
class Stack3D:
    """An N-plane 3-D IC stack over a heat sink.

    Parameters
    ----------
    planes:
        Bottom-up tuple of :class:`DevicePlane`; plane 0 touches the sink.
    bonds:
        Tuple of ``len(planes) - 1`` bonding layers; ``bonds[i]`` glues
        plane ``i`` to plane ``i+1``.
    footprint_area:
        Horizontal area A0 of the analysed block, m².
    sink_temperature:
        Absolute temperature of the heat-sink face, °C (the paper uses
        27 °C).  Models compute rises ΔT; absolute readouts add this.
    """

    planes: tuple[DevicePlane, ...]
    bonds: tuple[Layer, ...]
    footprint_area: float
    sink_temperature: float = 27.0

    def __post_init__(self) -> None:
        if not self.planes:
            raise GeometryError("a stack needs at least one plane")
        if not all(isinstance(p, DevicePlane) for p in self.planes):
            raise GeometryError("planes must be DevicePlane instances")
        if len(self.bonds) != len(self.planes) - 1:
            raise GeometryError(
                f"{len(self.planes)} planes need {len(self.planes) - 1} bond layers, "
                f"got {len(self.bonds)}"
            )
        for b in self.bonds:
            if b.kind is not LayerKind.BOND:
                raise GeometryError(f"bond layer {b.name!r} has kind {b.kind}")
        require_positive("footprint_area", self.footprint_area)

    # ------------------------------------------------------------------
    # counts and simple accessors
    # ------------------------------------------------------------------
    @property
    def n_planes(self) -> int:
        return len(self.planes)

    @property
    def footprint_side(self) -> float:
        """Side of the equivalent square footprint, metres."""
        return math.sqrt(self.footprint_area)

    @property
    def equivalent_radius(self) -> float:
        """Radius of the equal-area circular footprint: √(A0/π)."""
        return math.sqrt(self.footprint_area / math.pi)

    @property
    def total_height(self) -> float:
        """Total stack height from the sink face to the top of the last ILD."""
        h = sum(p.thickness for p in self.planes)
        h += sum(b.thickness for b in self.bonds)
        return h

    def bond_below(self, plane_index: int) -> Layer:
        """The bond layer below plane ``plane_index`` (1-based planes > 0)."""
        if not 1 <= plane_index < self.n_planes:
            raise GeometryError(f"plane {plane_index} has no bond below it")
        return self.bonds[plane_index - 1]

    # ------------------------------------------------------------------
    # z-coordinate machinery
    # ------------------------------------------------------------------
    def layer_intervals(self) -> list[LayerInterval]:
        """All layers bottom-up with their z-extents (z = 0 at the sink)."""
        out: list[LayerInterval] = []
        z = 0.0
        for i, plane in enumerate(self.planes):
            for layer in (plane.substrate, plane.ild):
                out.append(LayerInterval(z, z + layer.thickness, layer, i))
                z += layer.thickness
            if i < len(self.bonds):
                b = self.bonds[i]
                out.append(LayerInterval(z, z + b.thickness, b, i))
                z += b.thickness
        return out

    def substrate_top(self, plane_index: int) -> float:
        """z of the top surface of plane ``plane_index``'s substrate.

        Accumulates the thicknesses in :meth:`layer_intervals`' order, so
        the value equals that interval's ``z1`` exactly.
        """
        if not 0 <= plane_index < self.n_planes:
            raise GeometryError(
                f"no plane {plane_index} in a {self.n_planes}-plane stack"
            )
        z = 0.0
        for i, plane in enumerate(self.planes[:plane_index]):
            z += plane.substrate.thickness
            z += plane.ild.thickness
            z += self.bonds[i].thickness
        return z + self.planes[plane_index].substrate.thickness

    def ild_interval(self, plane_index: int) -> LayerInterval:
        """The ILD interval of plane ``plane_index``."""
        for iv in self.layer_intervals():
            if iv.plane_index == plane_index and iv.kind is LayerKind.DIELECTRIC:
                return iv
        raise GeometryError(f"no plane {plane_index} in a {self.n_planes}-plane stack")

    def tsv_span(self, extension: float) -> tuple[float, float]:
        """(z_bottom, z_top) occupied by a TSV with the given extension.

        The via runs from ``extension`` below the top of the first
        substrate up to the top of the last substrate (the paper's
        convention; see README.md, "Substitutions and assumptions").
        """
        z_bottom = self.substrate_top(0) - extension
        if z_bottom < 0.0:
            raise GeometryError(
                f"TSV extension {extension} exceeds the first substrate thickness"
            )
        z_top = self.substrate_top(self.n_planes - 1)
        return z_bottom, z_top

    def iter_planes(self) -> Iterator[tuple[int, DevicePlane]]:
        """Enumerate planes bottom-up as ``(index, plane)``."""
        return iter(enumerate(self.planes))

    # ------------------------------------------------------------------
    # sweep helpers
    # ------------------------------------------------------------------
    def with_substrate_thickness(
        self, thickness: float, *, planes: tuple[int, ...] | None = None
    ) -> "Stack3D":
        """Copy with new substrate thickness on the given planes.

        ``planes=None`` changes every plane *except* the first (the Fig. 6
        sweep thins Si2 and Si3 while Si1 stays at 500 µm).
        """
        if planes is None:
            planes = tuple(range(1, self.n_planes))
        new_planes = list(self.planes)
        for i in planes:
            if not 0 <= i < self.n_planes:
                raise GeometryError(f"no plane {i} in a {self.n_planes}-plane stack")
            new_planes[i] = new_planes[i].with_substrate_thickness(thickness)
        return replace(self, planes=tuple(new_planes))

    def with_footprint_area(self, area: float) -> "Stack3D":
        """Copy with a different footprint area (unit-cell reductions)."""
        return replace(self, footprint_area=require_positive("area", area))

    def with_bond_conductivity_factor(self, factor: float) -> "Stack3D":
        """Copy with every bond layer's conductivity multiplied by ``factor``.

        Models the effective conductance of a bonding interface populated
        with metallic bond pads/bumps (the case study's c_{1,2}); see
        README.md, "Substitutions and assumptions".
        """
        require_positive("factor", factor)
        new_bonds = tuple(
            replace(
                b,
                material=b.material.with_conductivity(
                    b.material.thermal_conductivity * factor,
                    name=f"{b.material.name}*{factor:g}",
                ),
            )
            for b in self.bonds
        )
        return replace(self, bonds=new_bonds)
