"""Thermal TSV geometry.

A :class:`TSV` is a cylindrical copper (by default) via wrapped in a thin
dielectric liner.  Per the paper's structure it spans from ``extension``
metres below the top of the first substrate up to the top of the last
substrate (it does not cross the topmost ILD — see Eq. (14), where the
last-plane metal span is t_Si + t_b only).

A :class:`TSVCluster` represents the Eq. (22) transform: one via of radius
``r0`` split into ``count`` vias of radius ``r0/sqrt(count)`` so the total
metal cross-section is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import GeometryError
from ..materials import COPPER, SILICON_DIOXIDE, Material
from ..units import require_non_negative, require_positive, require_positive_int


@dataclass(frozen=True, slots=True)
class TSV:
    """A single cylindrical thermal through-silicon via.

    Parameters
    ----------
    radius:
        Radius of the metal fill, metres.
    liner_thickness:
        Thickness of the dielectric liner around the fill, metres.
    extension:
        How far the via extends below the top of the first-plane substrate
        (the paper's ``l_ext``); may be zero.
    fill, liner:
        Materials of the metal core and the liner.
    """

    radius: float
    liner_thickness: float
    extension: float = 0.0
    fill: Material = COPPER
    liner: Material = SILICON_DIOXIDE

    def __post_init__(self) -> None:
        require_positive("radius", self.radius)
        require_positive("liner_thickness", self.liner_thickness)
        require_non_negative("extension", self.extension)
        if not isinstance(self.fill, Material) or not isinstance(self.liner, Material):
            raise GeometryError("fill and liner must be Materials")

    @property
    def outer_radius(self) -> float:
        """Radius including the liner, metres."""
        return self.radius + self.liner_thickness

    @property
    def metal_area(self) -> float:
        """Cross-section of the metal fill, m²."""
        return math.pi * self.radius**2

    @property
    def occupied_area(self) -> float:
        """Cross-section including the liner, m² — the paper's π(r+tL)²."""
        return math.pi * self.outer_radius**2

    def aspect_ratio(self, depth: float) -> float:
        """Depth-to-diameter aspect ratio for a via segment of ``depth``."""
        require_positive("depth", depth)
        return depth / (2.0 * self.radius)

    def with_radius(self, radius: float) -> "TSV":
        """Copy with a new metal radius (used by the Fig. 4 sweep)."""
        return replace(self, radius=require_positive("radius", radius))

    def with_liner_thickness(self, liner_thickness: float) -> "TSV":
        """Copy with a new liner thickness (used by the Fig. 5 sweep)."""
        return replace(
            self, liner_thickness=require_positive("liner_thickness", liner_thickness)
        )


@dataclass(frozen=True, slots=True)
class TSVCluster:
    """A cluster of ``count`` identical vias replacing one via of radius r0.

    The transform keeps the total metal cross-section constant
    (Eq. (22) context): each member via has radius ``r0 / sqrt(count)``.
    ``count == 1`` degenerates to the single via.
    """

    base: TSV
    count: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.base, TSV):
            raise GeometryError("base must be a TSV")
        require_positive_int("count", self.count)

    @property
    def member_radius(self) -> float:
        """Radius of each member via: r0/√n."""
        return self.base.radius / math.sqrt(self.count)

    @property
    def member(self) -> TSV:
        """The member via geometry (same liner/extension/materials)."""
        if self.count == 1:
            return self.base  # r0/√1 is r0 exactly
        return self.base.with_radius(self.member_radius)

    @property
    def total_metal_area(self) -> float:
        """Total metal cross-section; equals the base via's by construction."""
        return self.count * math.pi * self.member_radius**2

    @property
    def total_occupied_area(self) -> float:
        """Total metal+liner footprint: n·π(r_n + tL)² (grows with n)."""
        outer = self.member_radius + self.base.liner_thickness
        return self.count * math.pi * outer**2

    @property
    def total_lateral_perimeter(self) -> float:
        """Sum of member circumferences at the liner inner wall: n·2π·r_n = 2π·r0·√n."""
        return self.count * 2.0 * math.pi * self.member_radius

    def with_count(self, count: int) -> "TSVCluster":
        """Copy with a different member count (used by the Fig. 7 sweep)."""
        return replace(self, count=count)


def as_cluster(via: TSV | TSVCluster) -> TSVCluster:
    """Normalise a TSV-or-cluster argument to a :class:`TSVCluster`."""
    if isinstance(via, TSVCluster):
        return via
    if isinstance(via, TSV):
        return TSVCluster(via, 1)
    raise GeometryError(f"expected TSV or TSVCluster, got {type(via).__name__}")
