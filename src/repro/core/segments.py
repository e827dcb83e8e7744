"""How Model B splits the via into π-segments, plane by plane.

:class:`SegmentScheme` is plain data: scenario specs parse ``b:50,500,500``
into one while they validate, so it lives apart from the Model B solver
(:mod:`repro.core.model_b`) and importing it loads no network code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ValidationError
from ..units import require_positive_int

if TYPE_CHECKING:
    from ..geometry import Stack3D


@dataclass(frozen=True, slots=True)
class SegmentScheme:
    """How many π-segments each plane receives (bottom-up)."""

    plane_segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.plane_segments:
            raise ValidationError("plane_segments must be non-empty")
        for n in self.plane_segments:
            require_positive_int("plane segment count", n)

    @classmethod
    def paper(cls, n_upper: int, n_planes: int = 3, n_first: int | None = None) -> "SegmentScheme":
        """The paper's convention: n_upper segments in planes 2..N and
        roughly a tenth of that in plane 1 (Table I uses (1,1), (2,20),
        (10,100), (50,500))."""
        require_positive_int("n_upper", n_upper)
        require_positive_int("n_planes", n_planes)
        if n_first is None:
            n_first = max(1, n_upper // 10)
        require_positive_int("n_first", n_first)
        return cls((n_first,) + (n_upper,) * (n_planes - 1))

    @property
    def total(self) -> int:
        """The paper's n_A = Σ n_j."""
        return sum(self.plane_segments)

    def split(self, stack: Stack3D, plane_index: int) -> tuple[int, int]:
        """(n_Si, n_ILD) for one plane: proportional to layer thickness,
        at least one ILD segment (heat must be injectable), no substrate
        segments in plane 1 (its substrate is the lumped Rs)."""
        n = self.plane_segments[plane_index]
        if plane_index == 0:
            return 0, n
        if n == 1:
            return 0, 1
        plane = stack.planes[plane_index]
        t_si = plane.substrate.thickness
        t_ild = plane.ild.thickness
        n_si = round(n * t_si / (t_si + t_ild))
        n_si = min(max(n_si, 1), n - 1)
        return n_si, n - n_si
