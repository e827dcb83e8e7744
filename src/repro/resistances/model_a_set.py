"""The Model A resistance set: Eqs. (7)–(16) generalised to N planes.

Per plane j the set holds the triple (bulk, metal, liner):

* ``bulk``  — vertical resistance of the surroundings of the via
  (R1 / R4 / R7 pattern), spanning ILD_j + Si_j + bond_{j-1};
* ``metal`` — vertical resistance of the via fill (R2 / R5 / R8 pattern);
* ``liner`` — lateral resistance of the dielectric liner (R3 / R6 / R9
  pattern, Eq. (9)'s shell integral, Eq. (22) for clusters).

plus ``rs``, the lumped first-plane substrate (Eq. (16)).

Span conventions (paper Fig. 2; see README.md, "Substitutions and
assumptions"):

* plane 1 via span: tD1 + l_ext (the via crosses ILD1 and dips l_ext into
  the first substrate);
* plane 1 < j < N via span: tD_j + tSi_j + tb_{j-1};
* plane N via span: tSi_N + tb_{N-1} — the via stops at the top of the last
  substrate (Eq. (14) has no tD term).

The fitting coefficients enter exactly as in the paper: k1 divides every
vertical resistance, k2 divides every lateral resistance; the c_bond
extension multiplies the bond conductivity inside the bulk terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import GeometryError
from ..geometry import Stack3D, TSV, TSVCluster, as_cluster
from .fitting import FittingCoefficients


@dataclass(frozen=True, slots=True)
class PlaneResistances:
    """The (bulk, metal, liner) triple of one plane, K/W."""

    bulk: float
    metal: float
    liner: float


@dataclass(frozen=True, slots=True)
class ModelAResistances:
    """The complete Model A resistance set for an N-plane stack."""

    planes: tuple[PlaneResistances, ...]
    rs: float

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    def as_paper_tuple(self) -> tuple[float, ...]:
        """(R1, R2, ..., R9, Rs) for a three-plane stack, in paper order.

        Raises
        ------
        GeometryError
            If the stack is not three planes (the paper's numbering only
            covers that case).
        """
        if self.n_planes != 3:
            raise GeometryError("paper numbering R1..R9 requires exactly 3 planes")
        p1, p2, p3 = self.planes
        return (
            p1.bulk, p1.metal, p1.liner,
            p2.bulk, p2.metal, p2.liner,
            p3.bulk, p3.metal, p3.liner,
            self.rs,
        )


def _liner_lateral(
    cluster: TSVCluster, span: float, k2: float
) -> float:
    """Eq. (9) for a single via, Eq. (22) for an n-via cluster.

    For n vias of radius r_n = r0/√n the per-via log ratio is
    ln((r_n + tL)/r_n) = ln((r0 + tL·√n)/r0) and the n liners act in
    parallel, giving Eq. (22).
    """
    tsv = cluster.base
    n = cluster.count
    k_liner = tsv.liner.thermal_conductivity
    ratio = (tsv.radius + tsv.liner_thickness * math.sqrt(n)) / tsv.radius
    return math.log(ratio) / (2.0 * n * math.pi * k2 * k_liner * span)


def _bulk_area(stack: Stack3D, cluster: TSVCluster, *, exact_area: bool) -> float:
    """A = A0 − π(r+tL)² (Eq. (7)); optionally the exact n-via footprint."""
    if exact_area:
        occupied = cluster.total_occupied_area
    else:
        occupied = cluster.base.occupied_area
    area = stack.footprint_area - occupied
    if area <= 0.0:
        raise GeometryError(
            "the via cluster occupies the entire footprint; nothing is left "
            "for the bulk path"
        )
    return area


def compute_model_a_resistances(
    stack: Stack3D,
    via: TSV | TSVCluster,
    fit: FittingCoefficients | None = None,
    *,
    exact_area: bool = False,
) -> ModelAResistances:
    """Evaluate Eqs. (7)–(16) (and (22) for clusters) on a stack.

    Parameters
    ----------
    stack:
        The N-plane stack (N ≥ 1).
    via:
        A single :class:`TSV` or an Eq.-(22) :class:`TSVCluster`.
    fit:
        Fitting coefficients; defaults to unity (coefficient-free set).
    exact_area:
        When True, subtract the cluster's true occupied area from the bulk
        area instead of the base via's (the paper keeps vertical
        resistances unchanged under the cluster transform; this switch
        exposes the refinement as an ablation).
    """
    fit = fit or FittingCoefficients.unity()
    cluster = as_cluster(via)
    tsv = cluster.base
    if tsv.extension >= stack.planes[0].substrate.thickness:
        raise GeometryError(
            f"via extension {tsv.extension} exceeds the first substrate "
            f"thickness {stack.planes[0].substrate.thickness}"
        )
    area = _bulk_area(stack, cluster, exact_area=exact_area)
    metal_area = math.pi * tsv.radius**2  # total metal area is n-invariant
    k_fill = tsv.fill.thermal_conductivity

    planes: list[PlaneResistances] = []
    for j, plane in stack.iter_planes():
        t_ild = plane.ild.thickness
        k_ild = plane.ild.conductivity
        t_si = plane.substrate.thickness
        k_si = plane.substrate.conductivity
        if j == 0:
            # plane 1: R1/R2/R3 pattern over tD + l_ext
            span = t_ild + tsv.extension
            bulk_sum = t_ild / k_ild + tsv.extension / k_si
        else:
            bond = stack.bond_below(j)
            k_bond = bond.material.thermal_conductivity * fit.c_bond
            if j < stack.n_planes - 1:
                # middle plane: R4/R5/R6 pattern over tD + tSi + tb
                span = t_ild + t_si + bond.thickness
            else:
                # last plane: R7 keeps the full bulk stack, but the via
                # stops at the substrate top: metal/liner span tSi + tb
                span = t_si + bond.thickness
            bulk_sum = t_ild / k_ild + t_si / k_si + bond.thickness / k_bond
        planes.append(
            PlaneResistances(
                bulk=bulk_sum / (fit.k1 * area),
                metal=span / (fit.k1 * k_fill * metal_area),
                liner=_liner_lateral(cluster, span, fit.k2),
            )
        )

    first_substrate = stack.planes[0].substrate
    rs = (first_substrate.thickness - tsv.extension) / (
        fit.k1 * first_substrate.conductivity * stack.footprint_area
    )
    return ModelAResistances(planes=tuple(planes), rs=rs)
