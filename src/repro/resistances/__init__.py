"""Thermal-resistance formulas: Eqs. (7)–(16), (21) aggregates, Eq. (22)
cluster transform and conduction primitives."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".fitting": ("FittingCoefficients",),
        ".model_a_set": (
            "ModelAResistances",
            "PlaneResistances",
            "compute_model_a_resistances",
        ),
        ".model_b_set": (
            "ModelBResistances",
            "PlaneLadderQuantities",
            "compute_model_b_resistances",
        ),
        ".primitives": (
            "annulus_axial_resistance",
            "cylinder_axial_resistance",
            "cylindrical_shell_resistance",
            "parallel",
            "series",
            "slab_resistance",
        ),
    },
)

__all__ = [
    "FittingCoefficients",
    "ModelAResistances",
    "PlaneResistances",
    "compute_model_a_resistances",
    "ModelBResistances",
    "PlaneLadderQuantities",
    "compute_model_b_resistances",
    "slab_resistance",
    "cylinder_axial_resistance",
    "cylindrical_shell_resistance",
    "annulus_axial_resistance",
    "series",
    "parallel",
]
