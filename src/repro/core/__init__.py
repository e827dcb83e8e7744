"""Core analytical models: Model A, Model B, the 1-D baseline, sweep results."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".base": ("AssembledSystem", "ThermalTSVModel", "solve_stacked"),
        ".factory": ("make_model",),
        ".model_1d": ("Model1D",),
        ".model_a": ("ModelA", "build_model_a_circuit", "solve_three_plane_closed_form"),
        ".model_b": ("ModelB", "build_model_b_circuit"),
        ".nonlinear": ("NonlinearSolver",),
        ".result": ("ModelResult", "NonlinearResult"),
        ".segments": ("SegmentScheme",),
        ".sweep": ("SweepPoint", "SweepResult"),
    },
)

__all__ = [
    "ThermalTSVModel",
    "AssembledSystem",
    "solve_stacked",
    "ModelResult",
    "ModelA",
    "ModelB",
    "Model1D",
    "SegmentScheme",
    "build_model_a_circuit",
    "build_model_b_circuit",
    "solve_three_plane_closed_form",
    "make_model",
    "SweepResult",
    "SweepPoint",
    "NonlinearSolver",
    "NonlinearResult",
]
