"""ttsv-thermal — analytical heat-transfer models for thermal TSVs.

Reproduction of Xu, Pavlidis, De Micheli, "Analytical Heat Transfer Model
for Thermal Through-Silicon Vias", DATE 2011.

Quickstart
----------
>>> from repro import ModelA, PowerSpec, paper_stack, paper_tsv
>>> stack = paper_stack()
>>> result = ModelA().solve(stack, paper_tsv(), PowerSpec())
>>> result.max_rise > 0
True
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".core": (
            "Model1D",
            "ModelA",
            "ModelB",
            "ModelResult",
            "SegmentScheme",
            "SweepResult",
            "ThermalTSVModel",
            "make_model",
            "solve_three_plane_closed_form",
        ),
        ".geometry": (
            "TSV",
            "DevicePlane",
            "Layer",
            "LayerKind",
            "PowerSpec",
            "Stack3D",
            "TSVCluster",
            "paper_stack",
            "paper_tsv",
        ),
        ".materials": ("Material",),
        ".resistances": ("FittingCoefficients", "compute_model_a_resistances"),
    },
    submodules=("perf",),
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # models
    "ThermalTSVModel",
    "ModelA",
    "ModelB",
    "Model1D",
    "ModelResult",
    "SegmentScheme",
    "make_model",
    "solve_three_plane_closed_form",
    "SweepResult",
    # geometry
    "Layer",
    "LayerKind",
    "DevicePlane",
    "Stack3D",
    "TSV",
    "TSVCluster",
    "PowerSpec",
    "paper_stack",
    "paper_tsv",
    # materials & resistances
    "Material",
    "FittingCoefficients",
    "compute_model_a_resistances",
    # performance subsystem (executors, counters)
    "perf",
]
