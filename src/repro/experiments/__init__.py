"""Experiments: one module per paper table/figure plus a combined runner."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".harness": ("ExperimentResult", "run_sweep_experiment"),
        ".runner": ("REGISTRY", "render_markdown", "run_all"),
    },
    submodules=(
        "case_study",
        "fig4_radius",
        "fig5_liner",
        "fig6_substrate",
        "fig7_cluster",
        "paper_facts",
        "table1_segments",
    ),
)

__all__ = [
    "ExperimentResult",
    "run_sweep_experiment",
    "run_all",
    "render_markdown",
    "REGISTRY",
    "fig4_radius",
    "fig5_liner",
    "fig6_substrate",
    "fig7_cluster",
    "table1_segments",
    "case_study",
    "paper_facts",
]
