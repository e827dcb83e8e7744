"""Experiments: the paper's parameters and facts, the sweep harness the
reference path uses, the case study and the EXPERIMENTS.md renderer."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".harness": ("run_sweep_experiment",),
        ".runner": ("render_markdown",),
    },
    submodules=(
        "case_study",
        "paper_facts",
        "table1_segments",
    ),
)

__all__ = [
    "run_sweep_experiment",
    "render_markdown",
    "table1_segments",
    "case_study",
    "paper_facts",
]
