"""Experiments: the paper's parameters and facts, the experiment assembly
the planned path uses, the case study and the EXPERIMENTS.md renderer."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".runner": ("render_markdown",),
    },
    submodules=(
        "case_study",
        "paper_facts",
        "table1_segments",
    ),
)

__all__ = [
    "render_markdown",
    "table1_segments",
    "case_study",
    "paper_facts",
]
