"""Render the combined EXPERIMENTS.md report.

``render_markdown`` compares the measured numbers of figs. 4–7, Table I
and the case study (``python -m repro all --output-dir DIR`` runs them)
against the paper's stated facts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..analysis import format_table
from . import paper_facts

if TYPE_CHECKING:
    from ..scenarios.results import ExperimentResult


def _figure_section(result: ExperimentResult, paper_errors: dict[str, tuple]) -> str:
    lines = [f"## {result.title}", ""]
    lines.append("```")
    lines.append(result.table_text())
    lines.append("```")
    lines.append("")
    lines.append("Errors vs our FEM reference (paper's errors vs COMSOL in brackets):")
    lines.append("")
    lines.append("| model | max err % | avg err % | paper max % | paper avg % |")
    lines.append("|---|---|---|---|---|")
    for name, err in result.errors.items():
        pct = err.as_percentages()
        paper = paper_errors.get(name)
        pmax = f"{paper[0]:.0f}" if paper else "-"
        pavg = f"{paper[1]:.0f}" if paper else "-"
        lines.append(
            f"| {name} | {pct['max_%']:.1f} | {pct['avg_%']:.1f} | {pmax} | {pavg} |"
        )
    lines.append("")
    lines.append("```")
    lines.append(result.plot_text())
    lines.append("```")
    lines.append("")
    return "\n".join(lines)


def render_markdown(results: dict[str, Any]) -> str:
    """EXPERIMENTS.md body: measured vs paper, per experiment."""
    sections = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "All temperatures are rises ΔT (K == °C) above the heat sink.",
        "Our FEM reference is the library's own finite-volume solver (see",
        "README.md, \"Substitutions and assumptions\"), so absolute",
        "agreement with the paper's COMSOL numbers is not expected; curve",
        "*shapes* and model orderings are.",
        "",
    ]
    facts = {
        "fig4": paper_facts.FIG4_ERRORS,
        "fig5": {},
        "fig6": paper_facts.FIG6_ERRORS,
        "fig7": paper_facts.FIG7_ERRORS,
    }
    for exp_id in ("fig4", "fig5", "fig6", "fig7"):
        if exp_id in results:
            sections.append(_figure_section(results[exp_id], facts[exp_id]))
    if "table1" in results:
        result = results["table1"]
        sections.append("## Table I: error and run time vs segments")
        sections.append("")
        sections.append("```")
        sections.append(format_table(result.metadata["table_rows"]))
        sections.append("```")
        sections.append("")
        paper_rows = [["model", "paper max %", "paper avg %", "paper time [ms]"]]
        for name, (mx, av, ms) in paper_facts.TABLE1.items():
            paper_rows.append([name, mx, av, ms if ms is not None else "-"])
        sections.append("Paper's Table I for comparison:")
        sections.append("")
        sections.append("```")
        sections.append(format_table(paper_rows))
        sections.append("```")
        sections.append("")
    if "case_study" in results:
        exp = results["case_study"]
        sections.append("## Case study: 3-D DRAM-uP")
        sections.append("")
        sections.append("```")
        sections.append(format_table(exp.rows(), float_format="{:.2f}"))
        sections.append("```")
        sections.append("")
        sections.append("Paper: " + ", ".join(
            f"{k} = {v:.1f} °C" for k, v in paper_facts.CASE_STUDY_RISES.items()
        ))
        sections.append("")
    return "\n".join(sections)
