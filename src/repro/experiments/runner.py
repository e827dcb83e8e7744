"""Run every paper experiment and render a combined report.

``run_all`` executes figs. 4–7, Table I and the case study;
``render_markdown`` produces the EXPERIMENTS.md content comparing measured
numbers against the paper's stated facts.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..analysis import format_table
from . import (
    case_study,
    fig4_radius,
    fig5_liner,
    fig6_substrate,
    fig7_cluster,
    paper_facts,
    table1_segments,
)
from .case_study import CaseStudyExperiment
from .harness import ExperimentResult

#: experiment id -> module run() callable
REGISTRY: dict[str, Callable[..., Any]] = {
    "fig4": fig4_radius.run,
    "fig5": fig5_liner.run,
    "table1": table1_segments.run,
    "fig6": fig6_substrate.run,
    "fig7": fig7_cluster.run,
    "case_study": case_study.run,
}


def run_all(
    *,
    fem_resolution: str | tuple[int, int] = "medium",
    fast: bool = False,
    verbose: bool = True,
    jobs: int = 1,
    calibrate: bool = True,
) -> dict[str, Any]:
    """Run every experiment; Table I reuses the Fig. 5 sweep.

    ``jobs`` sets the per-sweep worker-process count (1 = serial) and
    ``calibrate`` toggles the recalibrated Model A variant everywhere —
    the same knobs the single-experiment entry points take (the CLI's
    ``--jobs`` / ``--no-calibrate`` for ``all`` land here).
    """
    results: dict[str, Any] = {}
    for exp_id in ("fig4", "fig5", "fig6", "fig7"):
        if verbose:
            print(f"[{exp_id}] running ...")
        results[exp_id] = REGISTRY[exp_id](
            fem_resolution=fem_resolution, fast=fast, jobs=jobs, calibrate=calibrate
        )
    if verbose:
        print("[table1] deriving from fig5 ...")
    results["table1"] = table1_segments.run(
        fem_resolution=fem_resolution,
        fast=fast,
        fig5_result=results["fig5"],
        jobs=jobs,
    )
    if verbose:
        print("[case_study] running ...")
    results["case_study"] = case_study.run(
        fem_resolution=fem_resolution, fast=fast, recalibrate=calibrate, jobs=jobs
    )
    return results


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
        exp: CaseStudyExperiment = results["case_study"]
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
