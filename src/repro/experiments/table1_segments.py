"""Table I — accuracy and runtime versus Model B segment count.

The paper evaluates B(1)/B(20)/B(100)/B(500), Model A and the 1-D model
over the Fig. 5 liner sweep and reports max/avg error against FEM plus the
solve time.  The ``table1`` scenario runs the Fig. 5 sweep and
:func:`rows_from_fig5` derives the table from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from ..scenarios.results import ExperimentResult

TITLE = "Table I: error and run time vs # of segments in Model B"


def rows_from_fig5(result: ExperimentResult) -> list[list[Any]]:
    """Table I rows (model, max err %, avg err %, time ms) from Fig. 5 data.

    Order mirrors the paper: B(1), B(20), B(100), B(500), A, 1-D.
    """
    ordered = sorted(
        (name for name in result.errors if name.startswith("model_b(")),
        key=lambda n: int(n[len("model_b("):-1]),
    )
    ordered += [n for n in ("model_a", "model_1d") if n in result.errors]
    out: list[list[Any]] = [["model", "max err %", "avg err %", "time [ms]"]]
    for name in ordered:
        pct = result.errors[name].as_percentages()
        out.append([name, pct["max_%"], pct["avg_%"], result.runtimes_ms[name]])
    return out
