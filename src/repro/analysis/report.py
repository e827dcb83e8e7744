"""Plain-text reporting: aligned tables for experiment outputs.

The CLI prints the same rows the paper's tables/figures report; these
helpers keep the formatting in one place.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..errors import ValidationError


def format_table(
    rows: Sequence[Sequence[Any]],
    *,
    header: bool = True,
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as an aligned monospace table.

    The first row is treated as the header when ``header`` is True.
    Floats are formatted with ``float_format``; other values with str().
    """
    if not rows:
        raise ValidationError("cannot format an empty table")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("all rows must have the same number of columns")

    def render(value: Any) -> str:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, int):
            return str(value)
        return float_format.format(value)

    cells = [[render(v) for v in row] for row in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(width)]
    lines: list[str] = []
    for i, row in enumerate(cells):
        line = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(line)
        if header and i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    x_values: Sequence[Any],
    series: dict[str, Sequence[float]],
    *,
    float_format: str = "{:.2f}",
) -> str:
    """Table with one x column and one column per named series."""
    names = list(series)
    if not names:
        raise ValidationError("need at least one series")
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValidationError(
                f"series {name!r} has {len(series[name])} points, "
                f"x has {len(x_values)}"
            )
    rows: list[list[Any]] = [[x_label, *names]]
    for i, x in enumerate(x_values):
        rows.append([x, *(series[name][i] for name in names)])
    return format_table(rows, float_format=float_format)


def format_kv_block(title: str, items: dict[str, Any]) -> str:
    """A titled key/value block for experiment metadata."""
    if not title:
        raise ValidationError("title must be non-empty")
    key_width = max((len(k) for k in items), default=0)
    lines = [title, "=" * len(title)]
    for key, value in items.items():
        lines.append(f"{key.ljust(key_width)} : {value}")
    return "\n".join(lines)
