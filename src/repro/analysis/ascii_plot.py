"""Terminal line plots.

The paper's figures are regenerated as data tables plus these ASCII plots,
so the CLI can show the *shape* (who wins, where curves cross, where the
Fig. 6 minimum sits) without a plotting stack.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ValidationError

#: marker characters assigned to series in order
MARKERS = "ox+*#@%&"


def ascii_plot(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    width: int = 72,
    height: int = 20,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more y(x) series on a character canvas.

    Each series gets a marker from :data:`MARKERS`; a legend line maps
    markers to names.  Points are plotted at their nearest cell; later
    series overwrite earlier ones where they collide.
    """
    if not series:
        raise ValidationError("need at least one series")
    if len(series) > len(MARKERS):
        raise ValidationError(f"at most {len(MARKERS)} series supported")
    if width < 16 or height < 6:
        raise ValidationError("canvas too small (min 16x6)")
    xs = [float(v) for v in x]
    if len(xs) < 2:
        raise ValidationError("need at least two x points")
    all_y: list[list[float]] = []
    for name, ys in series.items():
        column = [float(v) for v in ys]
        if len(column) != len(xs):
            raise ValidationError(
                f"series {name!r} has {len(column)} points, x has {len(xs)}"
            )
        all_y.append(column)
    y_min = min(min(column) for column in all_y)
    y_max = max(max(column) for column in all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)

    # round() rounds half to even, as np.rint does, and each cell position
    # is the same sequence of double operations, so the canvas matches a
    # numpy rendering cell for cell
    canvas = [[" "] * width for _ in range(height)]
    cols = [round((v - x_min) / (x_max - x_min) * (width - 1)) for v in xs]
    for marker, column in zip(MARKERS, all_y):
        for c, y in zip(cols, column):
            r = round((y - y_min) / (y_max - y_min) * (height - 1))
            canvas[height - 1 - r][c] = marker

    left = [f"{y_max:10.2f} |", *(["           |"] * (height - 2)), f"{y_min:10.2f} |"]
    lines = [lab + "".join(row) for lab, row in zip(left, canvas)]
    lines.append("           +" + "-" * width)
    x_axis = f"{x_min:<12.3g}{' ' * max(0, width - 24)}{x_max:>12.3g}"
    lines.append("            " + x_axis)
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(MARKERS, series.keys())
    )
    lines.append(f"   legend: {legend}")
    if x_label or y_label:
        lines.append(f"   x: {x_label}   y: {y_label}")
    return "\n".join(lines)
