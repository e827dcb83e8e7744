"""Error metrics between model series and a reference series.

The paper reports "maximum difference (absolute value)" and "average
difference" of each model's ΔT against FEM over a sweep (e.g. Table I);
:func:`series_errors` computes exactly those.

The functions import numpy when they run: a stored run reads
:class:`ErrorMetrics` back without it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ValidationError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, slots=True)
class ErrorMetrics:
    """Relative error statistics of a series against a reference."""

    max_error: float  # max |rel. error|
    avg_error: float  # mean |rel. error|
    rms_error: float
    signed_mean: float  # mean rel. error (sign shows over/underestimation)

    def as_percentages(self) -> dict[str, float]:
        """The metrics in percent, for reports."""
        return {
            "max_%": self.max_error * 100.0,
            "avg_%": self.avg_error * 100.0,
            "rms_%": self.rms_error * 100.0,
            "signed_mean_%": self.signed_mean * 100.0,
        }


def relative_errors(
    series: Sequence[float], reference: Sequence[float]
) -> np.ndarray:
    """Pointwise (series − reference)/reference."""
    import numpy as np

    s = np.asarray(series, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if s.shape != ref.shape:
        raise ValidationError(
            f"series ({s.shape}) and reference ({ref.shape}) lengths differ"
        )
    if s.size == 0:
        raise ValidationError("empty series")
    if np.any(ref == 0.0):
        raise ValidationError("reference contains zeros; relative error undefined")
    return (s - ref) / ref


def series_errors(
    series: Sequence[float], reference: Sequence[float]
) -> ErrorMetrics:
    """The paper's max/avg |relative error| plus RMS and signed mean."""
    import numpy as np

    err = relative_errors(series, reference)
    return ErrorMetrics(
        max_error=float(np.max(np.abs(err))),
        avg_error=float(np.mean(np.abs(err))),
        rms_error=float(np.sqrt(np.mean(err**2))),
        signed_mean=float(np.mean(err)),
    )


def crossover_points(
    values: Sequence[float], series: Sequence[float]
) -> list[float]:
    """Interpolated x-positions where a series changes slope sign.

    Used to locate the Fig. 6 minimum (ΔT vs substrate thickness is
    non-monotonic); returns an empty list for monotonic series.
    """
    import numpy as np

    x = np.asarray(values, dtype=float)
    y = np.asarray(series, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise ValidationError("need at least three matched points")
    slopes = np.diff(y)
    out: list[float] = []
    for i in range(slopes.size - 1):
        if slopes[i] == 0.0:
            out.append(float(x[i + 1]))
        elif slopes[i] * slopes[i + 1] < 0.0:
            # slope crosses zero between segment midpoints — linear estimate
            m0 = 0.5 * (x[i] + x[i + 1])
            m1 = 0.5 * (x[i + 1] + x[i + 2])
            t = slopes[i] / (slopes[i] - slopes[i + 1])
            out.append(float(m0 + t * (m1 - m0)))
    return out


def is_monotonic(series: Sequence[float], *, increasing: bool) -> bool:
    """Weak monotonicity check used by shape assertions in experiments."""
    import numpy as np

    y = np.asarray(series, dtype=float)
    if y.size < 2:
        raise ValidationError("need at least two points")
    d = np.diff(y)
    return bool(np.all(d >= 0.0) if increasing else np.all(d <= 0.0))
