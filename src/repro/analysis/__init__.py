"""Analysis: error metrics, sensitivities, tables, plots, export."""

from .._lazy import lazy_exports

# eager: these functions share their submodules' names (see repro._lazy)
from .ascii_plot import ascii_plot
from .sensitivity import Sensitivity, sensitivity, sensitivity_table

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".export": ("export_json", "export_series_csv", "read_series_csv"),
        ".metrics": (
            "ErrorMetrics",
            "crossover_points",
            "is_monotonic",
            "relative_errors",
            "series_errors",
        ),
        ".report": ("format_kv_block", "format_series_table", "format_table"),
    },
)

__all__ = [
    "ErrorMetrics",
    "series_errors",
    "relative_errors",
    "crossover_points",
    "is_monotonic",
    "format_table",
    "format_series_table",
    "format_kv_block",
    "ascii_plot",
    "export_series_csv",
    "export_json",
    "read_series_csv",
    "Sensitivity",
    "sensitivity",
    "sensitivity_table",
]
