"""Generic thermal resistance network substrate.

Model A, Model B and the 1-D baseline are all assembled as
:class:`ThermalCircuit` instances and solved through the same KCL stamping
machinery the paper's Eqs. (1)–(6) and (17)–(19) describe.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".circuit": ("NetworkSolution", "ThermalCircuit"),
        ".elements": ("GROUND", "Capacitor", "HeatSource", "Resistor"),
        ".trajectory": ("TransientResult",),
        ".transient": (
            "pulse_train_scales",
            "step_response",
            "time_constants",
            "transient_lhs",
        ),
    },
)

__all__ = [
    "GROUND",
    "Resistor",
    "HeatSource",
    "Capacitor",
    "ThermalCircuit",
    "NetworkSolution",
    "TransientResult",
    "pulse_train_scales",
    "step_response",
    "time_constants",
    "transient_lhs",
]
