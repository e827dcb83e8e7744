"""Liner-thickness design study (the Fig. 5 scenario, as a user would run it).

A process engineer can trade liner thickness (stress/reliability) against
thermal performance.  This example sweeps the liner from 0.5 to 3 µm,
prints the ΔT table and ASCII figure, quantifies how badly the traditional
1-D model misses the trend, and exports the raw series to CSV.

Run:  python examples/liner_design.py
"""

from repro.analysis import ascii_plot, export_series_csv
from repro.scenarios import AxisSpec, GeometryParams, ScenarioSpec, run_scenario


def main() -> None:
    liners_um = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    spec = ScenarioSpec(
        scenario_id="liner_design",
        title="Liner-thickness design study",
        axis=AxisSpec(parameter="liner_um", values=tuple(liners_um)),
        geometry=GeometryParams(t_si_upper_um=45.0, t_ild_um=7.0, t_bond_um=1.0),
        models=("a", "b:100", "1d"),
        reference="fem:medium",
        calibrate=False,
    )
    result = run_scenario(spec).result

    series = result.series
    print(ascii_plot(liners_um, series, x_label="liner thickness [um]",
                     y_label="max ΔT [°C]"))
    print()

    fem = series["fem"]
    spread = (max(fem) - min(fem)) / min(fem) * 100.0
    print(f"FEM ΔT spread across the liner range: {spread:.1f} % "
          f"({max(fem) - min(fem):.1f} °C)  [paper: up to 11 %, ≈ 4 °C]")
    for name in ("model_a", "model_b(100)", "model_1d"):
        err = result.errors[name]
        print(f"{name:>13}: avg {err.avg_error * 100.0:.1f} % / "
              f"max {err.max_error * 100.0:.1f} % vs FEM")

    path = export_series_csv(
        "examples/output/liner_design.csv", "liner_um", liners_um, series
    )
    print(f"\nraw series written to {path}")


if __name__ == "__main__":
    main()
