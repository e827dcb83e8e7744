"""Quickstart: analyse one thermal TSV in a three-plane 3-D IC.

Builds the paper's standard 100 µm × 100 µm block, solves it with all
three analytical models plus the finite-volume reference, and shows what
the library reports: each model's maximum rise, unknown count and solve
time, and its error against the detailed solve.

Run:  python examples/quickstart.py
"""

from repro import Model1D, ModelA, ModelB, PowerSpec, paper_stack, paper_tsv, perf
from repro.analysis import format_kv_block, format_table
from repro.fem import FEMReference
from repro.units import um


def main() -> None:
    # 1. describe the structure: three planes, 45 um upper substrates,
    #    7 um ILDs, 1 um polyimide bonds (the paper's Fig. 5 block)
    stack = paper_stack(t_si_upper=um(45), t_ild=um(7), t_bond=um(1))
    via = paper_tsv(radius=um(5), liner_thickness=um(1))
    power = PowerSpec()  # 700 W/mm^3 devices + 70 W/mm^3 interconnect Joule heat

    print(format_kv_block(
        "Structure",
        {
            "planes": stack.n_planes,
            "footprint": f"{stack.footprint_side * 1e6:.0f} um square",
            "via radius": f"{via.radius * 1e6:.1f} um",
            "liner": f"{via.liner_thickness * 1e6:.1f} um SiO2",
            "total heat": f"{power.total_heat(stack) * 1e3:.2f} mW",
        },
    ))
    print()

    # 2. solve with every model
    models = [ModelA(), ModelB(100), Model1D(), FEMReference("medium")]
    results = {m.name: m.solve(stack, via, power) for m in models}
    rows = [["model", "max ΔT [°C]", "abs max T [°C]", "unknowns", "time [ms]"]]
    for name, r in results.items():
        rows.append([name, r.max_rise, r.max_temperature, r.n_unknowns,
                     r.solve_time * 1e3])
    print(format_table(rows))
    print()

    # 3. error against the detailed reference
    fem = results["fem"].max_rise
    for name in ("model_a", "model_b(100)", "model_1d"):
        err = (results[name].max_rise - fem) / fem * 100.0
        print(f"{name:>13}: {err:+.1f} % vs FEM")
    print()

    # 4. performance: a repeated FEM solve voxelises and factors its
    #    matrix again; the process keeps no grid or factor between solves
    #    (sweeps add process-parallelism via
    #    `python -m repro run fig7 --jobs 4`; the README's Performance
    #    sections say how speed is measured)
    FEMReference("medium").solve(stack, via, power)
    factors = perf.stats()["counters"].get("sparse_factorizations", 0)
    print("after a repeated FEM solve:")
    print(f"  sparse factorizations: {factors}")

if __name__ == "__main__":
    main()
