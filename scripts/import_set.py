"""Fail when a light ``python -m repro`` command loads the solver stack.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/import_set.py run fig7 --fast --store DIR

Runs the command in this process exactly as ``python -m repro <args>``
would and passes its output through.  Afterwards it lists on stderr every
module of :data:`HEAVY_MODULES` the command loaded.  The exit code is 1
when there is any, otherwise the command's own exit code.  A store-hit
``run``, ``list`` and ``--help`` must load none of them: they read JSON
and print tables, and the solver stack (scipy, networkx, the FEM and
calibration code, the plan compiler and scheduler, the fleet) is what
made them slow.
"""

from __future__ import annotations

import runpy
import sys

#: modules (and their submodules) no light command may load
HEAVY_MODULES = (
    "scipy",
    "networkx",
    "repro.fem",
    "repro.calibration",
    "repro.perf.cache",
    "repro.network.solve",
    "repro.network.circuit",
    "repro.network.graph",
    "repro.scenarios.plan",
    "repro.scenarios.scheduler",
    "repro.scenarios.physics",
    "repro.scenarios.fleet",
    "repro.scenarios.supervisor",
    "repro.scenarios.fsck",
)


def heavy_loaded(modules) -> list[str]:
    """The names in ``modules`` that are, or live under, a heavy module."""
    return sorted(
        name
        for name in modules
        if any(name == heavy or name.startswith(heavy + ".") for heavy in HEAVY_MODULES)
    )


def main(argv: list[str]) -> int:
    sys.argv = ["python -m repro", *argv]
    code: int | str | None = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    loaded = heavy_loaded(sys.modules)
    if loaded:
        print(f"import-set check: the command loaded {', '.join(loaded)}", file=sys.stderr)
        return 1
    if isinstance(code, str):  # SystemExit("message"), as the interpreter prints it
        print(code, file=sys.stderr)
        return 1
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
