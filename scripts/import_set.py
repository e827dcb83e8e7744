"""Fail when a light ``python -m repro`` command loads more than it prints.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/import_set.py run fig7 --fast --store DIR

Runs the command in this process exactly as ``python -m repro <args>``
would and passes its output through.  Afterwards it lists on stderr every
module of :data:`HEAVY_MODULES` and :data:`HIT_PATH_MODULES` the command
loaded.  The exit code is 1 when there is any, otherwise the command's own
exit code.  A store-hit ``run``, ``list`` and ``--help`` must load none of
them: a hit parses the spec, derives the key, reads one JSON file and
prints tables.  The solver stack (scipy, the FEM and calibration code,
the plan compiler and scheduler, the fleet) is what made them slow;
numpy, the process-pool machinery and the sweep harness are what is left
of that start-up cost.

One exception: a store hit of a transient scenario loads its trajectories
back as numpy arrays, so it may load :data:`TRANSIENT_HIT_ALLOWED`.

:data:`NEVER_MODULES` holds what no command loads at all, cold solving
runs included; ``tests/test_imports.py`` checks a cold calibrating run
against it with :func:`never_loaded`.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

#: modules (and their submodules) no light command may load
HEAVY_MODULES = (
    "scipy",
    "repro.fem",
    "repro.calibration",
    "repro.network.solve",
    "repro.network.circuit",
    "repro.scenarios.plan",
    "repro.scenarios.scheduler",
    "repro.scenarios.physics",
    "repro.scenarios.fleet",
    "repro.scenarios.supervisor",
    "repro.scenarios.fsck",
)

#: modules (and their submodules) a store hit, ``list`` and ``--help`` do
#: not use either, on top of :data:`HEAVY_MODULES`
HIT_PATH_MODULES = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.perf.executors",
    "repro.network",
    "repro.experiments.harness",
)

#: modules (and their submodules) no command may load, not even a cold
#: solving run: the calibration fit is a numpy Levenberg–Marquardt
NEVER_MODULES = ("scipy.optimize",)

#: what a transient store hit may load of the two sets: numpy and the
#: trajectory container with its node types (plus their parent packages)
TRANSIENT_HIT_ALLOWED = ("numpy", "repro.network.trajectory", "repro.network.elements")


def _under(name: str, prefixes) -> bool:
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


def never_loaded(modules) -> list[str]:
    """The names in ``modules`` that are, or live under, :data:`NEVER_MODULES`."""
    return sorted(name for name in modules if _under(name, NEVER_MODULES))


def heavy_loaded(modules, *, allowed=()) -> list[str]:
    """The names in ``modules`` a light command must not load.

    A name counts when it is, or lives under, a module of
    :data:`HEAVY_MODULES` or :data:`HIT_PATH_MODULES`, and is neither
    under a module of ``allowed`` nor a parent package of one.
    """
    return sorted(
        name
        for name in modules
        if _under(name, HEAVY_MODULES + HIT_PATH_MODULES)
        and not _under(name, allowed)
        and not any(module.startswith(name + ".") for module in allowed)
    )


def allowed_for(argv: list[str]) -> tuple[str, ...]:
    """:data:`TRANSIENT_HIT_ALLOWED` for a ``run`` of a transient spec, else none.

    Called after the command ran, so the registry and the spec loader are
    already imported.
    """
    if argv[:1] != ["run"] or len(argv) < 2:
        return ()
    from repro.scenarios import SCENARIOS, ScenarioSpec

    target = argv[1]
    if target in SCENARIOS:
        spec = SCENARIOS.get(target)
    elif Path(target).is_file():
        spec = ScenarioSpec.load(Path(target))
    else:
        return ()
    return TRANSIENT_HIT_ALLOWED if spec.kind == "transient" else ()


def main(argv: list[str]) -> int:
    sys.argv = ["python -m repro", *argv]
    code: int | str | None = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    loaded = heavy_loaded(sys.modules, allowed=allowed_for(argv))
    if loaded:
        # name a package once, not each of its submodules
        roots = [name for name in loaded if not any(name.startswith(o + ".") for o in loaded)]
        print(f"import-set check: the command loaded {', '.join(roots)}", file=sys.stderr)
        return 1
    if isinstance(code, str):  # SystemExit("message"), as the interpreter prints it
        print(code, file=sys.stderr)
        return 1
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
