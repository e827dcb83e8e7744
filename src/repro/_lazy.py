"""Import only what a command uses: lazy package exports and the solver preload.

Package ``__init__`` modules list their public names by defining submodule
and hand the table to :func:`lazy_exports`, which returns the PEP 562
module-level ``__getattr__`` / ``__dir__`` pair.  A name's submodule is
imported on first access and the value is cached in the package
namespace, so ``from repro import ModelA`` keeps working while ``import
repro`` loads nothing heavy.  A store-hit ``python -m repro run`` then
imports a few light modules and no numpy, scipy or solver (a transient
run's hit adds numpy for its trajectories).

One trap comes with laziness: importing a submodule binds it as an
attribute of its package.  A package that re-exports a function under its
own submodule's name (``repro.perf.stats``,
``repro.analysis.ascii_plot``, ``repro.analysis.sensitivity``) must
therefore import that submodule eagerly, so the function is bound after
the module and stays bound.  Those submodules are kept light for that
reason.

:func:`import_solver_stack` is for processes that fork workers (the
process pool of :class:`~repro.perf.ParallelExecutor` and
:func:`~repro.scenarios.fleet.run_fleet`): importing the solver stack
once before the fork lets every child share it, instead of each child
importing it again after the fork.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterable, Mapping
from typing import Any

#: the modules a solving process uses: plan compile and scheduling, every
#: model and solver back-end
SOLVER_STACK = (
    "repro.scenarios.scheduler",
    "repro.scenarios.plan",
    "repro.scenarios.physics",
    "repro.core.model_1d",
    "repro.core.model_a",
    "repro.core.model_b",
    "repro.core.nonlinear",
    "repro.network.solve",
    "repro.network.transient",
    "repro.fem",
    "repro.calibration",
)


def lazy_exports(
    package: str,
    namespace: dict[str, Any],
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` / ``__dir__`` pair of a lazily exporting package.

    ``exports`` maps a relative submodule (``".model_a"``) to the names it
    defines; ``submodules`` are names that are submodules themselves.  A
    resolved name is written into ``namespace`` (the package's
    ``globals()``), so each is looked up through ``__getattr__`` once.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    modules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name in modules:
            value = importlib.import_module(f".{name}", package)
        elif name in origin:
            value = getattr(importlib.import_module(origin[name], package), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin) | modules)

    return __getattr__, __dir__


def import_solver_stack() -> None:
    """Import :data:`SOLVER_STACK` (a no-op for what is already loaded)."""
    for name in SOLVER_STACK:
        importlib.import_module(name)
