"""What each command imports: light commands stay off the solver stack.

Every check runs in a fresh interpreter, because this test process has
long since imported everything.  None of them measures time: they check
which modules got loaded.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
IMPORT_SET = ROOT / "scripts" / "import_set.py"


def _load_import_set():
    spec = importlib.util.spec_from_file_location("import_set", IMPORT_SET)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


import_set = _load_import_set()


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_env(), cwd=ROOT,
        timeout=300,
    )


def _modules_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: every builtin scenario, and one scenario JSON file
HIT_TARGETS = (
    "fig4",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "fem3d_power",
    "transient_spike",
    "nonlinear_hotspot",
    "case_study",
    "examples/custom_scenario.json",
)


class TestImportSet:
    def test_importing_the_cli_loads_no_heavy_module(self):
        modules = _modules_after("import repro.__main__")
        assert import_set.heavy_loaded(modules) == []
        assert "numpy" not in modules

    @pytest.mark.parametrize("argv", [["list"], ["--help"]])
    def test_light_commands_load_no_heavy_module(self, argv):
        proc = _python(str(IMPORT_SET), *argv)
        assert proc.returncode == 0, proc.stderr
        assert "import-set check" not in proc.stderr

    @pytest.mark.parametrize("target", HIT_TARGETS)
    def test_store_hit_run_loads_no_heavy_module(self, tmp_path, target):
        store = tmp_path / "store"
        fill = _python("-m", "repro", "run", target, "--fast", "--store", str(store))
        assert fill.returncode == 0, fill.stderr
        assert "] solved (key" in fill.stdout.split("\n", 1)[0]
        commands = [["run", target]]
        if target == "fig7":  # ``fig7`` is an alias of ``run fig7``: a hit either way
            commands.append(["fig7"])
        for command in commands:
            hit = _python(str(IMPORT_SET), *command, "--fast", "--store", str(store))
            assert hit.returncode == 0, hit.stderr
            assert "] served from run store (key" in hit.stdout.split("\n", 1)[0]
            # the same tables and plot either way
            assert hit.stdout.split("\n", 1)[1] == fill.stdout.split("\n", 1)[1]

    def test_only_a_transient_hit_may_load_numpy_and_its_trajectories(self):
        assert import_set.allowed_for(["run", "fig7"]) == ()
        assert import_set.allowed_for(["list"]) == ()
        allowed = import_set.allowed_for(["run", "transient_spike"])
        assert allowed == import_set.TRANSIENT_HIT_ALLOWED
        assert import_set.allowed_for(["run", "examples/transient_scenario.json"]) == allowed
        modules = [
            "numpy",
            "numpy.linalg",
            "repro.network",
            "repro.network.elements",
            "repro.network.trajectory",
            "repro.network.solve",
            "repro.perf.executors",
            "multiprocessing",
        ]
        assert import_set.heavy_loaded(modules, allowed=allowed) == [
            "multiprocessing",
            "repro.network.solve",
            "repro.perf.executors",
        ]
        assert import_set.heavy_loaded(modules) == sorted(modules)

    def test_the_check_sees_a_heavy_import(self):
        # the guard itself: a command that does load the stack is caught
        assert import_set.heavy_loaded(["scipy.sparse", "repro.fem", "repro.core"]) == [
            "repro.fem",
            "scipy.sparse",
        ]

    def test_a_cold_calibrating_run_never_loads_the_optimizer(self, tmp_path):
        store = tmp_path / "store"
        modules = _modules_after(
            "import runpy, sys\n"
            f"sys.argv = ['python -m repro', 'run', 'fig7', '--fast', '--store', {str(store)!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
        )
        assert "repro.calibration.fit" in modules  # the run did fit k1/k2
        assert "scipy.sparse.linalg" in modules  # ...on the solver stack
        assert import_set.never_loaded(modules) == []
        assert import_set.never_loaded(["scipy.optimize._lsq", "scipy.sparse"]) == [
            "scipy.optimize._lsq"
        ]

    def test_miss_path_still_loads_the_solvers(self):
        modules = _modules_after(
            "from repro.scenarios import run_scenario\n"
            "run_scenario('fig7', fast=True)"
        )
        assert "repro.scenarios.scheduler" in modules
        assert "scipy" in modules


#: third-party packages the code may import: exactly what the install step
#: of .github/workflows/ci.yml installs (ruff aside), so a new dependency
#: has to change both places together
SRC_DEPENDENCIES = frozenset({"numpy", "scipy"})
TEST_DEPENDENCIES = SRC_DEPENDENCIES | {"pytest", "hypothesis"}


def _foreign_imports(root: Path, allowed: frozenset[str]) -> list[str]:
    """``path: name`` for every absolute import under ``root`` of a package
    that is neither the standard library, ``repro`` nor in ``allowed``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro" and top not in allowed:
                    found.append(f"{path.relative_to(ROOT)}: {name}")
    return found


def _string_annotations(tree: ast.AST):
    """String annotations, in annotation positions or as subscript
    arguments (``tuple[Stack3D, "TSV | TSVCluster"]``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            holders = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holders = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            holders = [node.annotation]
        elif isinstance(node, ast.Subscript):
            holders = [node.slice]
        else:
            continue
        for holder in filter(None, holders):
            for sub in ast.walk(holder):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _unused_imports(root: Path) -> list[str]:
    """``path:line: name`` for every name imported under ``root`` and never
    referenced, skipping ``__init__.py`` re-exports and ``# noqa`` lines;
    ``__all__`` entries and string annotations count as references."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        imported: dict[str, int] = {}
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                if "# noqa" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                used.update(
                    e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
                )
        for text in _string_annotations(tree):
            try:
                expr = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        found += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    return found


class TestDependencies:
    """Static, not a ``sys.modules`` probe: site and numpy load packages
    (certifi, charset_normalizer) that no line of this project imports."""

    def test_src_imports_only_the_stdlib_numpy_and_scipy(self):
        assert _foreign_imports(ROOT / "src" / "repro", SRC_DEPENDENCIES) == []

    def test_tests_import_only_what_ci_installs(self):
        assert _foreign_imports(ROOT / "tests", TEST_DEPENDENCIES) == []

    def test_scripts_import_only_the_stdlib_numpy_and_scipy(self):
        assert _foreign_imports(ROOT / "scripts", SRC_DEPENDENCIES) == []

    @pytest.mark.parametrize("tree", ["src", "tests", "scripts"])
    def test_every_import_is_used(self, tree):
        # the check ruff's F401 makes in CI, for machines without ruff
        assert _unused_imports(ROOT / tree) == []


class TestNameShadowing:
    """A package re-exporting a function under its submodule's name keeps the function."""

    @pytest.mark.parametrize(
        "package, name",
        [
            ("repro.perf", "stats"),
            ("repro.analysis", "ascii_plot"),
            ("repro.analysis", "sensitivity"),
        ],
    )
    def test_importing_the_submodule_first_keeps_the_function(self, package, name):
        code = (
            f"import importlib, types\n"
            f"importlib.import_module('{package}.{name}')\n"
            f"import {package} as pkg\n"
            f"value = getattr(pkg, '{name}')\n"
            f"assert not isinstance(value, types.ModuleType), value\n"
            f"assert callable(value) and value.__name__ == '{name}', value\n"
        )
        _modules_after(code)

    def test_perf_stats_reports_every_cache_in_a_fresh_process(self):
        code = (
            "from repro import perf\n"
            "snapshot = perf.stats()\n"
            "assert snapshot == {'counters': {}}, snapshot\n"
        )
        _modules_after(code)


def test_paper_aliases_are_registered_scenarios():
    from repro.__main__ import _PAPER_ALIASES
    from repro.scenarios import SCENARIOS

    assert all(alias in SCENARIOS for alias in _PAPER_ALIASES)


def test_lazy_packages_keep_their_public_names():
    import repro
    from repro import analysis, core, experiments, network, perf, resistances, scenarios

    for package in (repro, analysis, core, experiments, network, perf, resistances, scenarios):
        for name in package.__all__:
            assert getattr(package, name) is not None, f"{package.__name__}.{name}"
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")
