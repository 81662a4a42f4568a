"""Names looked up by attribute at run time resolve in the package.

``bench/tracing.py`` finds each traced layer by module and attribute name,
so deleting or renaming one of them makes every traced benchmark run stop
with AttributeError; each ``__all__`` promises names to star-importers.
A module imports no name it never reads, so a deletion leaves no dead import.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import quasilocal

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"quasilocal.{name}")


SOURCES = sorted(Path(quasilocal.__file__).parent.glob("*.py"))
TRACED = _tracing()
MODULES_WITH_ALL = [
    info.name for info in pkgutil.iter_modules(quasilocal.__path__)
    if hasattr(_module(info.name), "__all__")
]


@pytest.mark.parametrize("span", sorted(TRACED._FUNCTIONS))
def test_traced_function_resolves(span):
    module, attr = TRACED._FUNCTIONS[span]
    assert callable(getattr(_module(module), attr))


@pytest.mark.parametrize("span", sorted(TRACED._METHODS))
def test_traced_method_is_defined_on_its_class(span):
    for module, cls_name, attr in TRACED._METHODS[span]:
        assert attr in vars(getattr(_module(module), cls_name))


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_all_names_resolve(name):
    module = _module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _unread_imports(source: str) -> list[str]:
    """Names a module binds by import (``from __future__`` aside) and never loads."""
    nodes = list(ast.walk(ast.parse(source)))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_unread_import_is_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + sep\n"
    assert _unread_imports(source) == ["math", "path"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_reads_every_name_it_imports(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

# one fast run per traced subcommand: shipped scenarios, scaled down
TRACED_RUNS = {
    "radial": ("radial_profile", ["numerics.radial_samples=60"]),
    "sweep": ("axial_sweep", ["numerics.l_max=8"]),
    "geometry": (
        "geometry_axial",
        ["numerics.geometry_resolution=32", "geometry.gauss_bonnet_tol=1e-6"],
    ),
    "loop": ("loop_equator", ["loop.field=rho_bracket"]),
}


@pytest.mark.parametrize("command", sorted(TRACED_RUNS))
def test_traced_cli_run_reads_what_it_counts(command, tmp_path):
    # the tracer reads attributes of the traced results (a report's n_phi,
    # a solution's rstar), which the name checks above do not see
    from quasilocal import cli

    scenario, overrides = TRACED_RUNS[command]
    argv = [command, "--config", str(SCENARIOS / f"{scenario}.json"), "--out", str(tmp_path)]
    for pair in overrides:
        argv += ["--set", pair]
    trace = TRACED.Trace()
    assert trace.call(cli.main, argv) == 0
    assert trace.metrics()["traced_wall_s"] > 0.0
