"""Names looked up by attribute at run time resolve in the package.

``bench/tracing.py`` finds each traced layer by module and attribute name,
so deleting or renaming one of them makes every traced benchmark run stop
with AttributeError; each ``__all__`` promises names to star-importers.
"""

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
