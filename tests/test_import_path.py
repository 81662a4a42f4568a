"""The package imports numpy only; the tests keep scipy and jsonschema as oracles."""

import os
import subprocess
import sys
from pathlib import Path
from xml.sax import saxutils

import pytest

from quasilocal.svgplot import escape

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules(statement: str) -> set:
    """Names in sys.modules after ``statement`` in a fresh interpreter."""
    code = f"{statement}; import sys; print('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(proc.stdout.split())


@pytest.fixture(scope="module", params=["quasilocal", "quasilocal.cli"])
def imported(request):
    """Names in sys.modules after importing the module in a fresh interpreter."""
    return _modules(f"import {request.param}")


def test_import_leaves_scipy_out(imported):
    assert [m for m in imported if m == "scipy" or m.startswith("scipy.")] == []


def test_import_leaves_xml_sax_and_urllib_request_out(imported):
    # the SVG writer escapes its text itself
    assert not {"xml.sax", "xml.sax.saxutils", "urllib.request"} & imported


def test_import_adds_only_stdlib_and_numpy(imported):
    # against a bare interpreter, so that modules site's .pth files import do not count
    added = {name.partition(".")[0] for name in imported - _modules("pass")}
    assert added - set(sys.stdlib_module_names) <= {"numpy", "quasilocal"}


def test_svg_escape_matches_saxutils():
    text = "a&b<c>d\"e'f"
    assert escape(text) == saxutils.escape(text) == "a&amp;b&lt;c&gt;d\"e'f"
