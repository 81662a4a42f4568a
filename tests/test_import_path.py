"""The package imports without scipy; the tests keep scipy as their oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["quasilocal", "quasilocal.cli"])
def test_import_leaves_scipy_out(module):
    code = (
        f"import {module}, sys; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"
