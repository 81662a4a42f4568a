"""Shared fixtures: backgrounds, modes, cached radial solutions and grids."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir
from record_golden import run_cli

from quasilocal import (
    AnchorBoundary,
    AxialMode,
    BackgroundParams,
    SphereGrid,
    a_profile,
    integrate_wave,
)

# The property tests run with the example database off, but after collection
# the pytest plugin still caches the literals it mines from local source in
# its storage directory, by default ./.hypothesis; keep that cache out of the
# tree for every test module.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "quasilocal-hypothesis")


@pytest.fixture(scope="session")
def bg_flat():
    return BackgroundParams(m=0.0)


@pytest.fixture(scope="session")
def bg_unit():
    return BackgroundParams(m=1.0)


@pytest.fixture(scope="session")
def mode_l2():
    return AxialMode(ell=2, sigma=0.5)


@pytest.fixture(scope="session")
def grid16():
    return SphereGrid.for_band_limit(16)


@pytest.fixture(scope="session")
def axial_solution(bg_unit, mode_l2):
    """Reference axial solution anchored mid-range, covering r in [20, 80]."""
    return integrate_wave(
        bg_unit,
        mode_l2,
        AnchorBoundary(z=0.0, dz=1.0, r=30.0),
        (20.0, 80.0),
        tol=1e-12,
    )


@pytest.fixture(scope="session")
def axial_profile(axial_solution):
    return a_profile(axial_solution)


def random_harmonic(l_max: int, seed: int):
    """Seeded random coefficients over the full (l, m) range."""
    from quasilocal import HarmonicField

    rng = np.random.default_rng(seed)
    h = HarmonicField.zeros(l_max)
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            h.coeffs[l, l_max + m] = rng.normal()
    return h


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """(exit code, output directory) of a ``record_golden.RUNS`` run, run once a session.

    The shipped-scenario test and the golden test share these runs.
    """
    done = {}

    def get(run_id):
        if run_id not in done:
            out = tmp_path_factory.mktemp(run_id)
            done[run_id] = run_cli(run_id, out), out
        return done[run_id]

    return get
