"""The benchmark's workloads: one CLI subcommand each, configured from a seed.

A seed selects one of ``N_VARIANTS`` jittered variants of a workload, so that
every run can be checked against headline values recorded for that variant
in ``reference.json``.  The jitter moves input values (the d endpoints, the
t grid, the loop colatitude, the boundary amplitude) but never the amount of
work: grid sizes, sample counts and radial step counts are the same for
every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

N_VARIANTS = 8

_AXIAL_L2 = {"kind": "axial", "ell": 2, "sigma": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    _config: Callable[[random.Random], dict]

    def config(self, seed: int) -> dict:
        """The scenario config the CLI receives for this seed."""
        return self._config(random.Random(variant_of(seed)))


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _sweep_l16(rng: random.Random) -> dict:
    d_lo = 50.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
    d_hi = 400.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
    t0 = 0.1 * rng.random()
    half_period = math.pi / _AXIAL_L2["sigma"]
    return {
        "mode": {**_AXIAL_L2, "boundary": {"type": "surface_anchor", "z": 0.0, "dz": 1.0}},
        "surface": {
            "d": _geomspace(d_lo, d_hi, 4),
            "t": [t0 + half_period * i / 8 for i in range(9)],
        },
        "numerics": {"l_max": 16, "tolerance": 1e-10},
    }


def _loop_rho(rng: random.Random) -> dict:
    return {
        "mode": {**_AXIAL_L2, "boundary": {"type": "surface_anchor", "z": 0.0, "dz": 1.0}},
        "surface": {"d": [50.0], "t": [0.3]},
        "numerics": {"l_max": 24, "tolerance": 1e-10},
        "loop": {
            "kind": "circle",
            "theta0": 1.1 + 0.2 * rng.uniform(-1.0, 1.0),
            "n_samples": 512,
            "field": "rho_bracket",
        },
    }


def _geometry_r32(rng: random.Random) -> dict:
    # Only the interior d values move: the radial leg spans the d endpoints
    # and the anchor, so its step count stays fixed.
    return {
        "mode": {**_AXIAL_L2, "boundary": {"type": "anchor", "r": 25.0, "z": 0.0, "dz": 1.0}},
        "surface": {
            "d": [25.0, 30.0 + 3.0 * rng.uniform(-1.0, 1.0), 40.0 + 4.0 * rng.uniform(-1.0, 1.0), 60.0],
            "t": [0.9 + 0.1 * rng.uniform(-1.0, 1.0)],
        },
        "numerics": {"geometry_resolution": 32, "epsilon": 1e-3, "tolerance": 1e-10},
        "geometry": {"perturbation": "axial_preset", "gauss_bonnet_tol": 1e-6},
    }


def _radial_asym(rng: random.Random) -> dict:
    # Only the boundary amplitude is jittered; the start radius is set by the
    # tolerance alone.  The phase is left at 0: the integrated r drifts from
    # the exact tortoise map, and for about one phase in six the sample grid
    # then falls between the dense-output segments (CoverageError, exit 3).
    return {
        "mode": {**_AXIAL_L2, "boundary": {"type": "asymptotic", "amplitude": 2.0 ** rng.uniform(-1.0, 1.0)}},
        "surface": {"d": [50.0]},
        "numerics": {"radial_range": [20.0, 80.0], "radial_samples": 120, "tolerance": 1e-5},
    }


WORKLOADS = {
    w.name: w
    for w in (
        # Every workload is sized so that one call takes about 0.1 s: the
        # benchmark reports the fastest of some hundred calls, and on a
        # shared host only calls that short find a stretch of time free of
        # other tenants' load.
        #
        # The paper's falloff sweep, 4 d x 9 t.  energy_coefficients rebuilds
        # its 2L working grid for every d, so 8 SphereGrid builds for 2
        # distinct keys: the workload a spectral-table cache should speed up.
        Workload("sweep_l16", "sweep", _sweep_l16),
        # Each grid is built once, so a table cache cannot help; pointwise
        # evaluate and rho_bracket do the work.  The control workload for
        # any spectral-table change.
        Workload("loop_rho", "loop", _loop_rho),
        # surface_geometry over four d values (so that the Hawking fit runs)
        # and the anchored radial leg; the sphere layer is not used at all.
        Workload("geometry_r32", "geometry", _geometry_r32),
        # An asymptotic start at tolerance 1e-5 begins near r = 1,550, so
        # integrate_wave and residual_max take most of the call: where a
        # series start or a scipy-free integrator would show.
        Workload("radial_asym", "radial", _radial_asym),
    )
}
