"""Sources and spectral solve of the linearized optimal embedding equations.

The two elliptic equations on the unit sphere are

    Delta(Delta + 2) tau = [-A'' (1 - z1^2) + 6 A' z1 + 12 A] z2 z3
    (Delta + 2) N        = [A'' - 2 A' z1 + 4 A] z2 z3

with A, A', A'' evaluated at the radius induced on the sphere by the
center-distance substitution.  Both operators are singular on low degrees
(l <= 1 for the first, l = 1 for the second); kernel components of the
sources are projected out and reported as diagnostics, never inverted, so
the returned (tau, N) are the minimal-L2-norm solutions.  Since z2 z3 =
(1/2) sin^2(theta) sin(2 phi), the sources, tau and N lie in the one sine
m = 2 column; ``build_sources`` sums it from the Gauss rows, building no grid.

The direction-dependent constant C_ell(theta_d) and the mode amplitude are
deliberately excluded from the sources; energy assembly reattaches them
through an explicit c_factor, keeping scaling checks exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError, SolvabilityWarning
from .radial import AProfile
from .sphere import HarmonicField, _eigenvalues, _grid_rule, _legendre_table

__all__ = [
    "EmbeddingSolution",
    "SurfaceSpec",
    "build_sources",
    "radius_on_sphere",
    "solve_embedding",
]

KERNEL_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SurfaceSpec:
    """Unit sphere at Schwarzschild time t, center distance d, direction angles.

    ``substitution`` selects how r^2 is expressed through z1 on the sphere:
    "exact" uses the geometric identity r^2 = d^2 + 2 d z1 + 1, "paper" the
    dimensionally inconsistent but documented variant r^2 = d^2 + 2 z1 + 1
    (subleading difference in 1/d).
    """

    t: float = 0.0
    d: float = 100.0
    theta_d: float = math.pi / 2.0
    phi_d: float = 0.0
    substitution: str = "exact"

    def __post_init__(self):
        if self.substitution not in ("exact", "paper"):
            raise DomainError(
                f"substitution must be 'exact' or 'paper', got {self.substitution!r}"
            )
        if self.d <= 1.0:
            raise DomainError(f"center distance must exceed 1, got {self.d}")

    def validate_outside_horizon(self, bg) -> None:
        if self.d <= bg.horizon + 1.0:
            raise DomainError(
                f"surface (d={self.d}) must lie outside the horizon: need d > {bg.horizon + 1.0}"
            )


def radius_on_sphere(spec: SurfaceSpec, z1) -> np.ndarray:
    """Radius at sphere points with z1 = cos(angle from the center direction)."""
    z1 = np.asarray(z1, dtype=float)
    if spec.substitution == "exact":
        return np.sqrt(spec.d**2 + 2.0 * spec.d * z1 + 1.0)
    return np.sqrt(spec.d**2 + 2.0 * z1 + 1.0)


def radius_range(spec: SurfaceSpec) -> tuple[float, float]:
    """Radii induced at z1 = -1 and z1 = +1 (the coverage an AProfile needs)."""
    lo = float(radius_on_sphere(spec, -1.0))
    hi = float(radius_on_sphere(spec, 1.0))
    return lo, hi


def _source_rule(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z1, weight, Ybar_l2) of the sources' l_max + 1 Gauss rows; none below l_max 2.

    weight_j = (pi/2) w_j sin^2(theta_j); Ybar_l2 has one row per degree
    l = 2..l_max.  A sweep builds it once for all its surfaces.
    """
    if l_max < 2:
        return np.empty(0), np.empty(0), np.empty((0, 0))
    z1, w = _grid_rule(l_max + 1)
    ybar_l2 = np.sqrt(2.0) * _legendre_table(l_max, np.arccos(z1), 2, 2)[2:, 0]
    return z1, 0.5 * np.pi * w * (1.0 - z1) * (1.0 + z1), ybar_l2


def _row_profiles(z1, av, apv, appv) -> tuple[np.ndarray, np.ndarray]:
    """The factors of z2 z3 in (S_tau, S_N) where cos(theta) = z1, from A, A' and A'' there."""
    return -appv * (1.0 - z1**2) + 6.0 * apv * z1 + 12.0 * av, appv - 2.0 * apv * z1 + 4.0 * av


def _sources(l_max: int, rule, rows) -> tuple[HarmonicField, HarmonicField]:
    """(S_tau, S_N) from ``rows`` = (A, A', A'') at the rows of ``rule = _source_rule(l_max)``.

    s_l = sum_j weight_j p(z1_j) Ybar_l2(theta_j) for each ``_row_profiles`` factor p.
    """
    sources = HarmonicField.zeros(l_max), HarmonicField.zeros(l_max)
    if l_max < 2:
        return sources
    z1, weight, ybar_l2 = rule
    for h, profile in zip(sources, _row_profiles(z1, *rows)):
        h.coeffs[2:, l_max - 2] = ybar_l2 @ (weight * profile)
    return sources


def build_sources(a: AProfile, spec: SurfaceSpec, l_max: int) -> tuple[HarmonicField, HarmonicField]:
    """Right-hand sides (S_tau, S_N) as harmonic coefficients up to degree ``l_max``.

    A source is p(z1) z2 z3 = (1/2) p(cos theta) sin^2(theta) sin(2 phi), so it
    lies in the sine m = 2 column, ``coeffs[:, l_max - 2]``; every other entry
    is +0.0.  Its phi integral is pi/2 and its theta integral the Gauss rule
    on the l_max + 1 rows of ``SphereGrid.for_band_limit(l_max)``:
        s_l = (pi/2) sum_j w_j p(z1_j) sin^2(theta_j) Ybar_l2(theta_j),
    which is ``analyze`` of the sources sampled on that grid, without the
    grid.  A, A' and A'' are evaluated once per row.
    """
    lo, hi = radius_range(spec)
    if lo < a.r_min - 1e-9 or hi > a.r_max + 1e-9:
        raise CoverageError(
            f"surface needs A(r) on [{lo}, {hi}] but profile covers "
            f"[{a.r_min}, {a.r_max}]"
        )
    rule = _source_rule(l_max)
    r = radius_on_sphere(spec, rule[0])
    return _sources(l_max, rule, (a.a(r), a.a_prime(r), a.a_double_prime(r)))


@dataclass(frozen=True)
class EmbeddingSolution:
    """Minimal-norm (tau, N) plus kernel-mode diagnostics of the sources."""

    tau: HarmonicField
    n_field: HarmonicField
    kernel_residual_tau: dict = field(default_factory=dict)
    kernel_residual_n: float = 0.0

    @property
    def l_max(self) -> int:
        return self.tau.l_max


def solve_embedding(h_tau: HarmonicField, h_n: HarmonicField) -> EmbeddingSolution:
    """Spectral division by the operator eigenvalues, kernel projected out.

    tau_(l,m) = s_(l,m) / [l(l+1)(l(l+1)-2)] for l >= 2 and zero on l <= 1;
    N_(l,m) = s_(l,m) / [2 - l(l+1)] for l != 1 and zero on l = 1.  A +0.0
    source entry gives +0.0, not the -0.0 of a negative divisor.  Kernel
    magnitudes above KERNEL_TOLERANCE x source norm trigger a
    SolvabilityWarning (an inconsistent source, e.g. one with a z1 component).
    Sources from ``build_sources`` have none by construction; any fields of
    one band limit may be given.
    """
    L = h_tau.l_max

    tau = np.zeros_like(h_tau.coeffs)
    eig_tau = _eigenvalues("laplacian_laplacian_plus_2", L)
    tau[2:] = h_tau.coeffs[2:] / eig_tau[2:, None]
    res_tau = {0: h_tau.degree_norm(0), 1: h_tau.degree_norm(1)}

    nf = np.zeros_like(h_n.coeffs)
    eig_n = _eigenvalues("laplacian_plus_2", L)
    nf[0] = h_n.coeffs[0] / eig_n[0]
    nf[2:] = h_n.coeffs[2:] / eig_n[2:, None] + 0.0  # -0.0 + 0.0 is +0.0
    res_n = h_n.degree_norm(1)

    norm_tau = h_tau.norm()
    norm_n = h_n.norm()
    if norm_tau > 0 and max(res_tau.values()) > KERNEL_TOLERANCE * norm_tau:
        warnings.warn(
            f"tau source has kernel components {res_tau} above "
            f"{KERNEL_TOLERANCE} x norm {norm_tau}",
            SolvabilityWarning,
        )
    if norm_n > 0 and res_n > KERNEL_TOLERANCE * norm_n:
        warnings.warn(
            f"N source has an l=1 component {res_n} above "
            f"{KERNEL_TOLERANCE} x norm {norm_n}",
            SolvabilityWarning,
        )
    return EmbeddingSolution(
        tau=HarmonicField(L, tau),
        n_field=HarmonicField(L, nf),
        kernel_residual_tau=res_tau,
        kernel_residual_n=res_n,
    )
