"""Tortoise coordinate, radial wave potentials, integration, and A(r).

Geometrized units (G = c = 1) throughout; lengths scale with the black-hole
mass m.  The flat limit m = 0 is allowed everywhere and used as the analytic
oracle (spherical Bessel solutions).

The wave equation Z'' = (V(r) - sigma^2) Z is solved in the tortoise
coordinate r*, and dZ/dr is always derived from Z' = dZ/dr* through the
exact Jacobian r/(r - 2m), never by differencing samples.

Anchored data (AnchorBoundary, SurfaceAnchorBoundary) is solved by
Chebyshev spectral elements in integral form (Greengard, SIAM J. Numer.
Anal. 28, 1071 (1991)).  On an element with N + 1 Chebyshev points,
half-width h and data (c0, c1) at its start a, Z = c0 + c1 (t - a) + h^2 S S
(q Z) with q = V - sigma^2 and S the cumulative integral from a, and Z' = c1
+ h S (q Z): nothing is differentiated.  Each element's two unit solutions give a
2 x 2 transfer matrix, and a chain of them carries the anchor data outward.
r at the nodes comes from the closed-form tortoise map, so r is no state.
Every element of every anchor goes through one batched linear solve, and
dense output is the barycentric formula on the element's points (Berrut &
Trefethen, SIAM Rev. 46, 501 (2004)).

An asymptotic start is one descending leg of the package's own DOP853
(``_dop853``), bitwise scipy's ``solve_ivp``, in the state (Z, Z', r) with
dr/dr* = 1 - 2m/r carried as an auxiliary; its right-hand side takes and
returns Python floats, as that stepper asks.

``AProfile.values`` gives A, A' and A'' from one dense-output pass;
``eval_r`` keeps nothing between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._dop853 import dop853
from .errors import CoverageError, DomainError, IntegrationError

__all__ = [
    "AnchorBoundary",
    "AProfile",
    "AsymptoticBoundary",
    "AxialMode",
    "BackgroundParams",
    "PolarMode",
    "RadialSolution",
    "RadialStack",
    "SurfaceAnchorBoundary",
    "a_profile",
    "integrate_wave",
    "inverse_tortoise",
    "potential",
    "potential_axial",
    "potential_polar",
    "radial_coverage",
    "solve_radial",
    "solve_surfaces",
    "tortoise",
]


@dataclass(frozen=True)
class BackgroundParams:
    """Schwarzschild background; m = 0 gives the flat-space limit."""

    m: float = 1.0

    def __post_init__(self):
        if self.m < 0:
            raise DomainError(f"mass must be nonnegative, got {self.m}")

    @property
    def horizon(self) -> float:
        return 2.0 * self.m


@dataclass(frozen=True)
class AxialMode:
    """Odd-parity mode: multipole ell, separation constant mu^2, frequency."""

    ell: int = 2
    sigma: float = 0.5
    mu_sq: float | None = None
    amplitude: float = 1.0
    kind: str = field(default="axial", init=False)

    def __post_init__(self):
        if self.ell < 2:
            raise DomainError(f"multipole must be >= 2, got {self.ell}")
        if self.sigma <= 0:
            raise DomainError(f"frequency must be positive, got {self.sigma}")
        if self.mu_sq is None:
            object.__setattr__(self, "mu_sq", float((self.ell - 1) * (self.ell + 2)))
        if self.mu_sq <= 0:
            raise DomainError(f"mu^2 must be positive, got {self.mu_sq}")


@dataclass(frozen=True)
class PolarMode:
    """Even-parity mode: separation constant n and frequency sigma."""

    n: float = 2.0
    sigma: float = 0.5
    amplitude: float = 1.0
    kind: str = field(default="polar", init=False)

    def __post_init__(self):
        if self.n <= 0:
            raise DomainError(f"n must be positive, got {self.n}")
        if self.sigma <= 0:
            raise DomainError(f"frequency must be positive, got {self.sigma}")

    @classmethod
    def from_multipole(cls, ell: int, sigma: float, amplitude: float = 1.0) -> "PolarMode":
        """n = (ell-1)(ell+2)/2, the multipole correspondence n = mu^2/2."""
        if ell < 2:
            raise DomainError(f"multipole must be >= 2, got {ell}")
        return cls(n=(ell - 1) * (ell + 2) / 2.0, sigma=sigma, amplitude=amplitude)


def tortoise(r, bg: BackgroundParams):
    """r* = r + 2m ln(r/2m - 1); identity for m = 0."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= bg.horizon):
        raise DomainError(f"radius must exceed the horizon {bg.horizon}")
    if bg.m == 0.0:
        out = r_arr.copy()
    else:
        out = r_arr + bg.horizon * np.log(r_arr / bg.horizon - 1.0)
    return float(out) if np.isscalar(r) else out


def inverse_tortoise(r_star, bg: BackgroundParams):
    """Invert the tortoise map by safeguarded Newton iteration, to 1e-13 relative.

    Seeds: r* - 2m after one fixed-point step of delta = r* - 2m - 2m
    ln(delta/2m) far out, 2m(1 + exp((r* - 2m)/2m)) near the horizon.  The
    iteration runs in delta = r - 2m so that proximities below machine
    resolution of r itself stay representable; the returned r saturates one
    ulp outside the horizon in that regime.  Every point of an array goes
    through one iteration and keeps the iterate at which it converged; a
    scalar or 0-d r* gives a float.
    """
    r_star = np.asarray(r_star, dtype=float)
    if bg.m == 0.0:
        return float(r_star) if r_star.ndim == 0 else r_star.copy()
    two_m = bg.horizon
    c = r_star - two_m
    # where r* > 4m, delta = r* - 2m after one fixed-point step; nearer, the horizon seed
    far = r_star > 2.0 * two_m
    delta = c - two_m * np.log(np.maximum(c, two_m) / two_m)
    if not far.all():
        delta = np.where(far, delta, two_m * np.exp(np.clip(c / two_m, -700.0, 1.0)))
    done = np.zeros(r_star.shape, dtype=bool)
    for _ in range(50):
        step = (delta + two_m * np.log(delta / two_m) - c) * delta / (delta + two_m)  # f / (dr*/dr)
        delta_new = delta - step
        if (delta_new <= 0.0).any():
            delta_new = np.where(delta_new <= 0.0, 0.5 * delta, delta_new)
        converged = np.abs(step) <= 1e-13 * (delta_new + two_m)
        delta = np.where(done, delta, delta_new)
        done |= converged
        if done.all():
            r = two_m + delta
            r = np.where(r > two_m, r, math.nextafter(two_m, math.inf))
            return float(r) if r.ndim == 0 else r
    raise IntegrationError(
        f"tortoise inversion did not converge for some r* in [{r_star.min()}, {r_star.max()}], m={bg.m}"
    )


# The potentials in plain arithmetic: the ODE right-hand side calls them on
# every evaluation, so they skip the public functions' array conversion and
# horizon check.
def _v_axial(r, m, mu_sq):
    """Regge-Wheeler V = (r - 2m)/r / r^3 * [(mu^2 + 2) r - 6m]."""
    return (r - 2.0 * m) / r / r**3 * ((mu_sq + 2.0) * r - 6.0 * m)


def _v_polar(r, m, n):
    """Zerilli V = 2(r - 2m) [n^2(n+1)r^3 + 3mn^2r^2 + 9m^2nr + 9m^3] / (r^4 (nr+3m)^2)."""
    cubic = (
        n * n * (n + 1.0) * r**3
        + 3.0 * m * n * n * r * r
        + 9.0 * m * m * n * r
        + 9.0 * m**3
    )
    return 2.0 * (r - 2.0 * m) * cubic / (r**4 * (n * r + 3.0 * m) ** 2)


def _checked_potential(v, r, bg: BackgroundParams, param):
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < bg.horizon):
        raise DomainError(f"radius must be >= horizon {bg.horizon}")
    out = v(r_arr, bg.m, param)
    return float(out) if np.isscalar(r) else out


def potential_axial(r, bg: BackgroundParams, mode: AxialMode):
    """Regge-Wheeler potential ``_v_axial``; zero at the horizon."""
    return _checked_potential(_v_axial, r, bg, mode.mu_sq)


def potential_polar(r, bg: BackgroundParams, mode: PolarMode):
    """Zerilli potential ``_v_polar``; zero at the horizon."""
    return _checked_potential(_v_polar, r, bg, mode.n)


def _potential_of(mode) -> tuple[Callable, float, float]:
    """The potential of ``mode.kind``, its parameter, and lim r^2 V at large r."""
    if mode.kind == "axial":
        return _v_axial, mode.mu_sq, mode.mu_sq + 2.0
    if mode.kind == "polar":
        return _v_polar, mode.n, 2.0 * (mode.n + 1.0)
    raise DomainError(f"unknown mode kind {mode.kind!r}")


def potential(r, bg: BackgroundParams, mode):
    """The potential of ``mode.kind``; zero at the horizon."""
    v, param, _ = _potential_of(mode)
    return _checked_potential(v, r, bg, param)


@dataclass(frozen=True)
class AnchorBoundary:
    """Exact data (z, dz/dr*) anchored at radius r (or tortoise r_star)."""

    z: float
    dz: float
    r: float | None = None
    r_star: float | None = None

    def __post_init__(self):
        if (self.r is None) == (self.r_star is None):
            raise DomainError("specify exactly one of r, r_star")


@dataclass(frozen=True)
class SurfaceAnchorBoundary:
    """Anchor (z, dz/dr*) at r = d + offset, resolved per surface distance d.

    Falloff sweeps use this to hold the local wave data at the sphere fixed
    while the sphere recedes; sweeping one globally fixed solution instead
    exposes the radial phase of the standing wave (see demos).
    """

    z: float
    dz: float
    offset: float = 0.0

    def resolve(self, d: float) -> AnchorBoundary:
        return AnchorBoundary(z=self.z, dz=self.dz, r=d + self.offset)


@dataclass(frozen=True)
class AsymptoticBoundary:
    """Start from Z = a sin(sigma r* + phase) where the potential is negligible.

    If ``r_star_start`` is omitted, the starting point is placed where
    V <= v_threshold * sigma^2 (v_threshold defaults to the integration tol).
    """

    amplitude: float = 1.0
    phase: float = 0.0
    r_star_start: float | None = None
    v_threshold: float | None = None


@dataclass(frozen=True)
class RadialSolution:
    """Sampled (Z, dZ/dr*) on an ascending tortoise grid with dense output.

    An anchored solution's grid is its Chebyshev elements' points, and its
    dense output their barycentric interpolants; an asymptotic one's grid
    is its DOP853 leg's steps, and its dense output the step interpolants.
    ``eval_r`` keeps nothing: each call evaluates afresh.
    """

    background: BackgroundParams
    mode: object
    rstar: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    r_min: float  # the radii of rstar's ends
    r_max: float
    tol: float
    _dense: object = field(repr=False)  # r* (n,) -> states (3, n): an _ElementView or a Dop853Table
    asymptotic_truncation: float | None = None

    @property
    def kind(self) -> str:
        return self.mode.kind

    def eval_rstar(self, rs) -> np.ndarray:
        """Dense-output states (z, dz, r) at tortoise coordinates.

        Returns shape (3,) + rs.shape.  Points within 1e-9 past an end of the
        grid extrapolate from the nearest element or step.
        """
        rs_in = np.atleast_1d(np.asarray(rs, dtype=float))
        shape = rs_in.shape
        rs = rs_in.ravel()
        lo, hi = self.rstar[0], self.rstar[-1]
        if not np.all((rs >= lo - 1e-9 * (1 + abs(lo))) & (rs <= hi + 1e-9 * (1 + abs(hi)))):
            raise CoverageError(
                f"tortoise coordinate outside covered range [{lo}, {hi}]"
            )
        return self._dense(rs).reshape((3,) + shape)

    def eval_r(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(Z, dZ/dr*) at Schwarzschild radius r (any array shape).

        Every radius given is evaluated; a point's value depends only on its
        own r*, so a caller whose radii repeat may pass the distinct ones and
        gather.
        """
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr < self.r_min - 1e-9) or np.any(r_arr > self.r_max + 1e-9):
            raise CoverageError(
                f"radius outside covered range [{self.r_min}, {self.r_max}]"
            )
        z, dz, _ = self.eval_rstar(tortoise(r_arr, self.background))
        return z, dz

    def residual_max(self) -> float:
        """Integrated first-order ODE residual per step, relative to the state scale.

        For each sample interval, compares y_{i+1} - y_i against the 10-point
        Gauss quadrature of the right-hand side evaluated on dense output.
        Nodes go through the dense output 128 intervals per call, bounding its
        temporaries; each interval keeps its own ``weights.dot(row)`` (a matrix
        product would reorder the sum).  integrate_wave leaves no zero-length interval.
        """
        nodes, weights = np.polynomial.legendre.leggauss(10)
        scale = max(np.max(np.abs(self.z)), np.max(np.abs(self.dz)), 1e-300)
        sigma = self.mode.sigma
        a, b = self.rstar[:-1], self.rstar[1:]
        half = 0.5 * (b - a)
        ts = half[:, None] * nodes + (0.5 * (a + b))[:, None]
        int_z, int_dz = np.empty_like(half), np.empty_like(half)
        for k in range(0, len(ts), 128):
            st = self.eval_rstar(ts[k:k + 128])
            v = potential(np.maximum(st[2], self.background.horizon * (1 + 1e-15)), self.background, self.mode)
            int_z[k:k + 128] = [weights.dot(row) for row in st[1]]
            int_dz[k:k + 128] = [weights.dot(row) for row in (v - sigma * sigma) * st[0]]
        res = np.maximum(
            np.abs(np.diff(self.z) - half * int_z),
            np.abs(np.diff(self.dz) - half * int_dz),
        )
        return np.max(res, initial=0.0) / scale


@dataclass(frozen=True)
class RadialStack:
    """The solutions of one integration, one per surface.

    The members of an anchored ``integrate_wave`` stack hold their own
    Chebyshev elements of one shared table, each over its own range; a
    solution repeated serves every surface of a global boundary.
    """

    solutions: tuple

    @property
    def rstar(self) -> np.ndarray:
        """The first member's grid."""
        return self.solutions[0].rstar

    @property
    def asymptotic_truncation(self) -> float | None:
        return self.solutions[0].asymptotic_truncation

    def eval_r(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(Z, dZ/dr*) at radii ``r`` of shape (members, k), row i on member i.

        Each member finds its points' elements, and every point goes through
        one barycentric pass over the shared table; each value is bitwise
        that of its member's ``eval_r``, under the same coverage checks.  A
        stack of one solution repeated is that solution's ``eval_r``.
        """
        sols = self.solutions
        first = sols[0]
        if all(s is first for s in sols):
            return first.eval_r(r)
        r = np.asarray(r, dtype=float)
        table = first._dense.table
        if any(getattr(s._dense, "table", None) is not table for s in sols):
            raise DomainError("a stack's distinct members must come from one anchored integrate_wave call")
        # per member, as a column that broadcasts along its row of radii
        r_min, r_max, lo, hi = np.array([(s.r_min, s.r_max, s.rstar[0], s.rstar[-1]) for s in sols]).T[:, :, None]
        if np.any(r < r_min - 1e-9) or np.any(r > r_max + 1e-9):
            raise CoverageError("radius outside a member's covered range")
        rs = tortoise(r, first.background)
        if not np.all((rs >= lo - 1e-9 * (1 + abs(lo))) & (rs <= hi + 1e-9 * (1 + abs(hi)))):
            raise CoverageError("tortoise coordinate outside a member's covered range")
        elements = np.array([s._dense.locate(row) for s, row in zip(sols, rs)])
        z, dz, _ = table(rs.ravel(), elements.ravel())
        return z.reshape(r.shape), dz.reshape(r.shape)


# Chebyshev elements: N + 1 points x_j = -cos(pi j / N), ascending on [-1, 1];
# one N for every element, so that all of them go through one batched solve.
_N = 16
# An element whose tail stays above the tolerance is halved, at most this
# many times; no solve holds more elements than the cap.
_MAX_HALVINGS = 12
_MAX_ELEMENTS = 4096
_THETA = np.pi * np.arange(_N, -1, -1) / _N
_X = np.cos(_THETA)
_ENDS = np.r_[0.5, np.ones(_N - 1), 0.5]
_WEIGHTS = (-1.0) ** np.arange(_N + 1) * _ENDS  # barycentric


@functools.cache
def _integrals() -> tuple[np.ndarray, ...]:
    """The rows of the last two Chebyshev coefficients, and the cumulative
    integrals from -1 and from +1 with their squares, on the N + 1 points.

    Built on first use: importing the package runs no BLAS matrix product,
    whose first call grows the process by the library's buffers.
    """
    cos_kt = np.cos(np.outer(_THETA, np.arange(_N + 2)))  # T_k(x_j) up to k = N + 1
    to_coef = 2.0 / _N * cos_kt[:, :_N + 1].T * _ENDS
    to_coef[[0, -1]] *= 0.5
    # coefficients of the antiderivatives: T_1 of T_0, T_2/4 of T_1, and
    # T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) of T_k
    anti = np.zeros((_N + 2, _N + 1))
    anti[1, 0], anti[2, 1] = 1.0, 0.25
    k = np.arange(2, _N + 1)
    anti[k + 1, k] = 0.5 / (k + 1)
    anti[k - 1, k] = -0.5 / (k - 1)
    up = (cos_kt - (-1.0) ** np.arange(_N + 2)) @ anti @ to_coef
    up[0] = 0.0  # the integral from -1 to x_0 = -1
    down = up - up[-1]
    return to_coef[-2:], up, down, up @ up, down @ down


class _Elements:
    """The Chebyshev elements of one anchored solve, every anchor's in one table.

    Element e spans r* from ``lo[e]`` to lo + 2 ``half[e]``; its points are
    lo + (x + 1) half, where ``values[:, e]`` holds (Z, Z', r).  Each
    anchor's elements are consecutive and ascending.
    """

    def __init__(self, lo, half, values):
        self.lo, self.half, self.values = lo, half, values

    def __call__(self, rs, elements) -> np.ndarray:
        """(Z, Z', r) at r* ``rs`` on ``elements``, shape (3, n), by the barycentric formula."""
        diff = ((rs - self.lo[elements]) / self.half[elements] - 1.0)[:, None] - _X
        hit = diff == 0.0
        c = _WEIGHTS / np.where(hit, 1.0, diff)
        on_point = hit.any(axis=1)
        c[on_point] = hit[on_point]
        return (self.values[:, elements] * c).sum(axis=2) / c.sum(axis=1)


class _ElementView:
    """One solution's run of elements in an ``_Elements`` table."""

    def __init__(self, table, first, inner_edges):
        self.table, self.first, self.inner_edges = table, first, inner_edges

    def locate(self, rs) -> np.ndarray:
        """The element of each point; one past an end goes to the end element."""
        return self.first + np.searchsorted(self.inner_edges, rs, side="right")

    def __call__(self, rs) -> np.ndarray:
        return self.table(rs, self.locate(rs))


def _anchor_starts(bg, mode, anchors, r_ranges) -> list[tuple[float, float, float, float, float]]:
    """(r*_lo, r*_hi, r*0, z0, dz0) of each AnchorBoundary over its radial range."""
    for r_range in r_ranges:
        if not (bg.horizon < float(r_range[0]) < float(r_range[1])):
            raise DomainError(f"radial range {r_range} must satisfy 2m < r_lo < r_hi")
    # every range end and anchor radius through one tortoise call; an anchor given in r* keeps it
    radii = np.array([(lo, hi, lo if b.r is None else b.r) for b, (lo, hi) in zip(anchors, r_ranges)], dtype=float)
    starts = []
    for b, r_range, (rs_lo, rs_hi, rs0) in zip(anchors, r_ranges, tortoise(radii, bg).tolist()):
        if b.r is None:
            rs0 = float(b.r_star)
        if not (rs_lo - 1e-9 <= rs0 <= rs_hi + 1e-9):
            raise DomainError(f"boundary point r*={rs0} outside integration range [{rs_lo}, {rs_hi}]")
        rs0 = min(max(rs0, rs_lo), rs_hi)
        if max(rs0 - rs_lo, rs_hi - rs0) < 1e-14 * (1.0 + abs(rs0)):
            raise DomainError(f"radial range {r_range} is too short for an element")
        starts.append((rs_lo, rs_hi, rs0, mode.amplitude * b.z, mode.amplitude * b.dz))
    return starts


def _solve_elements(bg, mode, starts, tol):
    """Z and Z' of every anchored start on Chebyshev elements, all in one table.

    Each anchor's r* range splits at its anchor into elements narrow enough
    to resolve e^{i sigma r*} to tol / 10, ascending and after the previous
    anchor's.  An element below its anchor takes its data at its upper edge,
    and its integral runs from there; one above, at its lower edge.  An
    element is accepted when the last two Chebyshev coefficients of its Z
    and Z'/sigma lie within tol of the smaller of their largest values at
    its two edges, so that the data it hands on carries at most tol of its
    own size in error; every element above that is halved and the whole set
    solved again.  Returns the table, its points' r* and each anchor's
    number of elements.
    """
    sigma = mode.sigma
    v, param, _ = _potential_of(mode)
    last_coef, integral, integral_down, integral2, integral2_down = _integrals()
    # no tail falls below round-off, so the tolerance is held at 100 eps or above
    tol = max(tol, 100.0 * np.finfo(float).eps)
    # the width at which e^{i sigma r*}'s last coefficient, 2 J_N(sigma h) ~ 2 (sigma h/2)^N / N!
    # for half-width h, is tol / 10
    width = 4.0 / sigma * (tol * math.factorial(_N) / 20.0) ** (1.0 / _N)
    needed = sum((rs_hi - rs_lo) / width for rs_lo, rs_hi, *_ in starts)
    if not needed <= _MAX_ELEMENTS:
        raise IntegrationError(
            f"the radial solve needs {needed:.3g} Chebyshev elements, above the cap of "
            f"{_MAX_ELEMENTS}; lower mode.sigma or narrow the radial range"
        )
    # per anchor: its ascending element edges, and the number of elements below it
    layout = []
    for rs_lo, rs_hi, rs0, _, _ in starts:
        pieces = []
        for a, b in ((rs_lo, rs0), (rs0, rs_hi)):
            n = math.ceil((b - a) / width) if b - a >= 1e-14 * (1.0 + abs(rs0)) else 0
            pieces.append([a + (b - a) * k / n for k in range(n)])
        layout.append((pieces[0] + pieces[1] + [rs_hi], len(pieces[0])))
    for _ in range(_MAX_HALVINGS + 1):
        lo = np.array([x for edges, _ in layout for x in edges[:-1]])
        if len(lo) > _MAX_ELEMENTS:
            raise IntegrationError(
                f"the radial solve needs more than {_MAX_ELEMENTS} Chebyshev elements to reach "
                f"tolerance {tol:g}"
            )
        hi = np.array([x for edges, _ in layout for x in edges[1:]])
        desc = np.array([k < below for edges, below in layout for k in range(len(edges) - 1)])
        half = 0.5 * (hi - lo)
        t = lo[:, None] + (_X + 1.0) * half[:, None]
        t[:, -1] = hi
        r = inverse_tortoise(t, bg)
        q = v(r, bg.m, param) - sigma**2
        # the unit solutions, data (1, 0) and (0, 1) at each element's start
        down = desc[:, None, None]
        lhs = np.where(down, integral2_down, integral2) * (-half * half)[:, None, None]
        lhs *= q[:, None, :]
        lhs += np.eye(_N + 1)
        rhs = np.ones((len(lo), _N + 1, 2))
        rhs[:, :, 1] = np.where(down[:, 0], _X - 1.0, _X + 1.0) * half[:, None]
        units = np.linalg.solve(lhs, rhs)
        d_units = half[:, None, None] * (np.where(down, integral_down, integral) @ (q[:, :, None] * units))
        d_units[:, :, 1] += 1.0
        units = np.stack([units, d_units], axis=2)  # (element, point, Z or Z', unit)
        # the transfer chain: outward from each anchor, an element starts from
        # its predecessor's end; the smaller of its two ends' sizes scales its tail
        ends = units[np.arange(len(lo)), np.where(desc, 0, _N)].reshape(-1, 4).tolist()
        data, size, first = [None] * len(lo), [None] * len(lo), 0
        for (edges, below), (_, _, _, z0, dz0) in zip(layout, starts):
            for run in (range(first + below - 1, first - 1, -1), range(first + below, first + len(edges) - 1)):
                z, dz = z0, dz0
                for e in run:
                    u1, u2, du1, du2 = ends[e]
                    z_end, dz_end = u1 * z + u2 * dz, du1 * z + du2 * dz
                    data[e] = (z, dz)
                    size[e] = min(max(abs(z), abs(dz) / sigma), max(abs(z_end), abs(dz_end) / sigma))
                    z, dz = z_end, dz_end
            first += len(edges) - 1
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
            a, b = np.array(data).T[:, :, None, None]
            states = units[..., 0] * a + units[..., 1] * b
            tail = np.abs(last_coef @ states / [1.0, sigma]).max(axis=(1, 2))
        if not np.isfinite(tail).all():
            raise IntegrationError("the Chebyshev elements' Z overflows; lower mode.ell or narrow the radial range")
        wide = (tail > tol * np.array(size)).tolist()
        if not any(wide):
            break
        # halve every element above the tolerance
        halved, first = [], 0
        for edges, below in layout:
            split = wide[first:first + len(edges) - 1]
            new = [edges[0]]
            for k, half_it in enumerate(split):
                new += [0.5 * (edges[k] + edges[k + 1]), edges[k + 1]] if half_it else [edges[k + 1]]
            halved.append((new, below + sum(split[:below])))
            first += len(edges) - 1
        layout = halved
    else:
        raise IntegrationError(
            f"a Chebyshev element's tail stays above tolerance {tol:g} after {_MAX_HALVINGS} halvings"
        )
    table = _Elements(lo, half, np.concatenate([states.transpose(2, 0, 1), r[None]]))
    return table, t, [len(edges) - 1 for edges, _ in layout]


def _rhs_factory(bg: BackgroundParams, mode) -> Callable:
    """The DOP853 leg's right-hand side in (Z, Z', r).

    The stepper's float contract: a sequence of floats in, a tuple out, in
    the same libm pow and IEEE operations as numpy scalars without their
    per-operation overhead.
    """
    sigma_sq = mode.sigma**2
    m = bg.m
    v, param, _ = _potential_of(mode)

    def rhs(t, y):
        z, dz, r = y
        return dz, (v(r, m, param) - sigma_sq) * z, (r - 2.0 * m) / r

    return rhs


def _asymptotic_start(bg, mode, boundary, tol) -> tuple[float, float]:
    """Starting tortoise coordinate and V/sigma^2 truncation level there."""
    sigma_sq = mode.sigma**2
    if boundary.r_star_start is not None:
        r_start = inverse_tortoise(boundary.r_star_start, bg)
        return boundary.r_star_start, potential(r_start, bg, mode) / sigma_sq
    v_thr = (boundary.v_threshold if boundary.v_threshold is not None else tol) * sigma_sq
    r_start = math.sqrt(_potential_of(mode)[2] / v_thr)
    # one Newton-like refinement pass on the exact potential
    for _ in range(60):
        v = potential(r_start, bg, mode)
        if v <= v_thr:
            break
        r_start *= math.sqrt(v / v_thr)
    return float(tortoise(r_start, bg)), potential(r_start, bg, mode) / sigma_sq


def integrate_wave(
    bg: BackgroundParams,
    mode,
    boundary,
    r_range,
    tol: float = 1e-10,
) -> RadialSolution | RadialStack:
    """Solve the radial wave equation over ``r_range`` (Schwarzschild radii).

    ``boundary`` is an AnchorBoundary (exact data at a point) or an
    AsymptoticBoundary (sinusoidal data where the potential is below
    tol * sigma^2).  Boundary data is scaled by ``mode.amplitude``.

    Anchored data is solved on Chebyshev elements (``_solve_elements``):
    each element's Chebyshev tail is held within ``tol`` of the solution's
    scale by halving the element, and a solve that would need more elements
    than a fixed cap raises IntegrationError.  An asymptotic start is one
    adaptive DOP853 leg down from the start, with dense output.

    A list of AnchorBoundary, with a list of one range each, returns their
    RadialStack: the elements of every anchor, each over its own range, go
    through one batched solve.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if isinstance(boundary, (list, tuple)):
        if not (boundary and len(boundary) == len(r_range) and all(isinstance(b, AnchorBoundary) for b in boundary)):
            raise DomainError("a stack takes a list of AnchorBoundary and one radial range each")
        return RadialStack(_anchored(bg, mode, boundary, r_range, tol))
    if isinstance(boundary, AnchorBoundary):
        return _anchored(bg, mode, [boundary], [r_range], tol)[0]
    if isinstance(boundary, AsymptoticBoundary):
        return _asymptotic_leg(bg, mode, boundary, r_range, tol)
    if isinstance(boundary, SurfaceAnchorBoundary):
        raise DomainError("resolve SurfaceAnchorBoundary against a distance first")
    raise DomainError(f"unsupported boundary type {type(boundary).__name__}")


def _anchored(bg, mode, anchors, r_ranges, tol) -> tuple:
    """One RadialSolution per anchor, all on one ``_solve_elements`` table."""
    table, t, counts = _solve_elements(bg, mode, _anchor_starts(bg, mode, anchors, r_ranges), tol)
    points = np.concatenate([t[None], table.values[:2]])
    solutions, first = [], 0
    for count, (r_lo, r_hi) in zip(counts, r_ranges):
        last = first + count
        # each element's points but its last, which is the next element's first
        rstar, z, dz = np.concatenate([points[:, first:last, :-1].reshape(3, -1), points[:, last - 1, -1:]], axis=1)
        solutions.append(RadialSolution(
            background=bg,
            mode=mode,
            rstar=rstar,
            z=z,
            dz=dz,
            r_min=float(r_lo),
            r_max=float(r_hi),
            tol=tol,
            _dense=_ElementView(table, first, table.lo[first + 1:last]),
        ))
        first = last
    return tuple(solutions)


def _asymptotic_leg(bg, mode, boundary, r_range, tol) -> RadialSolution:
    """One DOP853 leg in (Z, Z', r) down from an asymptotic start."""
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    if not (bg.horizon < r_lo < r_hi):
        raise DomainError(f"radial range {r_range} must satisfy 2m < r_lo < r_hi")
    rs_lo, rs_hi = float(tortoise(r_lo, bg)), float(tortoise(r_hi, bg))
    rs0, trunc = _asymptotic_start(bg, mode, boundary, tol)
    if rs0 < rs_hi:
        raise DomainError(
            f"asymptotic start r*={rs0:.6g} lies below the top of the range, r*={rs_hi:.6g}; "
            "start farther out (r_star_start, v_threshold) or end the range lower"
        )
    if abs(rs_lo - rs0) < 1e-14 * (1 + abs(rs0)):
        raise DomainError(f"radial range {r_range} is too short for an integration leg")
    a = mode.amplitude * boundary.amplitude
    z0 = a * math.sin(mode.sigma * rs0 + boundary.phase)
    dz0 = a * mode.sigma * math.cos(mode.sigma * rs0 + boundary.phase)
    # the leg runs from r*0 down to exactly rs_lo: these are the radii of its ends
    r0, r_end = inverse_tortoise(np.array([rs0, rs_lo]), bg).tolist()
    scale = max(abs(z0), abs(dz0) / mode.sigma, 1e-30)
    atol = np.array([tol * scale * 1e-2, tol * scale * 1e-2, tol * 1e-2 * max(r0, 1.0)])
    ts, ys, table = dop853(_rhs_factory(bg, mode), rs0, rs_lo, np.array([z0, dz0, r0]), rtol=tol, atol=atol)
    ts, ys = ts[::-1], ys[::-1]
    return RadialSolution(
        background=bg,
        mode=mode,
        rstar=ts,
        z=ys[:, 0],
        dz=ys[:, 1],
        r_min=r_end,
        r_max=r0,
        tol=tol,
        _dense=table,
        asymptotic_truncation=trunc,
    )


def radial_coverage(bg: BackgroundParams, boundary, d_values) -> tuple[float, float]:
    """Radii a solution needs for unit spheres centred at ``d_values``.

    Each sphere spans radii d - 1 to d + 1 under either substitution; the
    interval [min d - 1.5, max d + 1.5] adds a margin, with its lower end kept
    at least halfway from the horizon to min d - 1 so that it stays outside
    the horizon for every d > 2m + 1.  An AnchorBoundary widens the interval
    to its anchor radius.
    """
    d_min, d_max = min(d_values), max(d_values)
    lo = max(d_min - 1.5, 0.5 * (bg.horizon + d_min - 1.0))
    hi = d_max + 1.5
    if isinstance(boundary, AnchorBoundary):
        # a globally anchored solution may sit far from the surfaces
        r = boundary.r if boundary.r is not None else inverse_tortoise(boundary.r_star, bg)
        lo, hi = min(lo, r), max(hi, r)
    return lo, hi


def solve_radial(
    bg: BackgroundParams, mode, boundary, d_values, tol: float = 1e-10, r_range=None
) -> RadialSolution:
    """``integrate_wave`` over the radial coverage of the spheres at ``d_values``.

    A SurfaceAnchorBoundary is resolved against the first distance (see
    ``solve_surfaces`` for one solution per distance); an explicit
    ``r_range`` replaces the coverage interval.
    """
    if isinstance(boundary, SurfaceAnchorBoundary):
        boundary = boundary.resolve(d_values[0])
    if r_range is None:
        r_range = radial_coverage(bg, boundary, d_values)
    return integrate_wave(bg, mode, boundary, r_range, tol=tol)


def solve_surfaces(bg: BackgroundParams, mode, boundary, d_values, tol: float = 1e-10) -> RadialStack:
    """One radial solution per sphere at ``d_values``, from one ``integrate_wave`` call.

    A SurfaceAnchorBoundary is resolved against every distinct distance, in
    order of first appearance, and the anchors' Chebyshev elements, each
    anchor's over its own sphere's coverage, go through one batched solve; a
    repeated d shares its first one's solution.  Any other boundary does not
    depend on d: one ``solve_radial`` solution over the coverage of all the
    spheres serves every d.
    """
    if isinstance(boundary, SurfaceAnchorBoundary):
        member = {d: i for i, d in enumerate(dict.fromkeys(d_values))}
        anchors = [boundary.resolve(d) for d in member]
        ranges = [radial_coverage(bg, a, [d]) for a, d in zip(anchors, member)]
        stack = integrate_wave(bg, mode, anchors, ranges, tol)
        return RadialStack(tuple(stack.solutions[member[d]] for d in d_values))
    return RadialStack((solve_radial(bg, mode, boundary, d_values, tol),) * len(d_values))


def _a_terms(r, z, dz, m, mode) -> tuple:
    """AProfile's (A, A', A'') from (r, Z, Z'), also for radii of several solutions at once."""
    s2, mu2 = mode.sigma**2, mode.mu_sq
    rm = r - 2.0 * m
    a = rm / (s2 * r**2) * z + dz / s2
    a_prime = (((mu2 + 1.0) * r - 2.0 * m) / (s2 * r**3) - r / rm) * z + dz / (s2 * r)
    coef_z = -mu2 / (s2 * r**3) + 2.0 * m / rm**2 - 1.0 / rm
    coef_dz = mu2 / (s2 * r * rm) - r**2 / rm**2
    return a, a_prime, coef_z * z + coef_dz * dz


@dataclass(frozen=True)
class AProfile:
    """Evaluable A(r), A'(r), A''(r) for an axial radial solution.

    A is built from Z and Z' := dZ/dr* only:

        A   = (r - 2m)/(sigma^2 r^2) Z + Z'/sigma^2
        A'  = [((mu^2+1) r - 2m)/(sigma^2 r^3) - r/(r - 2m)] Z + Z'/(sigma^2 r)
        A'' = [-mu^2/(sigma^2 r^3) + 2m/(r-2m)^2 - 1/(r-2m)] Z
              + [mu^2/(sigma^2 r (r-2m)) - r^2/(r-2m)^2] Z'

    The primed forms follow by differentiating A in r, converting dZ/dr to
    (r/(r-2m)) Z' and eliminating Z'' through the wave equation
    Z'' = (V - sigma^2) Z; they are exact, not finite differences.
    ``values`` gives all three from one dense-output pass; ``a``, ``a_prime``
    and ``a_double_prime`` each take a pass of their own.
    """

    solution: RadialSolution

    def __post_init__(self):
        if self.solution.kind != "axial":
            raise DomainError("A(r) is defined for axial solutions only")

    @property
    def r_min(self) -> float:
        return self.solution.r_min

    @property
    def r_max(self) -> float:
        return self.solution.r_max

    def values(self, r) -> tuple:
        """(A, A', A'') at r from one dense-output pass; floats for a scalar r."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        z, dz = self.solution.eval_r(r_arr)
        terms = _a_terms(r_arr, z, dz, self.solution.background.m, self.solution.mode)
        return tuple(float(t[0]) for t in terms) if np.isscalar(r) else terms

    def a(self, r):
        return self.values(r)[0]

    def a_prime(self, r):
        return self.values(r)[1]

    def a_double_prime(self, r):
        return self.values(r)[2]


def a_profile(sol: RadialSolution) -> AProfile:
    """Construct the A(r) evaluator from an axial radial solution."""
    return AProfile(solution=sol)
