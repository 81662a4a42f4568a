"""Tortoise coordinate, radial wave potentials, integration, and A(r).

Geometrized units (G = c = 1) throughout; lengths scale with the black-hole
mass m.  The flat limit m = 0 is allowed everywhere and used as the analytic
oracle (spherical Bessel solutions).

The wave equation is integrated in the tortoise coordinate as a first-order
system in (Z, dZ/dr*, r), with dr/dr* = 1 - 2m/r carried as an auxiliary
state so the potential never needs a Newton inversion inside the right-hand
side.  dZ/dr is always derived from dZ/dr* through the exact Jacobian
r/(r - 2m), never by differencing samples.

Each leg is stepped by the package's own DOP853 (``_dop853``), bitwise equal
to scipy's ``solve_ivp`` in steps, states and dense output.  The leg's step
interpolants are stacked in one table and evaluated for a batch of points at
once; ``eval_r`` keeps its last result, so A, A' and A'' share one pass.
"""

from __future__ import annotations

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
    "SurfaceAnchorBoundary",
    "a_profile",
    "integrate_wave",
    "inverse_tortoise",
    "potential",
    "potential_axial",
    "potential_polar",
    "radial_coverage",
    "solve_radial",
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


def inverse_tortoise(r_star: float, bg: BackgroundParams, tol: float = 1e-13) -> float:
    """Invert the tortoise map by safeguarded Newton iteration.

    Seeds: r* itself far out, 2m(1 + exp((r* - 2m)/2m)) near the horizon.
    The iteration runs in delta = r - 2m so that proximities below machine
    resolution of r itself stay representable; the returned r saturates one
    ulp outside the horizon in that regime.
    """
    if bg.m == 0.0:
        return float(r_star)
    two_m = bg.horizon
    if r_star > 2.0 * two_m:
        delta = float(r_star) - two_m
    else:
        delta = two_m * math.exp(max((r_star - two_m) / two_m, -700.0))
    for _ in range(50):
        f = two_m + delta + two_m * math.log(delta / two_m) - r_star
        step = f * delta / (delta + two_m)  # f / (dr*/dr)
        delta_new = delta - step
        if delta_new <= 0.0:
            delta_new = 0.5 * delta
        if abs(delta_new - delta) <= tol * max(delta_new + two_m, two_m):
            r = two_m + delta_new
            return r if r > two_m else math.nextafter(two_m, math.inf)
        delta = delta_new
    raise IntegrationError(
        f"tortoise inversion did not converge for r*={r_star}, m={bg.m}"
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


def potential(r, bg: BackgroundParams, mode):
    """Dispatch on mode.kind."""
    if mode.kind == "axial":
        return potential_axial(r, bg, mode)
    if mode.kind == "polar":
        return potential_polar(r, bg, mode)
    raise DomainError(f"unknown mode kind {mode.kind!r}")


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


def _window_rk4(rhs, t0: float, t1: float, y0: np.ndarray, n_steps: int):
    """Classical fixed-step RK4; returns nodes, states, and state derivatives."""
    ts = np.linspace(t0, t1, n_steps + 1)
    h = (t1 - t0) / n_steps
    ys = np.empty((n_steps + 1, y0.size))
    fs = np.empty_like(ys)
    y = np.asarray(y0, dtype=float).copy()
    for i, t in enumerate(ts):
        f1 = rhs(t, y)
        ys[i] = y
        fs[i] = f1
        if i == n_steps:
            break
        k1 = f1
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ts, ys, fs


class _HermiteSegment:
    """Cubic Hermite dense output over fixed-step nodes (exact derivatives)."""

    def __init__(self, ts, ys, fs):
        order = np.argsort(ts)
        self.ts = ts[order]
        self.ys = ys[order]
        self.fs = fs[order]

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = t1 - t0
        s = (t - t0) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        y0, y1 = self.ys[idx], self.ys[idx + 1]
        f0, f1 = self.fs[idx], self.fs[idx + 1]
        out = (
            h00[:, None] * y0
            + (h * h10)[:, None] * f0
            + h01[:, None] * y1
            + (h * h11)[:, None] * f1
        )
        return out.T


@dataclass(frozen=True)
class RadialSolution:
    """Sampled (Z, dZ/dr*) on an ascending tortoise grid with dense output."""

    kind: str
    background: BackgroundParams
    mode: object
    rstar: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    r: np.ndarray
    tol: float
    _segments: tuple = field(repr=False)
    asymptotic_truncation: float | None = None
    # (r, z, dz) of the last eval_r call, one tuple so no thread sees a mixed entry
    _last_eval: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    @property
    def r_min(self) -> float:
        return float(self.r.min())

    @property
    def r_max(self) -> float:
        return float(self.r.max())

    def eval_rstar(self, rs) -> np.ndarray:
        """Dense-output states (z, dz, r) at tortoise coordinates.

        Returns shape (3,) + rs.shape.  A point goes to the first leg within
        1e-12 (1 + |r*|) of it, else to the nearest leg end: the drift of the
        integrated r lets radii in [r_min, r_max] map ~1e-9 past the legs.
        """
        rs_in = np.atleast_1d(np.asarray(rs, dtype=float))
        shape = rs_in.shape
        rs = rs_in.ravel()
        lo, hi = self.rstar[0], self.rstar[-1]
        if not np.all((rs >= lo - 1e-9 * (1 + abs(lo))) & (rs <= hi + 1e-9 * (1 + abs(hi)))):
            raise CoverageError(
                f"tortoise coordinate outside covered range [{lo}, {hi}]"
            )
        inside = np.array([
            (rs >= t_lo - 1e-12 * (1 + abs(t_lo))) & (rs <= t_hi + 1e-12 * (1 + abs(t_hi)))
            for t_lo, t_hi, _ in self._segments
        ])
        gap = np.array([np.maximum(t_lo - rs, rs - t_hi) for t_lo, t_hi, _ in self._segments])
        leg = np.where(inside.any(axis=0), inside.argmax(axis=0), gap.argmin(axis=0))
        out = np.empty((3, rs.size))
        for i, (_, _, seg) in enumerate(self._segments):
            mask = leg == i
            if np.any(mask):
                out[:, mask] = seg(rs[mask])
        return out.reshape((3,) + shape)

    def eval_r(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(Z, dZ/dr*) at Schwarzschild radius r (any array shape).

        A call with the same radii as the previous one returns the previous
        (read-only) arrays without evaluating again.
        """
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        last = self._last_eval[0]
        if last is not None and last[0].shape == r_arr.shape and np.array_equal(last[0], r_arr):
            return last[1], last[2]
        if np.any(r_arr < self.r_min - 1e-9) or np.any(r_arr > self.r_max + 1e-9):
            raise CoverageError(
                f"radius outside covered range [{self.r_min}, {self.r_max}]"
            )
        states = self.eval_rstar(tortoise(r_arr, self.background))
        states.flags.writeable = False
        self._last_eval[0] = (r_arr.copy(), states[0], states[1])
        return states[0], states[1]

    def residual_max(self) -> float:
        """Integrated first-order ODE residual per step, relative to the state scale.

        For each sample interval, compares y_{i+1} - y_i against the 10-point
        Gauss quadrature of the right-hand side evaluated on dense output.
        Nodes go through the dense output 128 intervals per call, bounding its
        temporaries; each interval keeps its own ``np.dot`` (a matrix product
        would reorder the sum).  integrate_wave leaves no zero-length interval.
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
            int_z[k:k + 128] = [np.dot(weights, row) for row in st[1]]
            int_dz[k:k + 128] = [np.dot(weights, row) for row in (v - sigma * sigma) * st[0]]
        res = np.maximum(
            np.abs(np.diff(self.z) - half * int_z),
            np.abs(np.diff(self.dz) - half * int_dz),
        )
        return np.max(res, initial=0.0) / scale


def _rhs_factory(bg: BackgroundParams, mode) -> Callable:
    sigma_sq = mode.sigma**2
    m = bg.m
    if mode.kind == "axial":
        v, param = _v_axial, mode.mu_sq
    else:
        v, param = _v_polar, mode.n

    # Python floats: the same libm pow and IEEE operations as numpy scalars,
    # without their per-operation overhead
    def rhs(t, y):
        z, dz, r = y.tolist()
        return np.array((dz, (v(r, m, param) - sigma_sq) * z, (r - 2.0 * m) / r))

    return rhs


def _asymptotic_start(bg, mode, boundary, tol) -> tuple[float, float]:
    """Starting tortoise coordinate and V/sigma^2 truncation level there."""
    sigma_sq = mode.sigma**2
    if boundary.r_star_start is not None:
        r_start = inverse_tortoise(boundary.r_star_start, bg)
        return boundary.r_star_start, potential(r_start, bg, mode) / sigma_sq
    v_thr = (boundary.v_threshold if boundary.v_threshold is not None else tol) * sigma_sq
    lead = mode.mu_sq + 2.0 if mode.kind == "axial" else 2.0 * (mode.n + 1.0)
    r_start = math.sqrt(lead / v_thr)
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
    r_range: tuple[float, float],
    tol: float = 1e-10,
    fixed_step: int | None = None,
) -> RadialSolution:
    """March the radial wave equation over ``r_range`` (Schwarzschild radii).

    ``boundary`` is an AnchorBoundary (exact data at a point) or an
    AsymptoticBoundary (sinusoidal data where the potential is below
    tol * sigma^2).  Boundary data is scaled by ``mode.amplitude``.  Adaptive
    DOP853 with dense output by default; ``fixed_step`` switches to a
    fixed-step RK4 with the given number of steps per direction, used by the
    exact-linearity tests.
    """
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    if not (bg.horizon < r_lo < r_hi):
        raise DomainError(f"radial range {r_range} must satisfy 2m < r_lo < r_hi")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rs_lo = float(tortoise(r_lo, bg))
    rs_hi = float(tortoise(r_hi, bg))
    amp = mode.amplitude
    trunc = None

    if isinstance(boundary, SurfaceAnchorBoundary):
        raise DomainError("resolve SurfaceAnchorBoundary against a distance first")
    if isinstance(boundary, AnchorBoundary):
        rs0 = (
            float(tortoise(boundary.r, bg))
            if boundary.r is not None
            else float(boundary.r_star)
        )
        if not (rs_lo - 1e-9 <= rs0 <= rs_hi + 1e-9):
            raise DomainError(
                f"boundary point r*={rs0} outside integration range [{rs_lo}, {rs_hi}]"
            )
        rs0 = min(max(rs0, rs_lo), rs_hi)
        z0, dz0 = amp * boundary.z, amp * boundary.dz
    elif isinstance(boundary, AsymptoticBoundary):
        rs0, trunc = _asymptotic_start(bg, mode, boundary, tol)
        if rs0 < rs_hi:
            raise DomainError(
                "asymptotic start lies inside the requested range; extend r_range"
            )
        a = amp * boundary.amplitude
        z0 = a * math.sin(mode.sigma * rs0 + boundary.phase)
        dz0 = a * mode.sigma * math.cos(mode.sigma * rs0 + boundary.phase)
        rs_hi = rs0
    else:
        raise DomainError(f"unsupported boundary type {type(boundary).__name__}")

    r0 = inverse_tortoise(rs0, bg)
    y0 = np.array([z0, dz0, r0])
    rhs = _rhs_factory(bg, mode)
    scale = max(abs(z0), abs(dz0) / mode.sigma, 1e-30)

    segments = []
    samples = []

    def integrate_leg(t0, t1):
        if abs(t1 - t0) < 1e-14 * (1 + abs(t0)):
            return
        if fixed_step is not None:
            ts, ys, fs = _window_rk4(rhs, t0, t1, y0, fixed_step)
            segments.append((min(t0, t1), max(t0, t1), _HermiteSegment(ts, ys, fs)))
            samples.append((ts, ys))
            return
        atol = np.array([tol * scale * 1e-2, tol * scale * 1e-2, tol * 1e-2 * max(r0, 1.0)])
        ts, ys, table = dop853(rhs, t0, t1, y0, rtol=tol, atol=atol)
        segments.append((min(t0, t1), max(t0, t1), table))
        samples.append((ts, ys))

    integrate_leg(rs0, rs_hi)
    integrate_leg(rs0, rs_lo)

    ts_all = np.concatenate([s[0] for s in samples])
    ys_all = np.concatenate([s[1] for s in samples])
    order = np.argsort(ts_all)
    ts_all, ys_all = ts_all[order], ys_all[order]
    keep = np.concatenate([[True], np.diff(ts_all) > 0])
    ts_all, ys_all = ts_all[keep], ys_all[keep]

    return RadialSolution(
        kind=mode.kind,
        background=bg,
        mode=mode,
        rstar=ts_all,
        z=ys_all[:, 0],
        dz=ys_all[:, 1],
        r=ys_all[:, 2],
        tol=tol,
        _segments=tuple(segments),
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

    A SurfaceAnchorBoundary is resolved against the first distance; an
    explicit ``r_range`` replaces the coverage interval.
    """
    if isinstance(boundary, SurfaceAnchorBoundary):
        boundary = boundary.resolve(d_values[0])
    if r_range is None:
        r_range = radial_coverage(bg, boundary, d_values)
    return integrate_wave(bg, mode, boundary, r_range, tol=tol)


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
    """

    solution: RadialSolution

    @property
    def r_min(self) -> float:
        return self.solution.r_min

    @property
    def r_max(self) -> float:
        return self.solution.r_max

    def _zz(self, r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        z, dz = self.solution.eval_r(r_arr)
        return r_arr, z, dz

    def a(self, r):
        r_arr, z, dz = self._zz(r)
        m, s2 = self.solution.background.m, self.solution.mode.sigma**2
        out = (r_arr - 2.0 * m) / (s2 * r_arr**2) * z + dz / s2
        return float(out[0]) if np.isscalar(r) else out

    def a_prime(self, r):
        r_arr, z, dz = self._zz(r)
        m, mode = self.solution.background.m, self.solution.mode
        s2, mu2 = mode.sigma**2, mode.mu_sq
        coef_z = ((mu2 + 1.0) * r_arr - 2.0 * m) / (s2 * r_arr**3) - r_arr / (
            r_arr - 2.0 * m
        )
        out = coef_z * z + dz / (s2 * r_arr)
        return float(out[0]) if np.isscalar(r) else out

    def a_double_prime(self, r):
        r_arr, z, dz = self._zz(r)
        m, mode = self.solution.background.m, self.solution.mode
        s2, mu2 = mode.sigma**2, mode.mu_sq
        rm = r_arr - 2.0 * m
        coef_z = -mu2 / (s2 * r_arr**3) + 2.0 * m / rm**2 - 1.0 / rm
        coef_dz = mu2 / (s2 * r_arr * rm) - r_arr**2 / rm**2
        out = coef_z * z + coef_dz * dz
        return float(out[0]) if np.isscalar(r) else out


def a_profile(sol: RadialSolution) -> AProfile:
    """Construct the A(r) evaluator from an axial radial solution."""
    if sol.kind != "axial":
        raise DomainError("A(r) is defined for axial solutions only")
    return AProfile(solution=sol)
