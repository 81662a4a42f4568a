"""Induced geometry of the unit sphere: Gauss curvature, |H|, Hawking line.

Validation path for the energy pipeline.  The surface is parameterized by a
unit sphere whose polar axis points along the center direction, so its
Cartesian embedding and that embedding's first and second derivatives are
exact trigonometry.  They are pushed into the ambient spherical chart
(r, theta, phi) once, as 3-vectors per point: the tangents X_a and second
derivatives X_ab.  Everything ambient is then a contraction of those
against the chart metric g, its closed-form (r, theta) partials and its
t-derivative: h_ab = X_a g X_b, the normal from X_theta x X_phi raised with
the closed-form inverse of g, and II_ab = nu_c X_ab^c + nu^f Gamma_{f,de}
X_a^d X_b^e.  The coordinate axis of the chart never meets the surface for
the default equatorial direction.

|H|^2 is computed from the decomposition |H|^2 = H_slice^2 - (tr_Sigma k)^2,
valid because the surface lies in a constant-t slice of a metric with no
dt cross terms: H_slice is the mean curvature inside the slice and k the
slice extrinsic curvature (zero shift, lapse sqrt(1 - 2m/r)), pulled back
to the surface.

Gauss curvature uses the Brioschi formula with order-6 centered finite
differences of the induced metric on the parameter grid; the perturbed
induced metric is not band-limited, so differencing is preferred over
spectral differentiation here.  Ghost rows across the parameter poles use
the antipodal continuation f(-theta, phi) = f(theta, phi + pi) with the
tensor-component sign flips it implies.  Its 1/sin^4 amplifies round-off
in h at the rows next to the parameter poles: any change in the order of
the floating-point operations that build h may move K and the Hawking line
there by up to ~1e-8 at resolution 96 (|H| moves only at round-off), and
that is the tolerance to which those fields are pinned.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .embedding import SurfaceSpec
from .energy import fit_inverse_powers
from .errors import DomainError, ResolutionError
from .radial import AxialMode, BackgroundParams, RadialSolution, a_profile
from .sphere import _legendre_p_derivs

__all__ = [
    "GeometryReport",
    "PerturbationProfiles",
    "axial_preset",
    "epsilon_derivative",
    "fit_powers",
    "hawking_sweep",
    "spatial_metric",
    "surface_geometry",
]

INCOMPLETE_FLAG = "incomplete-perturbation"


def _zero_profile(r, theta):
    return np.zeros(np.broadcast(np.asarray(r), np.asarray(theta)).shape)


@dataclass(frozen=True)
class PerturbationProfiles:
    """Metric perturbation profiles with a sin(sigma t) time convention.

    For the axial kind the off-diagonal functions are q_i(t, r, theta) =
    epsilon sin(sigma t) Q_i(r, theta); ``q2``/``q3`` hold the spatial
    profiles Q_i and the *_dr/*_dtheta entries their analytic partials
    (finite-difference fallbacks are installed when omitted).  The polar
    kind is user-supplied only (no closed form is available here) as
    relative diagonal profiles: g_ii -> g_ii (1 + 2 epsilon sin(sigma t)
    p_ii) for i in (rr, thth, phph).  ``epsilon`` must stay small enough
    that quadratic terms sit below validation tolerances.
    """

    kind: str = "none"
    sigma: float = 0.5
    epsilon: float = 1e-3
    q2: object | None = None
    q3: object | None = None
    dq2_dr: object | None = None
    dq2_dtheta: object | None = None
    dq3_dr: object | None = None
    dq3_dtheta: object | None = None
    diag: tuple | None = None  # polar: (p_rr, p_thth, p_phph) callables
    incomplete: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "axial", "polar"):
            raise DomainError(f"unknown perturbation kind {self.kind!r}")
        if abs(self.epsilon) > 1e-2:
            raise DomainError("epsilon outside the linearization regime (|eps| <= 1e-2)")
        if self.kind == "axial":
            fd = _fd_partials
            if self.q2 is None:
                object.__setattr__(self, "q2", _zero_profile)
                object.__setattr__(self, "incomplete", True)
            if self.q3 is None:
                raise DomainError("axial perturbation needs a q3 profile")
            if self.dq2_dr is None or self.dq2_dtheta is None:
                dr, dth = fd(self.q2)
                object.__setattr__(self, "dq2_dr", self.dq2_dr or dr)
                object.__setattr__(self, "dq2_dtheta", self.dq2_dtheta or dth)
            if self.dq3_dr is None or self.dq3_dtheta is None:
                dr, dth = fd(self.q3)
                object.__setattr__(self, "dq3_dr", self.dq3_dr or dr)
                object.__setattr__(self, "dq3_dtheta", self.dq3_dtheta or dth)

    @classmethod
    def none(cls) -> "PerturbationProfiles":
        return cls(kind="none", epsilon=0.0)

    def with_epsilon(self, epsilon: float) -> "PerturbationProfiles":
        return dataclasses.replace(self, epsilon=epsilon)

    def flags(self) -> list[str]:
        return [INCOMPLETE_FLAG] if self.incomplete else []


def _fd_partials(fn, h: float = 1e-6):
    """Centered finite-difference partials for a black-box (r, theta) profile."""

    def d_r(r, theta):
        step = h * np.maximum(1.0, np.abs(r))
        return (fn(r + step, theta) - fn(r - step, theta)) / (2.0 * step)

    def d_theta(r, theta):
        return (fn(r, theta + h) - fn(r, theta - h)) / (2.0 * h)

    return d_r, d_theta


def axial_preset(
    bg: BackgroundParams,
    mode: AxialMode,
    sol: RadialSolution,
    q2_override=None,
    epsilon: float = 1e-3,
) -> PerturbationProfiles:
    """Axial profiles from a radial solution:

        q3(t, r, theta) = sin(sigma t) C_ell(theta)/sin(theta) *
                          (r^2 - 2 m r)/(sigma^2 r^4) d(rZ)/dr
                        = sin(sigma t) [sin(theta) P''_ell(cos theta)] A(r)/r,

    the second form being pole-safe (C_ell/sin = sin * P'').  The q2 profile
    is an injection point; passing none leaves it zero and flags every
    downstream report "incomplete-perturbation".  ``q2_override`` is a
    callable Q2(r, theta); its partials are taken by central differences.
    """
    if sol.kind != "axial":
        raise DomainError("axial preset needs an axial radial solution")
    prof = a_profile(sol)
    ell = mode.ell

    def ang(theta):
        x = np.cos(theta)
        return np.sin(theta) * _legendre_p_derivs(ell, x, 2)[2]

    def ang_dtheta(theta):
        x, s = np.cos(theta), np.sin(theta)
        _, _, d2, d3 = _legendre_p_derivs(ell, x, 3)
        return x * d2 - s * s * d3

    def q3(r, theta):
        return ang(theta) * prof.a(r) / r

    def dq3_dr(r, theta):
        return ang(theta) * (prof.a_prime(r) / r - prof.a(r) / r**2)

    def dq3_dtheta(r, theta):
        return ang_dtheta(theta) * prof.a(r) / r

    kwargs = dict(
        kind="axial",
        sigma=mode.sigma,
        epsilon=epsilon,
        q3=q3,
        dq3_dr=dq3_dr,
        dq3_dtheta=dq3_dtheta,
    )
    if q2_override is not None:
        kwargs["q2"] = q2_override
    return PerturbationProfiles(**kwargs)


def _metric_sph(bg, pert, t, r, theta, exact: bool):
    """Slice metric in (r, theta, phi) components, its (r, theta) partials,
    and its t-derivative, vectorized over broadcastable r/theta arrays.

    Component axes come first: (g, dg, dtg) have shapes (3, 3, ...),
    (2, 3, 3, ...) and (3, 3, ...), dg[k] being the partial along r (k = 0)
    or theta (k = 1); the metric does not depend on phi.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(r <= bg.horizon):
        raise DomainError("surface point at or inside the horizon")
    shape = np.broadcast(r, theta).shape
    r, theta = np.broadcast_to(r, shape), np.broadcast_to(theta, shape)
    s, c = np.sin(theta), np.cos(theta)
    f = 1.0 - 2.0 * bg.m / r

    g = np.zeros((3, 3) + shape)
    dg = np.zeros((2, 3, 3) + shape)
    dtg = np.zeros((3, 3) + shape)

    g[0, 0] = 1.0 / f
    g[1, 1] = r**2
    g[2, 2] = r**2 * s**2
    dg[0, 0, 0] = -2.0 * bg.m / (r**2 * f**2)
    dg[0, 1, 1] = 2.0 * r
    dg[0, 2, 2] = 2.0 * r * s**2
    dg[1, 2, 2] = 2.0 * r**2 * s * c

    if pert.kind == "none" or pert.epsilon == 0.0:
        return g, dg, dtg

    amp = pert.epsilon * math.sin(pert.sigma * t)
    damp = pert.epsilon * pert.sigma * math.cos(pert.sigma * t)

    if pert.kind == "polar":
        if pert.diag is None:
            return g, dg, dtg
        fd_pairs = [_fd_partials(p) for p in pert.diag]
        for i, p, (p_dr, p_dth) in zip(range(3), pert.diag, fd_pairs):
            pv = p(r, theta)
            g[i, i] *= 1.0 + 2.0 * amp * pv
            base = g[i, i] / (1.0 + 2.0 * amp * pv)
            dg[0, i, i] = dg[0, i, i] * (1.0 + 2.0 * amp * pv) + base * 2.0 * amp * p_dr(r, theta)
            dg[1, i, i] = dg[1, i, i] * (1.0 + 2.0 * amp * pv) + base * 2.0 * amp * p_dth(r, theta)
            dtg[i, i] = base * 2.0 * damp * pv
        return g, dg, dtg

    # axial; each profile is evaluated once and shared by the t-derivative
    p_fac = r**2 * s**2
    dp_dr = 2.0 * r * s**2
    dp_dth = 2.0 * r**2 * s * c
    q2, q3 = pert.q2(r, theta), pert.q3(r, theta)
    q2v, q3v = amp * q2, amp * q3
    dq2_dr = amp * pert.dq2_dr(r, theta)
    dq2_dth = amp * pert.dq2_dtheta(r, theta)
    dq3_dr = amp * pert.dq3_dr(r, theta)
    dq3_dth = amp * pert.dq3_dtheta(r, theta)
    dt_q2, dt_q3 = damp * q2, damp * q3

    def set_sym(target, i, j, val):
        target[i, j] = val
        target[j, i] = val

    set_sym(g, 0, 2, -p_fac * q2v)
    set_sym(g, 1, 2, -p_fac * q3v)
    set_sym(dg[0], 0, 2, -(dp_dr * q2v + p_fac * dq2_dr))
    set_sym(dg[0], 1, 2, -(dp_dr * q3v + p_fac * dq3_dr))
    set_sym(dg[1], 0, 2, -(dp_dth * q2v + p_fac * dq2_dth))
    set_sym(dg[1], 1, 2, -(dp_dth * q3v + p_fac * dq3_dth))
    set_sym(dtg, 0, 2, -p_fac * dt_q2)
    set_sym(dtg, 1, 2, -p_fac * dt_q3)

    if exact:
        g[0, 0] += p_fac * q2v**2
        g[1, 1] += p_fac * q3v**2
        set_sym(g, 0, 1, p_fac * q2v * q3v)
        dg[0, 0, 0] += dp_dr * q2v**2 + 2.0 * p_fac * q2v * dq2_dr
        dg[0, 1, 1] += dp_dr * q3v**2 + 2.0 * p_fac * q3v * dq3_dr
        dg[1, 0, 0] += dp_dth * q2v**2 + 2.0 * p_fac * q2v * dq2_dth
        dg[1, 1, 1] += dp_dth * q3v**2 + 2.0 * p_fac * q3v * dq3_dth
        set_sym(dg[0], 0, 1, dp_dr * q2v * q3v + p_fac * (dq2_dr * q3v + q2v * dq3_dr))
        set_sym(dg[1], 0, 1, dp_dth * q2v * q3v + p_fac * (dq2_dth * q3v + q2v * dq3_dth))
        dtg[0, 0] += 2.0 * p_fac * q2v * dt_q2
        dtg[1, 1] += 2.0 * p_fac * q3v * dt_q3
        set_sym(dtg, 0, 1, p_fac * (dt_q2 * q3v + q2v * dt_q3))

    return g, dg, dtg


def spatial_metric(
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    point,
    exact: bool = False,
):
    """Constant-t slice metric and its t-derivative at (t, r, theta, phi).

    By default quadratic-in-epsilon terms are dropped (first order); with
    ``exact=True`` the full squared one-form is kept.  ``surface_geometry``
    always uses the exact metric, so that symmetric epsilon-differencing
    isolates the linear response through one code path.
    """
    t, r, theta, _phi = point
    g, _, dtg = _metric_sph(bg, pert, t, np.asarray(r, float), np.asarray(theta, float), exact)
    g, dtg = (np.moveaxis(a, (0, 1), (-2, -1)) for a in (g, dtg))
    if np.isscalar(r) or np.asarray(r).ndim == 0:
        return g[0], dtg[0]
    return g, dtg


# ----------------------------------------------------------------------
# finite differences on the parameter grid
# ----------------------------------------------------------------------


def _extend_theta(arr: np.ndarray, sign: float) -> np.ndarray:
    """Three ghost rows on both sides via the antipodal continuation."""
    n_phi = arr.shape[1]
    if n_phi % 2:
        raise DomainError("antipodal ghost rows need an even n_phi")
    shift = n_phi // 2
    top = sign * np.roll(arr[:3][::-1], shift, axis=1)
    bottom = sign * np.roll(arr[-3:][::-1], shift, axis=1)
    return np.concatenate([top, arr, bottom], axis=0)


def _d_theta(arr, dth, sign):
    e = _extend_theta(arr, sign)
    j = np.arange(arr.shape[0]) + 3
    return (
        45.0 * (e[j + 1] - e[j - 1])
        - 9.0 * (e[j + 2] - e[j - 2])
        + (e[j + 3] - e[j - 3])
    ) / (60.0 * dth)


def _d2_theta(arr, dth, sign):
    e = _extend_theta(arr, sign)
    j = np.arange(arr.shape[0]) + 3
    return (
        -490.0 * e[j]
        + 270.0 * (e[j + 1] + e[j - 1])
        - 27.0 * (e[j + 2] + e[j - 2])
        + 2.0 * (e[j + 3] + e[j - 3])
    ) / (180.0 * dth**2)


def _d_phi(arr, dph):
    r = lambda k: np.roll(arr, -k, axis=1)
    return (45.0 * (r(1) - r(-1)) - 9.0 * (r(2) - r(-2)) + (r(3) - r(-3))) / (60.0 * dph)


def _d2_phi(arr, dph):
    r = lambda k: np.roll(arr, -k, axis=1)
    return (
        -490.0 * arr
        + 270.0 * (r(1) + r(-1))
        - 27.0 * (r(2) + r(-2))
        + 2.0 * (r(3) + r(-3))
    ) / (180.0 * dph**2)


def _det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


def _brioschi_K(E, F, G, dth, dph, theta_s):
    """Gauss curvature from the first fundamental form by the Brioschi formula.

    Finite differences act on the deviation from the exact round metric
    diag(1, sin^2 theta), whose derivatives are supplied in closed form;
    this keeps the near-pole cancellation detM1 - detM2 ~ sin^4 exact for
    the round part, so the pole rows do not amplify stencil error (the
    deviation is O(m/d) + O(epsilon) in the use cases here).
    """
    col = theta_s[:, None]
    round_G = np.sin(col) ** 2 * np.ones_like(G)
    scale = max(1.0, float(np.max(np.abs(E))), float(np.max(np.abs(G))))
    floor = 1e-13 * scale

    def dev(arr):
        # differencing sub-roundoff deviations only amplifies noise at the
        # pole rows (division by sin^4); treat them as exactly zero
        return None if np.max(np.abs(arr)) < floor else arr

    dE, dF, dG = dev(E - 1.0), dev(F), dev(G - round_G)
    zero = np.zeros_like(E)
    E_u = _d_theta(dE, dth, +1.0) if dE is not None else zero
    E_v = _d_phi(dE, dph) if dE is not None else zero
    E_vv = _d2_phi(dE, dph) if dE is not None else zero
    G_u = (_d_theta(dG, dth, +1.0) if dG is not None else zero) + np.sin(2.0 * col)
    G_v = _d_phi(dG, dph) if dG is not None else zero
    G_uu = (_d2_theta(dG, dth, +1.0) if dG is not None else zero) + 2.0 * np.cos(
        2.0 * col
    )
    F_u = _d_theta(dF, dth, -1.0) if dF is not None else zero
    F_v = _d_phi(dF, dph) if dF is not None else zero
    F_uv = _d_phi(_d_theta(dF, dth, -1.0), dph) if dF is not None else zero
    m1 = _det3(
        -0.5 * E_vv + F_uv - 0.5 * G_uu,
        0.5 * E_u,
        F_u - 0.5 * E_v,
        F_v - 0.5 * G_u,
        E,
        F,
        0.5 * G_v,
        F,
        G,
    )
    m2 = _det3(0.0 * E, 0.5 * E_v, 0.5 * G_u, 0.5 * E_v, E, F, 0.5 * G_u, F, G)
    return (m1 - m2) / (E * G - F**2) ** 2


def _midpoint_sine_weights(n: int) -> np.ndarray:
    """Weights w_j on theta_j = (j + 1/2) pi / n with
    sum_j w_j g(theta_j) = int_0^pi sin(theta) g(theta) dtheta
    exact for g = cos(k theta), k < n (Fejer-type rule)."""
    j = np.arange(n)
    theta = (j + 0.5) * np.pi / n
    w = np.full(n, 2.0 / n)
    for k in range(2, n, 2):
        w += (4.0 / (n * (1.0 - k * k))) * np.cos(k * theta)
    return w


# ----------------------------------------------------------------------
# the embedding in the ambient spherical chart
# ----------------------------------------------------------------------


def _chart_embedding(y, tangents, seconds):
    """The surface and its parameter derivatives in the (r, theta, phi) chart.

    ``y`` holds Cartesian points (3, ...) with y1 = r sin sin, y2 = r sin cos,
    y3 = r cos (phi = atan2(y1, y2)); ``tangents`` the exact derivatives
    along theta_s and phi_s, ``seconds`` the second derivatives (theta_s
    theta_s, theta_s phi_s, phi_s phi_s).  Returns r, theta, the chart
    tangents X (2, 3, ...) and second derivatives XX (2, 2, 3, ...).  The
    chart Jacobian J acts on each vector once; the chart's own second
    derivatives enter through the flat Christoffels of (r, theta, phi):
    X_ab = J dd_ab - Gamma_flat(X_a, X_b).
    """
    r = np.sqrt(np.sum(y * y, axis=0))
    u = y / r
    c = u[2]
    s = np.sqrt(np.maximum(1.0 - c * c, 1e-300))
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    rho2 = y[0] ** 2 + y[1] ** 2

    def chart(v):
        v_r = np.sum(u * v, axis=0)
        return np.stack([v_r, (c * v_r - v[2]) / (r * s), (y[1] * v[0] - y[0] * v[1]) / rho2])

    X = np.stack([chart(v) for v in tangents])
    XX = np.empty((2,) + X.shape)
    for (a, b), dd in zip(((0, 0), (0, 1), (1, 1)), seconds):
        xa, xb = X[a], X[b]
        x = chart(dd)
        x[0] += r * (xa[1] * xb[1] + s * s * xa[2] * xb[2])
        x[1] += s * c * xa[2] * xb[2] - (xa[0] * xb[1] + xa[1] * xb[0]) / r
        x[2] -= (xa[0] * xb[2] + xa[2] * xb[0]) / r + c / s * (xa[1] * xb[2] + xa[2] * xb[1])
        XX[a, b] = XX[b, a] = x
    return r, theta, X, XX


def _direction_vector(theta_d: float, phi_d: float) -> np.ndarray:
    return np.array(
        [
            math.sin(theta_d) * math.sin(phi_d),
            math.sin(theta_d) * math.cos(phi_d),
            math.cos(theta_d),
        ]
    )


def _orthonormal_completion(dhat: np.ndarray):
    aux = np.array([0.0, 0.0, 1.0]) if abs(dhat[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e2 = np.cross(aux, dhat)
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(dhat, e2)
    return e2, e3


# ----------------------------------------------------------------------
# main surface computation
# ----------------------------------------------------------------------


def _surface_integrals(induced, theta_s, *values) -> list[float]:
    """Integrals of pointwise grid quantities against dmu: the Fejer-type
    rule in theta_s on sqrt(det h) / sin(theta_s), the trapezoid rule in phi_s."""
    n_phi = induced.shape[1]
    w = _midpoint_sine_weights(len(theta_s))
    sqrt_h = np.sqrt(induced[..., 0, 0] * induced[..., 1, 1] - induced[..., 0, 1] ** 2)
    ratio = sqrt_h / np.sin(theta_s)[:, None]
    dphi = 2.0 * np.pi / n_phi
    return [float(np.einsum("j,jk->", w, v * ratio) * dphi) for v in values]


@dataclass(frozen=True)
class GeometryReport:
    """Pointwise surface data and integrals on the parameter grid."""

    spec: SurfaceSpec
    t: float
    n_theta: int
    n_phi: int
    theta_s: np.ndarray
    phi_s: np.ndarray
    induced: np.ndarray  # (n_theta, n_phi, 2, 2) induced metric
    gauss: np.ndarray  # K
    mean_norm: np.ndarray  # |H|
    hawking_line: np.ndarray  # K - |H|^2/4 - (|H| - 2)^2/4
    area: float
    gauss_bonnet: float  # integral of K dmu
    hawking_integral: float
    flags: tuple = ()

    def integrate(self, values: np.ndarray) -> float:
        """Surface integral of a pointwise grid quantity against dmu."""
        return _surface_integrals(self.induced, self.theta_s, values)[0]


def surface_geometry(
    spec: SurfaceSpec,
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    resolution: int = 96,
    t: float | None = None,
    gauss_bonnet_tol: float = 1e-6,
) -> GeometryReport:
    """Induced metric, K, |H| and the Hawking line of the surface.

    ``resolution`` is the number of colatitude rows of the parameter grid
    (n_phi = 2 * resolution).  The Gauss-Bonnet defect |int K dmu - 4 pi|
    acts as the resolution self-check; a defect above ``gauss_bonnet_tol``
    raises ResolutionError.
    """
    if resolution < 16:
        raise ResolutionError("resolution too coarse (need >= 16 rows)")
    spec.validate_outside_horizon(bg)
    t = spec.t if t is None else float(t)
    n_t, n_p = int(resolution), 2 * int(resolution)
    dth = np.pi / n_t
    dph = 2.0 * np.pi / n_p
    th_s = (np.arange(n_t) + 0.5) * dth
    ph_s = np.arange(n_p) * dph

    dhat = _direction_vector(spec.theta_d, spec.phi_d)
    dhat, e2, e3 = (v[:, None, None] for v in (dhat, *_orthonormal_completion(dhat)))
    ct, st = np.cos(th_s)[:, None], np.sin(th_s)[:, None]
    cp, sp = np.cos(ph_s), np.sin(ph_s)
    out = cp * e2 + sp * e3
    swirl = cp * e3 - sp * e2
    n_hat = ct * dhat + st * out
    r, theta, X, XX = _chart_embedding(
        spec.d * dhat + n_hat,
        (ct * out - st * dhat, st * swirl),
        (-n_hat, ct * swirl, -st * out),
    )
    g, dg, dtg = _metric_sph(bg, pert, t, r, theta, exact=True)

    def pull_back(m):
        return np.einsum("ij...,ai...,bj...->ab...", m, X, X)

    h = pull_back(g)
    det_h = h[0, 0] * h[1, 1] - h[0, 1] ** 2
    h_inv = np.stack([[h[1, 1], -h[0, 1]], [-h[0, 1], h[0, 0]]]) / det_h

    # unit normal within the slice, outward from the surface center: the
    # covector X_theta x X_phi annihilates both tangents, and the chart is
    # left-handed against y, so the outward one is its negative; it is
    # raised with the cofactors of the symmetric g over det g
    nu_cov = -np.cross(X[0], X[1], axis=0)
    k1, k2 = [1, 2, 0], [2, 0, 1]
    cof = g[k1][:, k1] * g[k2][:, k2] - g[k1][:, k2] * g[k2][:, k1]
    nu = np.einsum("ij...,j...->i...", cof, nu_cov) / np.sum(g[0] * cof[0], axis=0)
    norm = np.sqrt(np.sum(nu * nu_cov, axis=0))
    nu, nu_cov = nu / norm, nu_cov / norm

    # II_ab = nu_c X_ab^c + nu^f Gamma_{f,de} X_a^d X_b^e, where the
    # Christoffels of the first kind need only the (r, theta) partials.
    # Only h^{ab} II_ab is used, so the two terms of Gamma_{f,de} that
    # differentiate along X_a and X_b are taken as twice the first
    dg_nu = np.einsum("kij...,j...->ki...", dg, nu)
    d_nu_g = np.einsum("k...,kij...->ij...", nu[:2], dg)
    ii = (
        np.einsum("i...,abi...->ab...", nu_cov, XX)
        + np.einsum("ak...,ki...,bi...->ab...", X[:, :2], dg_nu, X)
        - 0.5 * pull_back(d_nu_g)
    )
    h_slice = -np.einsum("ab...,ab...->...", h_inv, ii)

    lapse = np.sqrt(1.0 - 2.0 * bg.m / r)
    tr_k = np.einsum("ab...,ab...->...", h_inv, pull_back(dtg)) / (2.0 * lapse)

    mean_sq = h_slice**2 - tr_k**2
    mean_norm = np.sqrt(np.maximum(mean_sq, 0.0))

    K = _brioschi_K(h[0, 0], h[0, 1], h[1, 1], dth, dph, th_s)
    hawking = K - 0.25 * mean_sq - 0.25 * (mean_norm - 2.0) ** 2

    induced = np.moveaxis(h, (0, 1), (-2, -1))
    area, gauss_bonnet, hawking_integral = _surface_integrals(induced, th_s, 1.0, K, hawking)

    defect = abs(gauss_bonnet - 4.0 * np.pi)
    if defect > gauss_bonnet_tol:
        raise ResolutionError(
            f"Gauss-Bonnet defect {defect:.3e} exceeds {gauss_bonnet_tol:.1e}; "
            "increase the resolution"
        )

    return GeometryReport(
        spec=spec,
        t=t,
        n_theta=n_t,
        n_phi=n_p,
        theta_s=th_s,
        phi_s=ph_s,
        induced=induced,
        gauss=K,
        mean_norm=mean_norm,
        hawking_line=hawking,
        area=area,
        gauss_bonnet=gauss_bonnet,
        hawking_integral=hawking_integral,
        flags=tuple(pert.flags()),
    )


def epsilon_derivative(
    spec: SurfaceSpec,
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    resolution: int = 96,
    t: float | None = None,
) -> np.ndarray:
    """First-order response of the Hawking line by symmetric differencing.

    (report(+eps) - report(-eps)) / (2 eps); both runs share one code path
    on the exact perturbed metric, so the result has an O(eps^2) error.
    """
    eps = pert.epsilon
    if eps == 0.0:
        raise DomainError("epsilon derivative needs a nonzero epsilon")
    plus = surface_geometry(spec, bg, pert, resolution, t, gauss_bonnet_tol=np.inf)
    minus = surface_geometry(
        spec, bg, pert.with_epsilon(-eps), resolution, t, gauss_bonnet_tol=np.inf
    )
    return (plus.hawking_line - minus.hawking_line) / (2.0 * eps)


def fit_powers(samples, powers=(0, 1, 2)):
    """``fit_inverse_powers`` of sum_k c_k / d^k on (d, value) pairs.

    Returns (coefficients, rms residual, condition number of the scaled
    normal matrix); used for the 1/d falloff of the Hawking-line integral.
    """
    return fit_inverse_powers(samples, powers)


def hawking_sweep(
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    d_values,
    spec_template: SurfaceSpec | None = None,
    resolution: int = 96,
    t: float | None = None,
    gauss_bonnet_tol: float = 1e-6,
    powers: tuple = (0, 1, 2, 3),
):
    """Hawking-line integrals across a d-sweep with an inverse-power fit.

    The integral carries genuine 1/d^3 content, so the default basis keeps
    the cubic term; with only {1, 1/d, 1/d^2} that content leaks ~1e-4 of
    itself into the fitted constant and masks the vanishing zeroth order.
    Empty ``powers`` skips the fit.
    """
    if spec_template is None:
        spec_template = SurfaceSpec()
    reports = []
    for d in np.atleast_1d(np.asarray(d_values, dtype=float)):
        spec = dataclasses.replace(spec_template, d=float(d))
        reports.append(
            surface_geometry(
                spec, bg, pert, resolution, t, gauss_bonnet_tol=gauss_bonnet_tol
            )
        )
    sweep = {
        "d_values": [r.spec.d for r in reports],
        "integrals": [r.hawking_integral for r in reports],
        "flags": sorted({f for r in reports for f in r.flags}),
        "reports": reports,
    }
    if powers:
        samples = zip(sweep["d_values"], sweep["integrals"])
        coeffs, resid, cond = fit_powers(samples, powers)
        sweep.update(zip(("constant", "c_over_d", "c_over_d2", "c_over_d3"), coeffs))
        sweep.update(coefficients=coeffs, residual=resid, condition=cond)
    return sweep
