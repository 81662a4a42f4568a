"""Induced geometry of the unit sphere: Gauss curvature, |H|, Hawking line.

Validation path for the energy pipeline.  The surface is parameterized by a
unit sphere whose polar axis points along the center direction; ambient
computations run in Cartesian components, where the embedding derivatives
are exact trigonometry and the coordinate axis of the ambient spherical
chart never intersects the surface for the default equatorial direction.

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
tensor-component sign flips it implies.
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
    downstream report "incomplete-perturbation".  ``q2_override`` may be a
    callable Q2(r, theta) or a (Q2, dQ2_dr, dQ2_dtheta) triple.
    """
    if sol.kind != "axial":
        raise DomainError("axial preset needs an axial radial solution")
    prof = a_profile(sol, bg, mode)
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
        if isinstance(q2_override, tuple):
            kwargs["q2"], kwargs["dq2_dr"], kwargs["dq2_dtheta"] = q2_override
        else:
            kwargs["q2"] = q2_override
    return PerturbationProfiles(**kwargs)


def _metric_sph(bg, pert, t, r, theta, exact: bool):
    """Slice metric in (r, theta, phi) components, its (r, theta) partials,
    and its t-derivative, vectorized over broadcastable r/theta arrays.

    Returns (g, dg, dtg) with shapes (..., 3, 3), (..., 2, 3, 3), (..., 3, 3).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if np.any(r <= bg.horizon):
        raise DomainError("surface point at or inside the horizon")
    shape = np.broadcast(r, theta).shape
    r, theta = np.broadcast_to(r, shape), np.broadcast_to(theta, shape)
    s, c = np.sin(theta), np.cos(theta)
    f = 1.0 - 2.0 * bg.m / r

    g = np.zeros(shape + (3, 3))
    dg = np.zeros(shape + (2, 3, 3))
    dtg = np.zeros(shape + (3, 3))

    g[..., 0, 0] = 1.0 / f
    g[..., 1, 1] = r**2
    g[..., 2, 2] = r**2 * s**2
    dg[..., 0, 0, 0] = -2.0 * bg.m / (r**2 * f**2)
    dg[..., 0, 1, 1] = 2.0 * r
    dg[..., 0, 2, 2] = 2.0 * r * s**2
    dg[..., 1, 2, 2] = 2.0 * r**2 * s * c

    if pert.kind == "none" or pert.epsilon == 0.0:
        return g, dg, dtg

    amp = pert.epsilon * math.sin(pert.sigma * t)
    damp = pert.epsilon * pert.sigma * math.cos(pert.sigma * t)

    if pert.kind == "polar":
        if pert.diag is None:
            return g, dg, dtg
        names = [(0, 0), (1, 1), (2, 2)]
        fd_pairs = [_fd_partials(p) for p in pert.diag]
        for (i, j), p, (p_dr, p_dth) in zip(names, pert.diag, fd_pairs):
            pv = p(r, theta)
            g[..., i, j] *= 1.0 + 2.0 * amp * pv
            base = g[..., i, j] / (1.0 + 2.0 * amp * pv)
            dg[..., 0, i, j] = dg[..., 0, i, j] * (1.0 + 2.0 * amp * pv) + base * 2.0 * amp * p_dr(r, theta)
            dg[..., 1, i, j] = dg[..., 1, i, j] * (1.0 + 2.0 * amp * pv) + base * 2.0 * amp * p_dth(r, theta)
            dtg[..., i, j] = base * 2.0 * damp * pv
        return g, dg, dtg

    # axial
    p_fac = r**2 * s**2
    dp_dr = 2.0 * r * s**2
    dp_dth = 2.0 * r**2 * s * c
    q2v = amp * pert.q2(r, theta)
    q3v = amp * pert.q3(r, theta)
    dq2_dr = amp * pert.dq2_dr(r, theta)
    dq2_dth = amp * pert.dq2_dtheta(r, theta)
    dq3_dr = amp * pert.dq3_dr(r, theta)
    dq3_dth = amp * pert.dq3_dtheta(r, theta)
    dt_q2 = damp * pert.q2(r, theta)
    dt_q3 = damp * pert.q3(r, theta)

    def set_sym(target, i, j, val):
        target[..., i, j] = val
        target[..., j, i] = val

    set_sym(g, 0, 2, -p_fac * q2v)
    set_sym(g, 1, 2, -p_fac * q3v)
    set_sym(dg[..., 0, :, :], 0, 2, -(dp_dr * q2v + p_fac * dq2_dr))
    set_sym(dg[..., 0, :, :], 1, 2, -(dp_dr * q3v + p_fac * dq3_dr))
    set_sym(dg[..., 1, :, :], 0, 2, -(dp_dth * q2v + p_fac * dq2_dth))
    set_sym(dg[..., 1, :, :], 1, 2, -(dp_dth * q3v + p_fac * dq3_dth))
    set_sym(dtg, 0, 2, -p_fac * dt_q2)
    set_sym(dtg, 1, 2, -p_fac * dt_q3)

    if exact:
        g[..., 0, 0] += p_fac * q2v**2
        g[..., 1, 1] += p_fac * q3v**2
        set_sym(g, 0, 1, p_fac * q2v * q3v)
        dg[..., 0, 0, 0] += dp_dr * q2v**2 + 2.0 * p_fac * q2v * dq2_dr
        dg[..., 0, 1, 1] += dp_dr * q3v**2 + 2.0 * p_fac * q3v * dq3_dr
        dg[..., 1, 0, 0] += dp_dth * q2v**2 + 2.0 * p_fac * q2v * dq2_dth
        dg[..., 1, 1, 1] += dp_dth * q3v**2 + 2.0 * p_fac * q3v * dq3_dth
        set_sym(dg[..., 0, :, :], 0, 1, dp_dr * q2v * q3v + p_fac * (dq2_dr * q3v + q2v * dq3_dr))
        set_sym(dg[..., 1, :, :], 0, 1, dp_dth * q2v * q3v + p_fac * (dq2_dth * q3v + q2v * dq3_dth))
        dtg[..., 0, 0] += 2.0 * p_fac * q2v * dt_q2
        dtg[..., 1, 1] += 2.0 * p_fac * q3v * dt_q3
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
    ``exact=True`` the full squared one-form is kept, which the geometry
    engine uses so that symmetric epsilon-differencing isolates the linear
    response through one code path.
    """
    t, r, theta, _phi = point
    g, _, dtg = _metric_sph(bg, pert, t, np.asarray(r, float), np.asarray(theta, float), exact)
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
# ambient chart derivatives
# ----------------------------------------------------------------------


def _spherical_chart(y: np.ndarray):
    """(r, theta, phi) with first and second partials w.r.t. Cartesian y.

    Axis convention matches y1 = r sin sin, y2 = r sin cos, y3 = r cos, i.e.
    phi = atan2(y1, y2).  Shapes: coords (..., 3), jac (..., 3, 3) indexed
    [a, i] = dx^a/dy^i, hess (..., 3, 3, 3) indexed [a, i, j].
    """
    r = np.linalg.norm(y, axis=-1)
    u = y / r[..., None]
    c = u[..., 2]
    s = np.sqrt(np.maximum(1.0 - c * c, 1e-300))
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    phi = np.arctan2(y[..., 0], y[..., 1])
    rho2 = y[..., 0] ** 2 + y[..., 1] ** 2

    sh = y.shape[:-1]
    eye = np.broadcast_to(np.eye(3), sh + (3, 3))
    jac = np.zeros(sh + (3, 3))
    jac[..., 0, :] = u
    e3 = np.zeros(sh + (3,))
    e3[..., 2] = 1.0
    jac[..., 1, :] = (c[..., None] * u - e3) / (r * s)[..., None]
    jac[..., 2, 0] = y[..., 1] / rho2
    jac[..., 2, 1] = -y[..., 0] / rho2
    # jac[..., 2, 2] stays 0

    hess = np.zeros(sh + (3, 3, 3))
    du = (eye - u[..., :, None] * u[..., None, :]) / r[..., None, None]
    hess[..., 0, :, :] = du
    # theta block
    T = jac[..., 1, :]
    dc = (e3 - c[..., None] * u) / r[..., None]
    inv_rs = 1.0 / (r * s)
    d_inv_rs = -(u / r[..., None] + (c / s)[..., None] * T) * inv_rs[..., None]
    hess[..., 1, :, :] = (
        dc[..., None, :] * u[..., :, None]
        + c[..., None, None] * du
    ) * inv_rs[..., None, None] + (c[..., None] * u - e3)[..., :, None] * d_inv_rs[..., None, :]
    # phi block
    w = y.copy()
    w[..., 2] = 0.0
    hess[..., 2, 0, :] = eye[..., 1, :] / rho2[..., None] - 2.0 * y[..., 1, None] * w / rho2[..., None] ** 2
    hess[..., 2, 1, :] = -eye[..., 0, :] / rho2[..., None] + 2.0 * y[..., 0, None] * w / rho2[..., None] ** 2
    return r, theta, phi, jac, hess


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
        w = _midpoint_sine_weights(self.n_theta)
        sqrt_h = np.sqrt(
            self.induced[..., 0, 0] * self.induced[..., 1, 1]
            - self.induced[..., 0, 1] ** 2
        )
        dphi = 2.0 * np.pi / self.n_phi
        ratio = sqrt_h / np.sin(self.theta_s)[:, None]
        return float(np.einsum("j,jk->", w, values * ratio) * dphi)


def surface_geometry(
    spec: SurfaceSpec,
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    resolution: int = 96,
    t: float | None = None,
    gauss_bonnet_tol: float = 1e-6,
    exact_metric: bool = True,
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
    e2, e3 = _orthonormal_completion(dhat)
    ct, st = np.cos(th_s)[:, None, None], np.sin(th_s)[:, None, None]
    cp, sp = np.cos(ph_s)[None, :, None], np.sin(ph_s)[None, :, None]
    n_hat = ct * dhat + st * (cp * e2 + sp * e3)
    y = spec.d * dhat + n_hat

    # exact embedding derivatives
    e_th = -st * dhat + ct * (cp * e2 + sp * e3)
    e_ph = st * (-sp * e2 + cp * e3)
    dd_thth = -n_hat
    dd_thph = ct * (-sp * e2 + cp * e3)
    dd_phph = -st * (cp * e2 + sp * e3)

    r, theta, _phi, jac, chess = _spherical_chart(y)
    g_sph, dg_sph, dtg_sph = _metric_sph(bg, pert, t, r, theta, exact_metric)

    g_cart = np.einsum("...ai,...ab,...bj->...ij", jac, g_sph, jac)
    # dG_cart/dy_k: chart-hessian terms plus chain rule through (r, theta)
    dg_chain = np.einsum("...cab,...ck->...kab", dg_sph, jac[..., :2, :])
    dg_cart = (
        np.einsum("...aik,...ab,...bj->...kij", chess, g_sph, jac)
        + np.einsum("...ai,...ab,...bjk->...kij", jac, g_sph, chess)
        + np.einsum("...ai,...kab,...bj->...kij", jac, dg_chain, jac)
    )
    dtg_cart = np.einsum("...ai,...ab,...bj->...ij", jac, dtg_sph, jac)

    g_inv = np.linalg.inv(g_cart)
    # Christoffels of the slice metric in Cartesian components;
    # dg_cart[..., k, i, j] = d_k g_ij
    gamma = 0.5 * (
        np.einsum("...kl,...ilj->...kij", g_inv, dg_cart)
        + np.einsum("...kl,...jli->...kij", g_inv, dg_cart)
        - np.einsum("...kl,...lij->...kij", g_inv, dg_cart)
    )

    # induced metric
    tang = np.stack([e_th, e_ph], axis=-2)  # (..., 2, 3)
    h = np.einsum("...ai,...ij,...bj->...ab", tang, g_cart, tang)
    det_h = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] ** 2
    h_inv = np.empty_like(h)
    h_inv[..., 0, 0] = h[..., 1, 1] / det_h
    h_inv[..., 1, 1] = h[..., 0, 0] / det_h
    h_inv[..., 0, 1] = h_inv[..., 1, 0] = -h[..., 0, 1] / det_h

    # unit normal within the slice (outward from the surface center)
    cross = np.cross(e_th, e_ph)
    nu = np.einsum("...ij,...j->...i", g_inv, cross)
    nu_norm = np.sqrt(np.einsum("...i,...ij,...j->...", nu, g_cart, nu))
    nu /= nu_norm[..., None]
    orient = np.einsum("...i,...ij,...j->...", nu, g_cart, n_hat)
    nu *= np.sign(orient)[..., None]
    nu_cov = np.einsum("...ij,...j->...i", g_cart, nu)

    def second_form(dd, ea, eb):
        return np.einsum(
            "...k,...k->...",
            nu_cov,
            dd + np.einsum("...kij,...i,...j->...k", gamma, ea, eb),
        )

    ii = np.empty(h.shape)
    ii[..., 0, 0] = second_form(dd_thth, e_th, e_th)
    ii[..., 0, 1] = ii[..., 1, 0] = second_form(dd_thph, e_th, e_ph)
    ii[..., 1, 1] = second_form(dd_phph, e_ph, e_ph)
    h_slice = -np.einsum("...ab,...ab->...", h_inv, ii)

    lapse = np.sqrt(1.0 - 2.0 * bg.m / r)
    k_cart = dtg_cart / (2.0 * lapse[..., None, None])
    tr_k = np.einsum("...ab,...ai,...bj,...ij->...", h_inv, tang, tang, k_cart)

    mean_sq = h_slice**2 - tr_k**2
    mean_norm = np.sqrt(np.maximum(mean_sq, 0.0))

    K = _brioschi_K(h[..., 0, 0], h[..., 0, 1], h[..., 1, 1], dth, dph, th_s)
    hawking = K - 0.25 * mean_sq - 0.25 * (mean_norm - 2.0) ** 2

    w = _midpoint_sine_weights(n_t)
    sqrt_h = np.sqrt(det_h)
    ratio = sqrt_h / np.sin(th_s)[:, None]
    area = float(np.einsum("j,jk->", w, ratio) * dph)
    gauss_bonnet = float(np.einsum("j,jk->", w, K * ratio) * dph)
    hawking_integral = float(np.einsum("j,jk->", w, hawking * ratio) * dph)

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
        induced=h,
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
