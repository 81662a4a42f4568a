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
from .radial import AProfile, BackgroundParams, RadialSolution, a_profile
from .sphere import _legendre_p_derivs

__all__ = [
    "GeometryReport",
    "PerturbationProfiles",
    "axial_preset",
    "fit_powers",
    "hawking_sweep",
    "surface_geometry",
]

INCOMPLETE_FLAG = "incomplete-perturbation"


@dataclass(frozen=True)
class PerturbationProfiles:
    """Axial metric perturbation from A(r) of an axial radial solution, or none.

    With ell and sigma of ``profile.solution.mode``, g_{theta phi} = -r^2
    sin^2(theta) q3 with q3 = epsilon sin(sigma t) Q3(r, theta) and

        Q3 = C_ell(theta)/sin(theta) (r^2 - 2 m r)/(sigma^2 r^4) d(rZ)/dr
           = [sin(theta) P''_ell(cos theta)] A(r)/r,

    the second form pole-safe (C_ell/sin = sin * P'').  The r-phi profile q2
    is not modelled, so an axial profile carries the "incomplete-perturbation"
    flag.  ``epsilon`` must keep quadratic terms below validation tolerances.
    """

    profile: AProfile | None = None
    epsilon: float = 1e-3

    def __post_init__(self):
        if abs(self.epsilon) > 1e-2:
            raise DomainError("epsilon outside the linearization regime (|eps| <= 1e-2)")

    @classmethod
    def none(cls) -> "PerturbationProfiles":
        return cls(epsilon=0.0)

    def flags(self) -> list[str]:
        return [] if self.profile is None else [INCOMPLETE_FLAG]

    def spatial_profile(self, r, theta):
        """(Q3, dQ3/dr, dQ3/dtheta) at broadcastable r, theta; closed forms in A and A'.

        A and A' come from one ``AProfile.values`` pass over the distinct radii
        (a surface's chart radii repeat along each parameter row), gathered
        back to r's shape.
        """
        x, s = np.cos(theta), np.sin(theta)
        _, _, d2, d3 = _legendre_p_derivs(self.profile.solution.mode.ell, x, 3)
        ang = s * d2
        radii, where = np.unique(r, return_inverse=True)
        where = where.reshape(np.shape(r))
        a, a_prime, _ = self.profile.values(radii)
        a, a_prime = a[where], a_prime[where]
        return (
            ang * a / r,
            ang * (a_prime / r - a / r**2),
            (x * d2 - s * s * d3) * a / r,
        )


def axial_preset(sol: RadialSolution, epsilon: float = 1e-3) -> PerturbationProfiles:
    """The ``PerturbationProfiles`` of ``a_profile(sol)``, which rejects a polar solution."""
    return PerturbationProfiles(profile=a_profile(sol), epsilon=epsilon)


def _metric_sph(bg, pert, t, r, theta):
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

    if pert.profile is None or pert.epsilon == 0.0:
        return g, dg, dtg

    sigma = pert.profile.solution.mode.sigma
    amp = pert.epsilon * math.sin(sigma * t)
    damp = pert.epsilon * sigma * math.cos(sigma * t)

    # axial: g_{theta phi} = -g_{phi phi} q3, with Q3 evaluated once and
    # shared by the t-derivative
    p_fac, dp_dr, dp_dth = g[2, 2], dg[0, 2, 2], dg[1, 2, 2]
    q3, dq3_dr, dq3_dth = pert.spatial_profile(r, theta)
    q3v, dt_q3 = amp * q3, damp * q3
    dq3_dr, dq3_dth = amp * dq3_dr, amp * dq3_dth

    for target, val in (
        (g, -p_fac * q3v),
        (dg[0], -(dp_dr * q3v + p_fac * dq3_dr)),
        (dg[1], -(dp_dth * q3v + p_fac * dq3_dth)),
        (dtg, -p_fac * dt_q3),
    ):
        target[1, 2] = target[2, 1] = val

    # the quadratic term of the squared one-form
    g[1, 1] += p_fac * q3v**2
    dg[0, 1, 1] += dp_dr * q3v**2 + 2.0 * p_fac * q3v * dq3_dr
    dg[1, 1, 1] += dp_dth * q3v**2 + 2.0 * p_fac * q3v * dq3_dth
    dtg[1, 1] += 2.0 * p_fac * q3v * dt_q3

    return g, dg, dtg


# ----------------------------------------------------------------------
# finite differences on the parameter grid
# ----------------------------------------------------------------------


def _extend_theta(arr: np.ndarray, sign: float) -> np.ndarray:
    """Three ghost rows on both sides via the antipodal continuation."""
    shift = arr.shape[1] // 2  # n_phi = 2 * resolution is even
    top = sign * np.roll(arr[:3][::-1], shift, axis=1)
    bottom = sign * np.roll(arr[-3:][::-1], shift, axis=1)
    return np.concatenate([top, arr, bottom], axis=0)


def _extend_phi(arr: np.ndarray) -> np.ndarray:
    """Three periodic ghost columns on both sides."""
    return np.concatenate([arr[:, -3:], arr, arr[:, :3]], axis=1)


def _shifted(e: np.ndarray, axis: int):
    """k -> the copy of ``e`` shifted by k along ``axis``, three ghosts trimmed per side."""
    n = e.shape[axis] - 6
    return lambda k: e[(slice(None),) * axis + (slice(3 + k, 3 + k + n),)]


def _d1(e: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Order-6 centered first difference of the ghost-extended ``e`` along ``axis``."""
    s = _shifted(e, axis)
    return (45.0 * (s(1) - s(-1)) - 9.0 * (s(2) - s(-2)) + (s(3) - s(-3))) / (60.0 * step)


def _d2(e: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Order-6 centered second difference of the ghost-extended ``e`` along ``axis``."""
    s = _shifted(e, axis)
    return (
        -490.0 * s(0)
        + 270.0 * (s(1) + s(-1))
        - 27.0 * (s(2) + s(-2))
        + 2.0 * (s(3) + s(-3))
    ) / (180.0 * step**2)


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
        return np.zeros_like(arr) if np.max(np.abs(arr)) < floor else arr

    dE, dF, dG = dev(E - 1.0), dev(F), dev(G - round_G)
    dE_phi, dG_theta = _extend_phi(dE), _extend_theta(dG, +1.0)
    E_u = _d1(_extend_theta(dE, +1.0), 0, dth)
    E_v = _d1(dE_phi, 1, dph)
    E_vv = _d2(dE_phi, 1, dph)
    G_u = _d1(dG_theta, 0, dth) + np.sin(2.0 * col)
    G_v = _d1(_extend_phi(dG), 1, dph)
    G_uu = _d2(dG_theta, 0, dth) + 2.0 * np.cos(2.0 * col)
    F_u = _d1(_extend_theta(dF, -1.0), 0, dth)
    F_v = _d1(_extend_phi(dF), 1, dph)
    F_uv = _d1(_extend_phi(F_u), 1, dph)
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


def _surface_integrals(det_h, theta_s, *values) -> list[float]:
    """Integrals of pointwise grid quantities against dmu: the Fejer-type
    rule in theta_s on sqrt(det h) / sin(theta_s), the trapezoid rule in phi_s."""
    n_phi = det_h.shape[1]
    w = _midpoint_sine_weights(len(theta_s))
    ratio = np.sqrt(det_h) / np.sin(theta_s)[:, None]
    dphi = 2.0 * np.pi / n_phi
    return [float(np.einsum("j,jk->", w, v * ratio) * dphi) for v in values]


@dataclass(frozen=True)
class GeometryReport:
    """Pointwise surface data and integrals on the parameter grid."""

    spec: SurfaceSpec
    n_theta: int
    n_phi: int
    theta_s: np.ndarray
    phi_s: np.ndarray
    gauss: np.ndarray  # K
    mean_norm: np.ndarray  # |H|
    hawking_line: np.ndarray  # K - |H|^2/4 - (|H| - 2)^2/4
    area: float
    gauss_bonnet: float  # integral of K dmu
    hawking_integral: float
    flags: tuple = ()


def surface_geometry(
    spec: SurfaceSpec,
    bg: BackgroundParams,
    pert: PerturbationProfiles,
    resolution: int = 96,
    gauss_bonnet_tol: float = 1e-6,
) -> GeometryReport:
    """Induced metric, K, |H| and the Hawking line of the surface at time ``spec.t``.

    ``resolution`` is the number of colatitude rows of the parameter grid
    (n_phi = 2 * resolution).  The Gauss-Bonnet defect |int K dmu - 4 pi|
    acts as the resolution self-check; a defect above ``gauss_bonnet_tol``
    raises ResolutionError.
    """
    if resolution < 16:
        raise ResolutionError("resolution too coarse (need >= 16 rows)")
    spec.validate_outside_horizon(bg)
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
    g, dg, dtg = _metric_sph(bg, pert, spec.t, r, theta)

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

    area, gauss_bonnet, hawking_integral = _surface_integrals(det_h, th_s, 1.0, K, hawking)

    defect = abs(gauss_bonnet - 4.0 * np.pi)
    if defect > gauss_bonnet_tol:
        raise ResolutionError(
            f"Gauss-Bonnet defect {defect:.3e} exceeds {gauss_bonnet_tol:.1e}; "
            "increase the resolution"
        )

    return GeometryReport(
        spec=spec,
        n_theta=n_t,
        n_phi=n_p,
        theta_s=th_s,
        phi_s=ph_s,
        gauss=K,
        mean_norm=mean_norm,
        hawking_line=hawking,
        area=area,
        gauss_bonnet=gauss_bonnet,
        hawking_integral=hawking_integral,
        flags=tuple(pert.flags()),
    )


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
    gauss_bonnet_tol: float = 1e-6,
    powers: tuple = (0, 1, 2, 3),
):
    """Hawking-line integrals across a d-sweep with an inverse-power fit.

    The integral carries genuine 1/d^3 content, so the default basis keeps
    the cubic term; with only {1, 1/d, 1/d^2} that content leaks ~1e-4 of
    itself into the fitted constant and masks the vanishing zeroth order.
    Each coefficient is stored under the name of its power: "constant",
    "c_over_d", then "c_over_d<k>".  Empty ``powers`` skips the fit.
    """
    if spec_template is None:
        spec_template = SurfaceSpec()
    reports = []
    for d in np.atleast_1d(np.asarray(d_values, dtype=float)):
        spec = dataclasses.replace(spec_template, d=float(d))
        reports.append(
            surface_geometry(spec, bg, pert, resolution, gauss_bonnet_tol=gauss_bonnet_tol)
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
        names = {0: "constant", 1: "c_over_d"}
        sweep.update((names.get(k, f"c_over_d{k}"), c) for k, c in zip(powers, coeffs))
        sweep.update(coefficients=coeffs, residual=resid, condition=cond)
    return sweep
