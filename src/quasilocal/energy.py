"""Energy coefficients, assembled E(t, d), mass-density bracket, loops, fits.

The assembled energy of the unit sphere at distance d carries the falloff
factor explicitly in both the energy and its time derivative:

    E(t, d)    = c_factor / d^2 * [sin^2(sigma t) E1 + sigma^2 cos^2(sigma t) E2]
    dE/dt(t,d) = c_factor * sigma * sin(2 sigma t) / d^2 * [E1 - sigma^2 E2]

so the two expressions are exact time derivatives of one another.  The
direction constant C_ell(theta_d)^2 and the squared mode amplitude enter only
through ``c_factor`` (both are excluded from E1, E2; see
EnergyCoefficients.amplitude_convention), so alternative placements of the
overall constant cost a single multiplication.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embedding import (
    EmbeddingSolution,
    SurfaceSpec,
    build_sources,
    radius_on_sphere,
    solve_embedding,
)
from .errors import ConfigError, DomainError, FitError
from .radial import AProfile, AxialMode, BackgroundParams, a_profile, solve_radial
from .sphere import (
    GridField,
    HarmonicField,
    SphereDerivatives,
    SphereGrid,
    _harmonic_derivatives,
    analyze,
    apply_operator,
    c_theta,
    coordinate_fields,
    evaluate,
    integrate,
    synthesize,
)

__all__ = [
    "DecayFit",
    "EnergyCoefficients",
    "EnergyReport",
    "LoopSpec",
    "assemble_energy",
    "energy_coefficients",
    "fit_decay",
    "fit_inverse_powers",
    "grad_outer_double_divergence",
    "loop_integral",
    "rho_bracket",
    "surface_embedding",
    "surface_energy",
    "sweep_energy",
]


@dataclass(frozen=True)
class EnergyCoefficients:
    """The two sphere integrals entering the assembled energy."""

    e1: float
    e2: float
    amplitude_convention: str = (
        "E1, E2 are computed from a unit-amplitude radial solution and exclude "
        "the direction constant C_ell(theta_d); attach both via c_factor = "
        "C_ell(theta_d)^2 * amplitude^2"
    )


def energy_coefficients(
    a: AProfile,
    spec: SurfaceSpec,
    emb: EmbeddingSolution,
) -> EnergyCoefficients:
    """Evaluate E1 and E2 on a product grid sized for quadratic integrands.

    E1 = int (1/2) [A^2 z2^2 (7 z3^2 + 1) + 2 A A' z1 z3^2 (3 z2^2 - 1)
                    - N (Delta + 2) N]
    E2 = int [A^2 z2^2 z3^2 - tau Delta(Delta + 2) tau]

    A and A' are evaluated with the same z1 substitution used for the
    embedding sources.  Operator terms are computed spectrally and
    integrated by quadrature.
    """
    # sized for degree-2*l_max products (anti-aliased quadrature)
    grid = SphereGrid.for_band_limit(2 * emb.l_max)
    z1, z2, z3 = coordinate_fields(grid)
    r = radius_on_sphere(spec, z1.values)
    av = a.a(r)
    apv = a.a_prime(r)

    tau_g = synthesize(emb.tau, grid).values
    n_g = synthesize(emb.n_field, grid).values
    op_n = synthesize(apply_operator(emb.n_field, "laplacian_plus_2"), grid).values
    op_tau = synthesize(
        apply_operator(emb.tau, "laplacian_laplacian_plus_2"), grid
    ).values

    z1v, z2v, z3v = z1.values, z2.values, z3.values
    e1_integrand = 0.5 * (
        av**2 * z2v**2 * (7.0 * z3v**2 + 1.0)
        + 2.0 * av * apv * z1v * z3v**2 * (3.0 * z2v**2 - 1.0)
        - n_g * op_n
    )
    e2_integrand = av**2 * z2v**2 * z3v**2 - tau_g * op_tau
    e1 = integrate(GridField(e1_integrand, grid))
    e2 = integrate(GridField(e2_integrand, grid))
    return EnergyCoefficients(e1=e1, e2=e2)


def assemble_energy(
    coeffs: EnergyCoefficients,
    mode: AxialMode,
    spec: SurfaceSpec,
    c_factor: float,
    t=None,
):
    """Closed-form E(t, d) and dE/dt for the given coefficients.

    ``c_factor`` carries C_ell(theta_d)^2 * amplitude^2 explicitly.
    """
    tt = np.asarray(spec.t if t is None else t, dtype=float)
    sigma = mode.sigma
    d2 = spec.d**2
    e = (c_factor / d2) * (
        np.sin(sigma * tt) ** 2 * coeffs.e1
        + sigma**2 * np.cos(sigma * tt) ** 2 * coeffs.e2
    )
    dedt = (c_factor * sigma * np.sin(2.0 * sigma * tt) / d2) * (
        coeffs.e1 - sigma**2 * coeffs.e2
    )
    return e, dedt


def grad_outer_double_divergence(h: HarmonicField, grid: SphereGrid) -> GridField:
    """nabla^a nabla^b (tau_a tau_b) for tau_a = grad tau, evaluated pointwise.

    On the unit sphere Ricci commutation gives the exact expansion

        nabla^a nabla^b (tau_a tau_b)
            = |Hess tau|^2 + (Delta tau)^2 + |grad tau|^2
              + 2 grad tau . grad(Delta tau),

    every term of which is available from the scalar spectral machinery, so
    the result is exact at grid points for band-limited tau.
    """
    return GridField(_double_divergence(h, _harmonic_derivatives(h, grid), grid), grid)


def _double_divergence(h: HarmonicField, d: SphereDerivatives, grid: SphereGrid) -> np.ndarray:
    """``grad_outer_double_divergence`` values, given the derivatives ``d`` of ``h``."""
    dl = _harmonic_derivatives(apply_operator(h, "laplacian"), grid)
    cross = (
        d.grad_theta.values * dl.grad_theta.values
        + d.grad_phi.values * dl.grad_phi.values
    )
    return d.hess_sq.values + d.laplacian.values**2 + d.grad_sq.values + 2.0 * cross


def rho_bracket(emb: EmbeddingSolution, grid: SphereGrid, d: float) -> GridField:
    """The 1/d^2 block of the quasi-local mass density, pointwise.

    (1/d^2) { (1/2)|Hess N|^2 + ((Delta+2)N)^2 - (1/4)(Delta N)^2
              - (1/4)(Delta tau)^2
              + (1/2)[nabla^a nabla^b(tau_a tau_b) - |grad tau|^2
                      - Delta |grad tau|^2] }

    Quadrature of the result is exact when ``grid`` supports twice the
    band limit of the embedding solution.  Derivatives are synthesized
    straight from the solution's coefficients, each once.
    """
    nd = _harmonic_derivatives(emb.n_field, grid)
    td = _harmonic_derivatives(emb.tau, grid)
    op_n = synthesize(apply_operator(emb.n_field, "laplacian_plus_2"), grid).values
    ddiv = _double_divergence(emb.tau, td, grid)
    # Delta |grad tau|^2: the squared gradient is band-limited at twice the
    # solution's l_max, so analysis on the working grid is exact.
    lap_gradsq = synthesize(
        apply_operator(analyze(td.grad_sq), "laplacian"), grid
    ).values
    vals = (
        0.5 * nd.hess_sq.values
        + op_n**2
        - 0.25 * nd.laplacian.values**2
        - 0.25 * td.laplacian.values**2
        + 0.5 * (ddiv - td.grad_sq.values - lap_gradsq)
    ) / d**2
    return GridField(vals, grid)


class LoopSpec:
    """Closed parametric curve (theta(s), phi(s)) on the sphere, s in [0, 1].

    phi may wind any integer number of turns; closure is enforced to 1e-12.
    Samples are uniform in s with the endpoint excluded (periodic).
    """

    def __init__(self, theta_fn, phi_fn, n_samples: int = 256):
        if n_samples < 8:
            raise DomainError("need at least 8 samples")
        th0, th1 = float(theta_fn(0.0)), float(theta_fn(1.0))
        ph0, ph1 = float(phi_fn(0.0)), float(phi_fn(1.0))
        winding = round((ph1 - ph0) / (2.0 * math.pi))
        if abs(th1 - th0) > 1e-12 or abs(ph1 - ph0 - 2.0 * math.pi * winding) > 1e-12:
            raise DomainError("loop is not closed to 1e-12")
        self.n_samples = int(n_samples)
        self.winding = int(winding)
        s = np.arange(n_samples) / n_samples
        self.s = s
        self.theta = np.asarray([float(theta_fn(v)) for v in s])
        self.phi = np.asarray([float(phi_fn(v)) for v in s])

    @classmethod
    def equator(cls, n_samples: int = 256) -> "LoopSpec":
        return cls(lambda s: math.pi / 2.0, lambda s: 2.0 * math.pi * s, n_samples)

    @classmethod
    def circle(cls, theta0: float, n_samples: int = 256) -> "LoopSpec":
        """Coordinate circle at fixed colatitude."""
        return cls(lambda s: theta0, lambda s: 2.0 * math.pi * s, n_samples)

    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Central differences with periodic wrap (phi unwound by the winding)."""
        ds = 1.0 / self.n_samples
        dth = (np.roll(self.theta, -1) - np.roll(self.theta, 1)) / (2.0 * ds)
        fwd = np.roll(self.phi, -1)
        bwd = np.roll(self.phi, 1)
        fwd[-1] += 2.0 * math.pi * self.winding
        bwd[0] -= 2.0 * math.pi * self.winding
        dphi = (fwd - bwd) / (2.0 * ds)
        return dth, dphi

    def speed(self) -> np.ndarray:
        """|gamma'(s)| at the samples (round unit-sphere metric)."""
        dth, dphi = self._derivatives()
        return np.sqrt(dth**2 + np.sin(self.theta) ** 2 * dphi**2)

    def arc_length(self) -> float:
        return float(np.mean(self.speed()))

    def quadrature(self, vals: np.ndarray) -> float:
        """Periodic rectangle rule for the arc-length integral of the samples ``vals``."""
        return float(np.sum(vals * self.speed()) * (1.0 / self.n_samples))


def loop_integral(fld, loop: LoopSpec) -> float:
    """Arc-length line integral of a scalar field along the loop.

    The field is synthesized pointwise from its harmonic coefficients, so a
    GridField is analyzed at its grid band limit first.  Composite (periodic
    rectangle) quadrature over the parameter samples; the finite-difference
    speed makes the scheme second-order in the sample count.
    """
    h = analyze(fld) if isinstance(fld, GridField) else fld
    return loop.quadrature(evaluate(h, loop.theta, loop.phi))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares coefficients of c1/d + c2/d^2 + c3/d^3."""

    c1: float
    c2: float
    c3: float
    residual: float
    condition: float


def fit_inverse_powers(samples, powers):
    """Least squares of sum_k c_k / d^k on (d, value) pairs, by normal equations.

    The basis is evaluated in x = d_min/d to keep the normal matrix
    well-conditioned.  Returns (coefficients, rms residual, condition number
    of the scaled normal matrix); a condition number above 1e15 raises
    FitError.
    """
    pts = sorted((float(d), float(v)) for d, v in samples)
    d = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if len(np.unique(d)) < len(powers) + 1:
        raise FitError("need more distinct d values than fit powers")
    x = d.min() / d
    design = np.vstack([x**k for k in powers]).T
    gram = design.T @ design
    condition = float(np.linalg.cond(gram))
    if not np.isfinite(condition) or condition > 1e15:
        raise FitError(f"degenerate design matrix (condition {condition:.3g})")
    coef = np.linalg.solve(gram, design.T @ y)
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return [float(c * d.min() ** k) for c, k in zip(coef, powers)], resid, condition


def fit_decay(samples) -> DecayFit:
    """Fit E(d) = c1/d + c2/d^2 + c3/d^3 with ``fit_inverse_powers``.

    ``samples`` is an iterable of (d, E) pairs; needs at least four distinct
    d values spanning at least a factor of four.
    """
    pts = list(samples)
    d = np.array([float(p[0]) for p in pts])
    if len(np.unique(d)) < 4:
        raise FitError("need at least 4 distinct d values")
    if d.max() < 4.0 * d.min():
        raise FitError("d values must span at least a factor of 4")
    (c1, c2, c3), resid, condition = fit_inverse_powers(pts, (1, 2, 3))
    return DecayFit(c1=c1, c2=c2, c3=c3, residual=resid, condition=condition)


@dataclass(frozen=True)
class SurfaceEnergyResult:
    """Everything computed for one surface: coefficients, solution, energies."""

    spec: SurfaceSpec
    coefficients: EnergyCoefficients
    embedding: EmbeddingSolution
    profile: AProfile
    c_factor: float
    e: np.ndarray
    dedt: np.ndarray
    t_values: np.ndarray


def default_c_factor(mode: AxialMode, spec: SurfaceSpec) -> float:
    """C_ell(theta_d)^2 * amplitude^2, the constant excluded from E1/E2."""
    return float(c_theta(mode.ell, spec.theta_d)) ** 2 * mode.amplitude**2


def surface_embedding(
    bg: BackgroundParams,
    mode: AxialMode,
    boundary,
    spec: SurfaceSpec,
    l_max: int = 16,
    tol: float = 1e-10,
):
    """Radial solve, A(r), embedding sources and spectral solve for one surface.

    The radial solution is integrated at unit amplitude over the surface's
    radial coverage.  Returns (profile, s_tau, s_n, embedding).  A(r) exists
    for axial modes only, so any other mode is rejected before integrating.
    """
    if mode.kind != "axial":
        raise ConfigError(
            f"A(r) is defined for axial solutions only; mode kind is {mode.kind!r}"
        )
    spec.validate_outside_horizon(bg)
    unit_mode = dataclasses.replace(mode, amplitude=1.0)
    prof = a_profile(solve_radial(bg, unit_mode, boundary, [spec.d], tol))
    s_tau, s_n = build_sources(prof, spec, SphereGrid.for_band_limit(l_max))
    return prof, s_tau, s_n, solve_embedding(s_tau, s_n)


def surface_energy(
    bg: BackgroundParams,
    mode: AxialMode,
    boundary,
    spec: SurfaceSpec,
    t_values,
    l_max: int = 16,
    tol: float = 1e-10,
    c_factor: float | None = None,
) -> SurfaceEnergyResult:
    """``surface_embedding`` plus energy assembly for one surface.

    The mode amplitude enters (squared) through c_factor, which defaults to
    C_ell(theta_d)^2 * amplitude^2.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    prof, _s_tau, _s_n, emb = surface_embedding(bg, mode, boundary, spec, l_max, tol)
    coeffs = energy_coefficients(prof, spec, emb)
    if c_factor is None:
        c_factor = default_c_factor(mode, spec)
    e, dedt = assemble_energy(coeffs, mode, spec, c_factor, t_values)
    return SurfaceEnergyResult(
        spec=spec,
        coefficients=coeffs,
        embedding=emb,
        profile=prof,
        c_factor=c_factor,
        e=np.atleast_1d(e),
        dedt=np.atleast_1d(dedt),
        t_values=t_values,
    )


@dataclass(frozen=True)
class EnergyReport:
    """Per-(t, d) energies and per-d coefficients; falloff fits per t on access."""

    t_values: np.ndarray
    d_values: np.ndarray
    e: np.ndarray  # shape (n_t, n_d)
    dedt: np.ndarray
    e1: np.ndarray  # per d
    e2: np.ndarray
    kernel_residual_tau: np.ndarray  # per d, worst degree block
    kernel_residual_n: np.ndarray

    @property
    def fits(self) -> tuple:
        """One DecayFit per t, or () when the d values cannot support the basis."""
        d = self.d_values
        if len(np.unique(d)) < 4 or d.max() < 4.0 * d.min():
            return ()
        return tuple(fit_decay(zip(d, row)) for row in self.e)

    def rows(self):
        """Flat (t, d, E, dE/dt) rows, t-major."""
        for i, t in enumerate(self.t_values):
            for j, d in enumerate(self.d_values):
                yield (float(t), float(d), float(self.e[i, j]), float(self.dedt[i, j]))


def sweep_energy(
    bg: BackgroundParams,
    mode: AxialMode,
    boundary,
    surface_template: SurfaceSpec,
    d_values,
    t_values,
    l_max: int = 16,
    tol: float = 1e-10,
    c_factor: float | None = None,
    jobs: int = 1,
) -> EnergyReport:
    """Run the full pipeline across a d-sweep; the report fits the falloff per t.

    Results are aggregated in d order regardless of scheduling, so the
    report is deterministic for any ``jobs``.
    """
    d_values = np.atleast_1d(np.asarray(d_values, dtype=float))
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))

    def run_one(d: float) -> SurfaceEnergyResult:
        spec = dataclasses.replace(surface_template, d=float(d))
        return surface_energy(
            bg, mode, boundary, spec, t_values, l_max=l_max, tol=tol, c_factor=c_factor
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, d_values))
    else:
        results = [run_one(d) for d in d_values]

    e = np.stack([r.e for r in results], axis=1)
    dedt = np.stack([r.dedt for r in results], axis=1)
    if not (np.isfinite(e).all() and np.isfinite(dedt).all()):
        raise DomainError(f"E or dE/dt is not finite with numerics.c_factor = {c_factor}")
    return EnergyReport(
        t_values=t_values,
        d_values=d_values,
        e=e,
        dedt=dedt,
        e1=np.array([r.coefficients.e1 for r in results]),
        e2=np.array([r.coefficients.e2 for r in results]),
        kernel_residual_tau=np.array(
            [max(r.embedding.kernel_residual_tau.values()) for r in results]
        ),
        kernel_residual_n=np.array([r.embedding.kernel_residual_n for r in results]),
    )
