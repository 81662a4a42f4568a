"""Energy coefficients, assembled E(t, d), mass-density bracket, loops, fits.

The assembled energy of the unit sphere at distance d carries the falloff
factor explicitly in both the energy and its time derivative:

    E(t, d)    = c_factor / d^2 * [sin^2(sigma t) E1 + sigma^2 cos^2(sigma t) E2]
    dE/dt(t,d) = c_factor * sigma * sin(2 sigma t) / d^2 * [E1 - sigma^2 E2]

so the two expressions are exact time derivatives of one another.  The
direction constant C_ell(theta_d)^2 and the squared mode amplitude enter only
through ``c_factor`` (both are excluded from E1, E2; see
EnergyCoefficients), so alternative placements of the overall constant cost
a single multiplication.  The 1/d^2 mass-density bracket needs only first and
second derivatives of N and tau: Bochner's formula stands in for Delta |grad tau|^2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .embedding import (
    EmbeddingSolution,
    SurfaceSpec,
    _source_rule,
    _sources,
    radius_on_sphere,
    solve_embedding,
)
from .errors import DomainError, FitError
from .radial import (
    AProfile,
    AxialMode,
    BackgroundParams,
    _a_terms,
    a_profile,
    solve_surfaces,
)
from .sphere import (
    GridField,
    HarmonicField,
    SphereGrid,
    _grid_rule,
    _harmonic_derivatives,
    _point_derivatives,
    _quadratic_form,
    analyze,
    apply_operator,
    c_theta,
    evaluate,
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
    """The two sphere integrals entering the assembled energy, from a unit-amplitude
    radial solution and without the direction constant C_ell(theta_d); attach
    both via c_factor = C_ell(theta_d)^2 * amplitude^2."""

    e1: float
    e2: float


def energy_coefficients(
    a: AProfile,
    spec: SurfaceSpec,
    emb: EmbeddingSolution,
) -> EnergyCoefficients:
    """Evaluate E1 and E2 for one surface.

    E1 = int (1/2) [A^2 z2^2 (7 z3^2 + 1) + 2 A A' z1 z3^2 (3 z2^2 - 1)
                    - N (Delta + 2) N]
    E2 = int [A^2 z2^2 z3^2 - tau Delta(Delta + 2) tau]

    The operator terms are quadratic forms of the embedding solution, read
    from its coefficients by Parseval.  A and A' depend on z1 alone, through
    the z1 substitution used for the embedding sources, so the A terms' phi
    integrals are taken in closed form, with s^2 = 1 - z1^2:
        int z2^2 (7 z3^2 + 1) dphi = pi (s^2 + 7 s^4 / 4)
        int z3^2 (3 z2^2 - 1) dphi = pi (3 s^4 / 4 - s^2)
        int z2^2 z3^2 dphi = pi s^4 / 4
    and their z1 integrals by the Gauss rule on 2 * emb.l_max + 1 nodes, the
    rows of the grid for twice the band limit.
    """
    # the A terms are not band-limited, so their quadrature error depends on the
    # rule: keep the rows of the grid for twice the band limit
    z1, w = _grid_rule(2 * emb.l_max + 1)
    r = radius_on_sphere(spec, z1)
    return _energy_sums((z1, w), a.a(r), a.a_prime(r), emb)


def _energy_sums(rule, av, apv, emb: EmbeddingSolution) -> EnergyCoefficients:
    """E1 and E2 from A and A' at the rows of ``rule`` = (z1, w), the 2L + 1 Gauss rows."""
    z1, w = rule
    s2 = (1.0 - z1) * (1.0 + z1)
    e1_a = 0.5 * np.pi * (w @ (av**2 * (s2 + 1.75 * s2**2) + 2.0 * av * apv * z1 * (0.75 * s2**2 - s2)))
    e2_a = 0.25 * np.pi * (w @ (av**2 * s2**2))
    e1 = e1_a - 0.5 * _quadratic_form(emb.n_field, "laplacian_plus_2")
    e2 = e2_a - _quadratic_form(emb.tau, "laplacian_laplacian_plus_2")
    return EnergyCoefficients(e1=float(e1), e2=float(e2))


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
    d = _harmonic_derivatives(h, grid)
    dl = _harmonic_derivatives(apply_operator(h, "laplacian"), grid)
    cross = (
        d.grad_theta.values * dl.grad_theta.values
        + d.grad_phi.values * dl.grad_phi.values
    )
    vals = d.hess_sq.values + d.laplacian.values**2 + d.grad_sq.values + 2.0 * cross
    return GridField(vals, grid)


def rho_bracket(emb: EmbeddingSolution, theta, phi, d: float) -> np.ndarray:
    """The 1/d^2 block of the quasi-local mass density at the points (theta, phi).

    (1/d^2) { (1/2)|Hess N|^2 + ((Delta+2)N)^2 - (1/4)(Delta N)^2
              - (1/4)(Delta tau)^2
              + (1/2)[nabla^a nabla^b(tau_a tau_b) - |grad tau|^2
                      - Delta |grad tau|^2] }

    Bochner's formula on the unit sphere (Ric = g),
    Delta |grad tau|^2 = 2|Hess tau|^2 + 2 grad tau . grad(Delta tau) + 2|grad tau|^2,
    with ``grad_outer_double_divergence``'s expansion reduces the tau terms
    pointwise to (1/4)(Delta tau)^2 - (1/2)|Hess tau|^2 - |grad tau|^2.  The
    derivatives of N and tau are summed at the points from the solution's
    coefficients, only over the azimuthal orders they hold (the pipeline's
    sine m = 2), with theta tables that hold up to the poles, so the bracket
    is exact at every point for the band-limited solution.
    """
    nd, td = _point_derivatives((emb.n_field, emb.tau), theta, phi)
    op_n = nd["laplacian"] + 2.0 * nd["value"]
    return (
        0.5 * nd["hess_sq"]
        + op_n**2
        - 0.25 * nd["laplacian"] ** 2
        + 0.25 * td["laplacian"] ** 2
        - 0.5 * td["hess_sq"]
        - td["grad_sq"]
    ) / d**2


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


class _InversePowerDesign:
    """Normal equations of sum_k c_k / d^k at ascending d, shared by all values at those d.

    The basis is evaluated in x = d_min/d to keep the normal matrix
    well-conditioned; a condition number above 1e15 raises FitError.
    """

    def __init__(self, d: np.ndarray, powers):
        if len(np.unique(d)) < len(powers) + 1:
            raise FitError("need more distinct d values than fit powers")
        self.powers = tuple(powers)
        self.scale = d.min()
        x = self.scale / d
        self.design = np.vstack([x**k for k in self.powers]).T
        self.gram = self.design.T @ self.design
        self.condition = float(np.linalg.cond(self.gram))
        if not np.isfinite(self.condition) or self.condition > 1e15:
            raise FitError(f"degenerate design matrix (condition {self.condition:.3g})")

    def solve(self, y) -> tuple[list[float], float, float]:
        """(coefficients c_k, rms residual, condition number) for values ``y`` at the design's d."""
        y = np.asarray(y)
        coef = np.linalg.solve(self.gram, self.design.T @ y)
        resid = float(np.sqrt(np.mean((self.design @ coef - y) ** 2)))
        return [float(c * self.scale**k) for c, k in zip(coef, self.powers)], resid, self.condition

    def decay(self, y) -> DecayFit:
        """``solve`` as a DecayFit, for the powers (1, 2, 3)."""
        (c1, c2, c3), resid, condition = self.solve(y)
        return DecayFit(c1=c1, c2=c2, c3=c3, residual=resid, condition=condition)


def _sorted_samples(samples) -> tuple[np.ndarray, list[float]]:
    """d ascending and the values in the same order, ties in d ordered by value."""
    pts = sorted((float(d), float(v)) for d, v in samples)
    return np.array([p[0] for p in pts]), [p[1] for p in pts]


def fit_inverse_powers(samples, powers):
    """Least squares of sum_k c_k / d^k on (d, value) pairs, by normal equations.

    Returns (coefficients, rms residual, condition number of the normal
    matrix in x = d_min/d); a condition number above 1e15 raises FitError.
    """
    d, y = _sorted_samples(samples)
    return _InversePowerDesign(d, powers).solve(y)


def fit_decay(samples) -> DecayFit:
    """Fit E(d) = c1/d + c2/d^2 + c3/d^3 by ``fit_inverse_powers``'s normal equations.

    ``samples`` is an iterable of (d, E) pairs; needs at least four distinct
    d values spanning at least a factor of four.
    """
    d, y = _sorted_samples(samples)
    if len(np.unique(d)) < 4:
        raise FitError("need at least 4 distinct d values")
    if d.max() < 4.0 * d.min():
        raise FitError("d values must span at least a factor of 4")
    return _InversePowerDesign(d, (1, 2, 3)).decay(y)


@dataclass(frozen=True)
class SurfaceEnergyResult:
    """Everything computed for one surface: coefficients, solution, energies."""

    coefficients: EnergyCoefficients
    embedding: EmbeddingSolution
    profile: AProfile
    c_factor: float
    e: np.ndarray
    dedt: np.ndarray


def default_c_factor(mode: AxialMode, spec: SurfaceSpec) -> float:
    """C_ell(theta_d)^2 * amplitude^2, the constant excluded from E1/E2 (inf on overflow)."""
    try:
        return float(c_theta(mode.ell, spec.theta_d)) ** 2 * mode.amplitude**2
    except OverflowError:
        return math.inf


def _surfaces(bg, mode, boundary, specs, l_max: int, tol: float, energy: bool = True):
    """The pipeline for the surfaces ``specs``, each shared stage run once for all of them.

    One ``solve_surfaces`` call gives every surface its radial solution at
    unit amplitude.  The sources' Gauss rule and Ybar_l2, and with
    ``energy`` the energy stage's 2 l_max + 1 rows, are built once, and
    every surface's rows take A, A' and A'' from one dense-output pass.
    The per-surface rest is the source sums, ``solve_embedding`` and the
    energy sums.  Returns (profile, s_tau, s_n, embedding, coefficients or
    None) per surface.  A(r) exists for axial modes only, so any other mode
    is rejected before integrating.
    """
    if mode.kind != "axial":
        raise DomainError(
            f"A(r) is defined for axial solutions only; mode kind is {mode.kind!r}"
        )
    for spec in specs:
        spec.validate_outside_horizon(bg)
    unit_mode = dataclasses.replace(mode, amplitude=1.0)
    stack = solve_surfaces(bg, unit_mode, boundary, [spec.d for spec in specs], tol)
    source_rule = _source_rule(l_max)
    energy_rule = _grid_rule(2 * l_max + 1)
    n_src = len(source_rule[0])
    nodes = np.concatenate([source_rule[0], energy_rule[0]]) if energy else source_rule[0]
    r = np.array([radius_on_sphere(spec, nodes) for spec in specs])
    z, dz = stack.eval_r(r)
    av, apv, appv = _a_terms(r, z, dz, bg.m, unit_mode)
    results = []
    for i, sol in enumerate(stack.solutions):
        s_tau, s_n = _sources(l_max, source_rule, (av[i, :n_src], apv[i, :n_src], appv[i, :n_src]))
        emb = solve_embedding(s_tau, s_n)
        coeffs = _energy_sums(energy_rule, av[i, n_src:], apv[i, n_src:], emb) if energy else None
        results.append((a_profile(sol), s_tau, s_n, emb, coeffs))
    return results


def surface_embedding(
    bg: BackgroundParams,
    mode: AxialMode,
    boundary,
    spec: SurfaceSpec,
    l_max: int = 16,
    tol: float = 1e-10,
):
    """Radial solve, A(r), embedding sources and spectral solve for one surface.

    The sweep's pipeline at one d without its energy stage: the radial
    solution is integrated at unit amplitude over the surface's radial
    coverage, and the sources are the harmonic coefficients of
    ``build_sources`` up to ``l_max``; no grid is built.  Returns (profile,
    s_tau, s_n, embedding).  A(r) exists for axial modes only, so any other
    mode is rejected before integrating.
    """
    prof, s_tau, s_n, emb, _ = _surfaces(bg, mode, boundary, [spec], l_max, tol, energy=False)[0]
    return prof, s_tau, s_n, emb


def _energy_results(bg, mode, boundary, specs, t_values, l_max, tol, c_factor):
    """``_surfaces`` with each surface's energy assembled, as SurfaceEnergyResults."""
    results = []
    for spec, (prof, _s_tau, _s_n, emb, coeffs) in zip(
        specs, _surfaces(bg, mode, boundary, specs, l_max, tol)
    ):
        cf = default_c_factor(mode, spec) if c_factor is None else c_factor
        e, dedt = assemble_energy(coeffs, mode, spec, cf, t_values)
        results.append(SurfaceEnergyResult(
            coefficients=coeffs,
            embedding=emb,
            profile=prof,
            c_factor=cf,
            e=np.atleast_1d(e),
            dedt=np.atleast_1d(dedt),
        ))
    return results


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
    """``surface_embedding`` plus energy assembly for one surface: the sweep at one d.

    The mode amplitude enters (squared) through c_factor, which defaults to
    C_ell(theta_d)^2 * amplitude^2.  Neither stage builds a grid.
    """
    return _energy_results(bg, mode, boundary, [spec], t_values, l_max, tol, c_factor)[0]


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
        """One DecayFit per t, or () when the d values cannot support the basis.

        Every t shares one design, built from the d values; each row is
        sorted as ``fit_decay`` sorts it, so each fit is that of ``fit_decay``.
        """
        d = self.d_values
        if len(np.unique(d)) < 4 or d.max() < 4.0 * d.min():
            return ()
        design = _InversePowerDesign(np.sort(d), (1, 2, 3))
        return tuple(design.decay(_sorted_samples(zip(d, row))[1]) for row in self.e)

    def columns(self) -> tuple:
        """Flat (t, d, E, dE/dt) columns, t-major."""
        n_t, n_d = self.e.shape
        t, d = np.repeat(self.t_values, n_d), np.tile(self.d_values, n_t)
        return t, d, self.e.ravel(), self.dedt.ravel()


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
) -> EnergyReport:
    """Run the full pipeline across a d-sweep; the report fits the falloff per t.

    The radial solve, the Gauss rules and Ybar_l2, and the dense-output pass
    for A, A' and A'' run once for all d: a ``surface_anchor`` boundary
    solves every d's anchor in one batched Chebyshev-element solve, and any
    other boundary one solution over the coverage of all d.  Only the
    source sums, ``solve_embedding`` and energy sums run per d; at one d
    the report is ``surface_energy``'s.
    """
    d_values = np.atleast_1d(np.asarray(d_values, dtype=float))
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    specs = [dataclasses.replace(surface_template, d=float(d)) for d in d_values]
    results = _energy_results(bg, mode, boundary, specs, t_values, l_max, tol, c_factor)

    e = np.stack([r.e for r in results], axis=1)
    dedt = np.stack([r.dedt for r in results], axis=1)
    if not (np.isfinite(e).all() and np.isfinite(dedt).all()):
        used = results[0].c_factor
        source = "numerics.c_factor" if c_factor is not None else "C_ell(theta_d)^2 * mode.amplitude^2"
        raise DomainError(f"E or dE/dt is not finite with c_factor = {used} from {source}")
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
