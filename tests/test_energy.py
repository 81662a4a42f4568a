"""Energy coefficients, assembly, mass-density bracket, loops, falloff fits."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilocal.embedding
import quasilocal.energy
import quasilocal.radial
import quasilocal.sphere
from quasilocal import (
    AnchorBoundary,
    AxialMode,
    DomainError,
    EnergyCoefficients,
    EnergyReport,
    FitError,
    GridField,
    LoopSpec,
    PolarMode,
    SphereGrid,
    SurfaceAnchorBoundary,
    SurfaceSpec,
    analyze,
    apply_operator,
    assemble_energy,
    coordinate_fields,
    energy_coefficients,
    fit_decay,
    grad_hess,
    integrate,
    loop_integral,
    rho_bracket,
    solve_embedding,
    surface_energy,
    sweep_energy,
    synthesize,
)
from quasilocal.embedding import EmbeddingSolution, build_sources, radius_on_sphere
from quasilocal.energy import fit_inverse_powers, grad_outer_double_divergence
from quasilocal.sphere import HarmonicField, _quadratic_form, evaluate

from conftest import random_harmonic
from test_embedding import WAVY_PROFILE, SyntheticProfile, constant_profile


# ----------------------------------------------------------------------
# E1, E2
# ----------------------------------------------------------------------


def test_energy_coefficients_constant_profile():
    # sphere moments (verified symbolically): int Z2^2 Z3^2 = 4pi/15,
    # int Z2^2 = 4pi/3 give E1 = 32 pi c^2 / 15, E2 = -4 pi c^2 / 3
    c = 2.0
    spec = SurfaceSpec(d=100.0)
    prof = constant_profile(c)
    emb = solve_embedding(*build_sources(prof, spec, 16))
    coeffs = energy_coefficients(prof, spec, emb)
    assert coeffs.e1 == pytest.approx(32.0 * np.pi / 15.0 * c**2, rel=1e-8)
    assert coeffs.e2 == pytest.approx(-4.0 * np.pi / 3.0 * c**2, rel=1e-8)


def _full_grid_energy(a, spec, emb):
    """``energy_coefficients``' formulas summed on the grid for twice the band limit,
    with A and A' evaluated at every grid point.

    The operator terms are the same Parseval sums; what this pins is the A
    terms' closed-form phi integrals and their theta sum over the grid's rows.
    """
    grid = SphereGrid.for_band_limit(2 * emb.l_max)
    z1v, z2v, z3v = (f.values for f in coordinate_fields(grid))
    r = radius_on_sphere(spec, z1v)
    av, apv = a.a(r), a.a_prime(r)
    e1_integrand = 0.5 * (
        av**2 * z2v**2 * (7.0 * z3v**2 + 1.0)
        + 2.0 * av * apv * z1v * z3v**2 * (3.0 * z2v**2 - 1.0)
    )
    e2_integrand = av**2 * z2v**2 * z3v**2
    return (
        integrate(GridField(e1_integrand, grid))
        - 0.5 * _quadratic_form(emb.n_field, "laplacian_plus_2"),
        integrate(GridField(e2_integrand, grid))
        - _quadratic_form(emb.tau, "laplacian_laplacian_plus_2"),
    )


@pytest.mark.parametrize("substitution", ["exact", "paper"])
@pytest.mark.parametrize("l_max", [4, 16, 48])
def test_closed_form_energy_matches_the_full_grid(axial_profile, l_max, substitution):
    # the same quadrature error, summed in another order: round-off apart
    for prof, d in ((axial_profile, 40.0), (WAVY_PROFILE, 7.5)):
        spec = SurfaceSpec(d=d, substitution=substitution)
        emb = solve_embedding(*build_sources(prof, spec, l_max))
        got = energy_coefficients(prof, spec, emb)
        want = _full_grid_energy(prof, spec, emb)
        assert got.e1 == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert got.e2 == pytest.approx(want[1], rel=1e-14, abs=0.0)


def test_energy_evaluates_the_profile_once_per_row():
    emb = solve_embedding(*build_sources(WAVY_PROFILE, SurfaceSpec(d=7.5), 16))
    shapes = []
    prof = SyntheticProfile(*(lambda r, f=f: shapes.append(r.shape) or f(r) for f in WAVY_PROFILE._fns))
    energy_coefficients(prof, SurfaceSpec(d=7.5), emb)
    assert shapes == [(2 * 16 + 1,)] * 2


def _grid_builds(monkeypatch):
    """The (n_theta, n_phi, l_max) of the ``SphereGrid``s built from now on."""
    builds, real = [], SphereGrid.__init__

    def init(self, *args):
        builds.append(args)
        real(self, *args)

    monkeypatch.setattr(SphereGrid, "__init__", init)
    return builds


def _legendre_table_calls(monkeypatch, module=quasilocal.sphere):
    """The (band limit, *order range) of the ``_legendre_table`` calls ``module`` makes from now on."""
    calls, real = [], module._legendre_table
    monkeypatch.setattr(module, "_legendre_table",
                        lambda L, theta, *orders: calls.append((L, *orders)) or real(L, theta, *orders))
    return calls


def test_energy_stage_builds_no_transform_table(monkeypatch):
    # the A terms' theta sum reads the Gauss rule alone
    emb = solve_embedding(*build_sources(WAVY_PROFILE, SurfaceSpec(d=7.5), 16))
    calls = _legendre_table_calls(monkeypatch)
    energy_coefficients(WAVY_PROFILE, SurfaceSpec(d=7.5), emb)
    assert calls == []


def test_energy_stage_builds_no_grid(monkeypatch):
    emb = solve_embedding(*build_sources(WAVY_PROFILE, SurfaceSpec(d=7.5), 16))
    builds = _grid_builds(monkeypatch)
    energy_coefficients(WAVY_PROFILE, SurfaceSpec(d=7.5), emb)
    assert builds == []


def test_each_sweep_builds_no_grid(bg_unit, mode_l2, monkeypatch):
    builds = _grid_builds(monkeypatch)
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    sweep_energy(bg_unit, mode_l2, bnd, SurfaceSpec(), [50.0, 100.0, 200.0, 400.0], [0.0, 0.3],
                 l_max=8, tol=1e-9)
    assert builds == []


def test_sweep_builds_one_legendre_table(bg_unit, mode_l2, monkeypatch):
    # every d's sources read one order-2 Legendre column at the Gauss rows,
    # built once per sweep and not kept across calls; no full table is built
    tables = _legendre_table_calls(monkeypatch)
    columns = _legendre_table_calls(monkeypatch, quasilocal.embedding)
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    t_values = np.pi / mode_l2.sigma * np.arange(9) / 8
    d_values = np.geomspace(50.0, 400.0, 4)
    for _ in range(3):
        sweep_energy(bg_unit, mode_l2, bnd, SurfaceSpec(), d_values, t_values, l_max=16)
        assert columns == [(16, 2, 2)] and tables == []
        columns.clear()


def test_energy_zero_perturbation():
    spec = SurfaceSpec(d=100.0)
    prof = constant_profile(0.0)
    emb = solve_embedding(*build_sources(prof, spec, 16))
    coeffs = energy_coefficients(prof, spec, emb)
    assert coeffs.e1 == 0.0
    assert coeffs.e2 == 0.0


def test_energy_quadratic_scaling():
    spec = SurfaceSpec(d=100.0)
    one = constant_profile(1.0)
    lam = 2.0
    two = constant_profile(lam)
    c1 = energy_coefficients(one, spec, solve_embedding(*build_sources(one, spec, 16)))
    c2 = energy_coefficients(two, spec, solve_embedding(*build_sources(two, spec, 16)))
    assert c2.e1 == pytest.approx(lam**2 * c1.e1, rel=1e-14)
    assert c2.e2 == pytest.approx(lam**2 * c1.e2, rel=1e-14)


def test_energy_spectral_convergence(bg_unit, mode_l2):
    # E1, E2 stable under doubling the band limit
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    spec = SurfaceSpec(t=0.3, d=50.0)
    res = {}
    for l_max in (8, 16):
        r = surface_energy(bg_unit, mode_l2, bnd, spec, [0.3], l_max=l_max, tol=1e-11)
        res[l_max] = r.coefficients
    assert res[8].e1 == pytest.approx(res[16].e1, rel=1e-8)
    assert res[8].e2 == pytest.approx(res[16].e2, rel=1e-8)


def test_polar_mode_rejected_before_integrating(bg_unit, monkeypatch):
    # the same DomainError as a_profile, raised before any radial work
    def no_integration(*a, **k):
        raise AssertionError("integrated before rejecting the mode")

    monkeypatch.setattr(quasilocal.radial, "integrate_wave", no_integration)
    with pytest.raises(DomainError, match="axial"):
        surface_energy(
            bg_unit, PolarMode(n=2.0, sigma=0.5), SurfaceAnchorBoundary(z=0.0, dz=1.0),
            SurfaceSpec(t=0.3, d=50.0), [0.3], l_max=8,
        )


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


def test_assemble_energy_t_zero():
    coeffs = EnergyCoefficients(e1=1.7, e2=-2.3)
    mode = AxialMode(ell=2, sigma=0.5)
    spec = SurfaceSpec(t=0.0, d=100.0)
    e, dedt = assemble_energy(coeffs, mode, spec, c_factor=2.0, t=0.0)
    assert e == pytest.approx(2.0 * 0.25 * (-2.3) / 100.0**2, rel=1e-14)
    assert dedt == pytest.approx(0.0, abs=1e-18)


def test_assemble_energy_time_derivative_consistency():
    # centered finite difference in t matches the closed-form derivative
    coeffs = EnergyCoefficients(e1=1.7, e2=-2.3)
    mode = AxialMode(ell=2, sigma=0.5)
    spec = SurfaceSpec(t=0.3, d=100.0)
    t0, h = 0.3, 1e-2

    def energy(t):
        return assemble_energy(coeffs, mode, spec, 2.0, t)[0]

    fd = (8 * (energy(t0 + h) - energy(t0 - h)) - (energy(t0 + 2 * h) - energy(t0 - 2 * h))) / (12 * h)
    _, dedt = assemble_energy(coeffs, mode, spec, 2.0, t0)
    assert dedt == pytest.approx(fd, rel=1e-8)


def test_assemble_energy_zero_at_quarter_period():
    coeffs = EnergyCoefficients(e1=1.7, e2=-2.3)
    mode = AxialMode(ell=2, sigma=0.5)
    spec = SurfaceSpec(t=0.0, d=100.0)
    t_star = (np.pi / 2.0) / mode.sigma
    scale = abs(2.0 * mode.sigma * (coeffs.e1 - mode.sigma**2 * coeffs.e2) / spec.d**2)
    _, dedt = assemble_energy(coeffs, mode, spec, 2.0, t_star)
    assert abs(dedt) <= 1e-12 * scale


def test_assemble_energy_periodicity():
    coeffs = EnergyCoefficients(e1=1.7, e2=-2.3)
    mode = AxialMode(ell=2, sigma=0.5)
    spec = SurfaceSpec(t=0.0, d=100.0)
    ts = np.linspace(0.0, 5.0, 11)
    period = np.pi / mode.sigma
    e1, _ = assemble_energy(coeffs, mode, spec, 2.0, ts)
    e2, _ = assemble_energy(coeffs, mode, spec, 2.0, ts + period)
    assert e1 == pytest.approx(e2, rel=1e-12)


# ----------------------------------------------------------------------
# rho bracket
# ----------------------------------------------------------------------


def _rho_on_grid(emb, grid, d):
    """``rho_bracket`` at the grid's node mesh, as a GridField."""
    theta, phi = np.meshgrid(grid.nodes, grid.phi, indexing="ij")
    return GridField(rho_bracket(emb, theta.ravel(), phi.ravel(), d).reshape(theta.shape), grid)


def test_rho_bracket_zero():
    L = 8
    grid = SphereGrid.for_band_limit(2 * L)
    emb = EmbeddingSolution(tau=HarmonicField.zeros(L), n_field=HarmonicField.zeros(L))
    rb = _rho_on_grid(emb, grid, 100.0)
    assert np.max(np.abs(rb.values)) == 0.0


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_divergence_identity(seed):
    # int [ nabla^a nabla^b (tau_a tau_b) - Delta |grad tau|^2 ] dmu = 0:
    # both terms are total divergences on a closed surface
    L = 8
    grid = SphereGrid.for_band_limit(2 * L)
    h = random_harmonic(L, seed)
    ddiv = grad_outer_double_divergence(h, grid)
    gsq = grad_hess(synthesize(h, grid)).grad_sq
    lap_gsq = synthesize(apply_operator(analyze(gsq), "laplacian"), grid)
    val = integrate(ddiv - lap_gsq)
    norm = integrate(gsq)
    assert abs(val) <= 1e-10 * norm


def test_rho_bracket_symbolic_oracle_z2z3():
    # tau = Z2 Z3: |grad tau|^2 = Z2^2 + Z3^2 - 4 Z2^2 Z3^2, Delta tau = -6 tau,
    # int |Hess tau|^2 = 8 pi (all verified symbolically)
    L = 4
    grid = SphereGrid.for_band_limit(2 * L)
    z1, z2, z3 = coordinate_fields(grid)
    _, y2, y3 = coordinate_fields(SphereGrid.for_band_limit(L))
    tau = analyze(y2 * y3)
    d = grad_hess(synthesize(tau, grid))
    expected_gsq = z2.values**2 + z3.values**2 - 4.0 * (z2.values * z3.values) ** 2
    assert np.max(np.abs(d.grad_sq.values - expected_gsq)) < 1e-12
    assert np.max(np.abs(d.laplacian.values + 6.0 * (z2 * z3).values)) < 1e-11
    assert integrate(d.hess_sq) == pytest.approx(8.0 * np.pi, rel=1e-12)
    emb = EmbeddingSolution(tau=tau, n_field=HarmonicField.zeros(L))
    rb = _rho_on_grid(emb, grid, 10.0)
    assert np.all(np.isfinite(rb.values))
    # N = 0: bracket reduces to tau terms; check the integral against the
    # closed-form pieces (divergence terms integrate to zero)
    expect = (-0.25 * integrate(d.laplacian * d.laplacian) - 0.5 * integrate(d.grad_sq) + 0.5 * (
        integrate(d.hess_sq) + integrate(d.laplacian * d.laplacian) + integrate(d.grad_sq)
        - 2.0 * 6.0 * integrate(d.grad_sq)  # grad tau . grad (Delta tau) = -6 |grad tau|^2
    )) / 10.0**2
    assert integrate(rb) == pytest.approx(expect, rel=1e-10)


def _rho_bracket_round_trip(emb, grid, d):
    """The bracket with every derivative from grad_hess(synthesize(...)) on the grid."""
    nd = grad_hess(synthesize(emb.n_field, grid))
    td = grad_hess(synthesize(emb.tau, grid))
    dl = grad_hess(synthesize(apply_operator(emb.tau, "laplacian"), grid))
    op_n = synthesize(apply_operator(emb.n_field, "laplacian_plus_2"), grid).values
    cross = td.grad_theta.values * dl.grad_theta.values + td.grad_phi.values * dl.grad_phi.values
    ddiv = td.hess_sq.values + td.laplacian.values**2 + td.grad_sq.values + 2.0 * cross
    lap_gradsq = synthesize(apply_operator(analyze(td.grad_sq), "laplacian"), grid).values
    return (
        0.5 * nd.hess_sq.values
        + op_n**2
        - 0.25 * nd.laplacian.values**2
        - 0.25 * td.laplacian.values**2
        + 0.5 * (ddiv - td.grad_sq.values - lap_gradsq)
    ) / d**2


@pytest.mark.parametrize("l_max", [4, 5, 6, 7, 8])
def test_rho_bracket_matches_the_round_trip_formula(l_max):
    grid = SphereGrid.for_band_limit(2 * l_max)
    emb = EmbeddingSolution(
        tau=random_harmonic(l_max, seed=60 + l_max), n_field=random_harmonic(l_max, seed=70 + l_max)
    )
    got = _rho_on_grid(emb, grid, 20.0).values
    want = _rho_bracket_round_trip(emb, grid, 20.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


# every one of the 512 samples has its own colatitude
DISTINCT_COLATITUDES = LoopSpec(
    lambda s: 1.2 + 0.3 * math.sin(2.0 * math.pi * s) + 0.2 * math.sin(4.0 * math.pi * s)
    + 0.1 * math.cos(6.0 * math.pi * s),
    lambda s: 2.0 * math.pi * s,
    n_samples=512,
)


def _loops():
    """Coordinate circles from 1e-8 to 1.5 off either pole, and the distinct-colatitude loop."""
    off_pole = st.floats(-8.0, math.log10(1.5)).map(lambda u: 10.0**u)
    circles = st.tuples(off_pole, st.booleans()).map(
        lambda a: LoopSpec.circle(math.pi - a[0] if a[1] else a[0], 64)
    )
    return st.one_of(circles, st.just(DISTINCT_COLATITUDES))


@settings(database=None, deadline=None, max_examples=100)
@given(l_max=st.integers(0, 24), seed=st.integers(0, 2**16), loop=_loops())
def test_pointwise_rho_bracket_matches_the_grid_round_trip(l_max, seed, loop):
    # The reference sums the bracket's band-2L series, analysed on the 2L grid, at
    # the samples.  Its round-off scales with the bracket's largest value on the
    # sphere, which near a pole can be a thousand times the largest on the loop.
    assert np.unique(DISTINCT_COLATITUDES.theta).size == 512
    emb = EmbeddingSolution(tau=random_harmonic(l_max, seed), n_field=random_harmonic(l_max, seed + 1))
    grid = SphereGrid.for_band_limit(2 * l_max)
    on_grid = _rho_bracket_round_trip(emb, grid, 20.0)
    want = evaluate(analyze(GridField(on_grid, grid)), loop.theta, loop.phi)
    got = rho_bracket(emb, loop.theta, loop.phi, 20.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(on_grid))


def test_parity_integral_vanishes_but_loops_do_not(axial_profile, grid16):
    # Z2Z3-structured densities integrate to zero over S^2 by parity (and
    # along any constant-colatitude circle); a loop whose shape oscillates at
    # the azimuthal frequency of the density picks up a finite arc integral
    spec = SurfaceSpec(d=50.0)
    s_tau, s_n = build_sources(axial_profile, spec, 16)
    density = synthesize(s_n, grid16)
    assert abs(integrate(density)) <= 1e-12 * np.max(np.abs(density.values))
    assert abs(loop_integral(s_n, LoopSpec.circle(np.pi / 4.0, 256))) <= 1e-12
    wavy = LoopSpec(
        lambda s: np.pi / 2 + 0.4 * np.sin(4 * np.pi * s),
        lambda s: 2.0 * math.pi * s,
        512,
    )
    val = loop_integral(s_n, wavy)
    assert abs(val) > 1e-3 * np.max(np.abs(density.values))


# ----------------------------------------------------------------------
# loops
# ----------------------------------------------------------------------


def test_loop_equator_constant():
    h = HarmonicField.zeros(4)
    h.coeffs[0, 4] = math.sqrt(4.0 * math.pi)  # the constant field 1
    loop = LoopSpec.equator(256)
    assert loop_integral(h, loop) == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert loop.arc_length() == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_loop_odd_field_vanishes_on_equator(grid16):
    # field odd under Z3 flip with the equator inside its zero set
    z1, z2, z3 = coordinate_fields(grid16)
    field = analyze(z1 * z3)
    assert abs(loop_integral(field, LoopSpec.equator(128))) < 1e-13


def test_loop_self_convergence_second_order():
    # asymmetric smooth loop and field; derivative differencing is O(h^2)
    h = random_harmonic(6, seed=13)

    def theta(s):
        return np.pi / 2 + 0.4 * np.sin(2 * np.pi * s) + 0.17 * np.cos(4 * np.pi * s)

    def phi(s):
        return 2 * np.pi * s + 0.3 * np.sin(2 * np.pi * s)

    ref = loop_integral(h, LoopSpec(theta, phi, 8192))
    errs = [abs(loop_integral(h, LoopSpec(theta, phi, n)) - ref) for n in (64, 128, 256)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.6 <= o <= 2.6 for o in orders)


def test_loop_closure_and_winding():
    with pytest.raises(DomainError):
        LoopSpec(lambda s: np.pi / 2 + 0.1 * s, lambda s: 2 * np.pi * s, 64)
    double = LoopSpec(lambda s: np.pi / 2, lambda s: 4 * np.pi * s, 256)
    assert double.winding == 2
    assert double.arc_length() == pytest.approx(4.0 * np.pi, abs=1e-10)


# ----------------------------------------------------------------------
# decay fits
# ----------------------------------------------------------------------


def test_fit_decay_pure_inverse_square():
    fit = fit_decay([(d, 5.0 / d**2) for d in (50.0, 100.0, 200.0, 400.0)])
    assert abs(fit.c1) <= 1e-8
    assert fit.c2 == pytest.approx(5.0, abs=1e-8)
    assert fit.residual <= 1e-12
    assert np.isfinite(fit.condition)


def test_fit_decay_mixed_powers():
    fit = fit_decay([(d, 3.0 / d + 1.0 / d**3) for d in (50.0, 100.0, 200.0, 400.0)])
    assert fit.c1 == pytest.approx(3.0, abs=1e-8)
    assert abs(fit.c2) <= 1e-6
    assert fit.c3 == pytest.approx(1.0, rel=1e-6)


def test_fit_decay_validation():
    with pytest.raises(FitError):
        fit_decay([(50.0, 1.0), (100.0, 2.0), (200.0, 1.0)])
    with pytest.raises(FitError):
        fit_decay([(50.0, 1.0), (60.0, 2.0), (70.0, 1.0), (80.0, 0.5)])


def test_fit_decay_is_the_shared_inverse_power_fit():
    samples = [(d, 3.0 / d - 2.0 / d**2 + 7.0 / d**3) for d in (40.0, 90.0, 170.0, 400.0)]
    fit = fit_decay(samples)
    coeffs, resid, condition = fit_inverse_powers(samples, (1, 2, 3))
    assert [fit.c1, fit.c2, fit.c3] == coeffs
    assert (fit.residual, fit.condition) == (resid, condition)


def test_fit_inverse_powers_rejects_degenerate_design():
    samples = [(50.0, 1.0), (50.000000001, 1.0), (400.0, 2.0), (400.000000001, 2.0)]
    with pytest.raises(FitError, match="degenerate design matrix"):
        fit_inverse_powers(samples, (1, 2, 3))
    with pytest.raises(FitError):
        fit_inverse_powers([(50.0, 1.0), (100.0, 2.0)], (0, 1))


def _bits(fit):
    return [float(v).hex() for v in dataclasses.astuple(fit)]


# rows whose fits move in the last bits if tied d are not also sorted by value
_ROWS = np.random.default_rng(0).standard_normal((3, 6)) * 1e-4


@pytest.mark.parametrize("d, e", [
    pytest.param([400.0, 50.0, 200.0, 100.0, 75.0, 300.0], _ROWS, id="shuffled-d"),
    pytest.param([100.0, 50.0, 400.0, 100.0, 200.0, 50.0], _ROWS, id="duplicate-d"),
    pytest.param([100.0, 50.0, 400.0, 100.0, 200.0, 50.0],
                 [[0.0, -0.0, 1e-3, -0.0, 2e-4, 0.0], [-0.0, 5e-4, 0.0, 0.0, -0.0, -0.0]],
                 id="signed-zeros"),
    pytest.param([400.0, 50.0, 200.0, 100.0, 75.0, 300.0],
                 [[0.0] * 6, [-0.0] * 6, _ROWS[0]], id="zero-rows"),
])
def test_report_fits_are_bitwise_fit_decay(d, e):
    # one design for every t, yet each row's fit is fit_decay's to the last bit
    e = np.asarray(e, dtype=float)
    d = np.asarray(d)
    rep = EnergyReport(np.arange(len(e), dtype=float), d, e, e, d, d, d, d)
    want = [fit_decay(zip(d, row)) for row in e]
    assert rep.fits == tuple(want)
    assert [_bits(f) for f in rep.fits] == [_bits(f) for f in want]


def test_report_fits_raise_fit_decays_error_on_a_degenerate_design():
    d = np.array([400.000000001, 50.0, 400.0, 50.000000001])
    e = np.ones((2, 4))
    rep = EnergyReport(np.zeros(2), d, e, e, d, d, d, d)
    with pytest.raises(FitError) as want:
        fit_decay(zip(d, e[0]))
    with pytest.raises(FitError) as got:
        rep.fits
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("degenerate design matrix")


def test_fit_predict():
    # the pure 1/d^2 decay is recovered with the other two coefficients at round-off
    fit = fit_decay([(d, 5.0 / d**2) for d in (50.0, 100.0, 200.0, 400.0)])
    assert fit.c2 == pytest.approx(5.0, rel=1e-9)
    assert abs(fit.c1) <= 1e-12
    assert abs(fit.c3) <= 1e-8


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_leaves_no_reference_cycle(bg_unit, mode_l2, monkeypatch):
    # with the cyclic collector off, the sweep's one stacked radial solve and
    # each d's member of it, which its profile holds, are freed once the
    # sweep returns
    refs, real = [], quasilocal.radial.integrate_wave

    def solve(*args):
        stack = real(*args)
        refs.extend(weakref.ref(x) for x in (stack, *stack.solutions))
        return stack

    monkeypatch.setattr(quasilocal.radial, "integrate_wave", solve)
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    gc.disable()
    try:
        rep = sweep_energy(bg_unit, mode_l2, bnd, SurfaceSpec(), [50.0, 100.0, 200.0, 400.0],
                           [0.0, 0.3], l_max=8, tol=1e-9)
        assert len(refs) == 1 + 4  # one solve, one member per d
        del rep
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def _integrate_wave_calls(monkeypatch):
    """The boundary argument of every ``integrate_wave`` call made from now on."""
    calls, real = [], quasilocal.radial.integrate_wave
    monkeypatch.setattr(quasilocal.radial, "integrate_wave", lambda *a, **k: calls.append(a[2]) or real(*a, **k))
    return calls


def _assert_coefficients_close(report, results, rel):
    for e1, e2, res in zip(report.e1, report.e2, results):
        assert e1 == pytest.approx(res.coefficients.e1, rel=rel, abs=0.0)
        assert e2 == pytest.approx(res.coefficients.e2, rel=rel, abs=0.0)


@pytest.mark.parametrize("d_values", [[50.0, 100.0, 200.0, 400.0], [5.0, 10.0, 50.0, 400.0],
                                      [3.05, 3.5, 5.0, 10.0]])
def test_stacked_sweep_agrees_with_each_surface(bg_unit, mode_l2, d_values, monkeypatch):
    # one stacked radial solve for every d; each d's E1, E2 and E(t) bitwise
    # those of its own surface_energy
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    calls = _integrate_wave_calls(monkeypatch)
    rep = sweep_energy(bg_unit, mode_l2, bnd, SurfaceSpec(), d_values, [0.3], l_max=8, tol=1e-10)
    assert len(calls) == 1 and len(calls[0]) == len(d_values)
    for j, d in enumerate(d_values):
        res = surface_energy(bg_unit, mode_l2, bnd, SurfaceSpec(d=d), [0.3], l_max=8, tol=1e-10)
        assert (rep.e1[j], rep.e2[j]) == (res.coefficients.e1, res.coefficients.e2)
        assert rep.e[:, j].tobytes() == res.e.tobytes()


def test_one_surface_sweep_is_surface_energy(bg_unit, mode_l2):
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0, offset=0.5)
    spec = SurfaceSpec(t=0.3, d=60.0, theta_d=1.1)
    rep = sweep_energy(bg_unit, mode_l2, bnd, spec, [60.0], [0.0, 0.3], l_max=8, tol=1e-10)
    res = surface_energy(bg_unit, mode_l2, bnd, spec, [0.0, 0.3], l_max=8, tol=1e-10)
    assert (rep.e1[0], rep.e2[0]) == (res.coefficients.e1, res.coefficients.e2)
    assert rep.e[:, 0].tobytes() == res.e.tobytes() and rep.dedt[:, 0].tobytes() == res.dedt.tobytes()


def test_anchor_sweep_solves_once(bg_unit, mode_l2, monkeypatch):
    # a global anchor does not depend on d: one solve over the coverage of
    # every d, whose E1 and E2 agree with each d's own narrower solve
    bnd = AnchorBoundary(z=0.0, dz=1.0, r=60.0)
    d_values = [50.0, 100.0, 200.0, 400.0]
    calls = _integrate_wave_calls(monkeypatch)
    rep = sweep_energy(bg_unit, mode_l2, bnd, SurfaceSpec(), d_values, [0.3], l_max=8, tol=1e-10)
    assert calls == [bnd]
    results = [surface_energy(bg_unit, mode_l2, bnd, SurfaceSpec(d=d), [0.3], l_max=8, tol=1e-10)
               for d in d_values]
    _assert_coefficients_close(rep, results, 1e-9)


def test_sweep_report_columns(bg_unit, mode_l2):
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    rep = sweep_energy(
        bg_unit, mode_l2, bnd, SurfaceSpec(), [50.0, 100.0], [0.0, 0.3], l_max=8, tol=1e-9
    )
    t, d, e, dedt = rep.columns()
    assert t.tolist() == [0.0, 0.0, 0.3, 0.3]  # t-major
    assert d.tolist() == [50.0, 100.0, 50.0, 100.0]
    assert e.tolist() == [rep.e[0, 0], rep.e[0, 1], rep.e[1, 0], rep.e[1, 1]]
    assert dedt.tolist() == [rep.dedt[0, 0], rep.dedt[0, 1], rep.dedt[1, 0], rep.dedt[1, 1]]
    assert rep.fits == ()  # two d values cannot support the falloff basis
