"""Energy coefficients, assembly, mass-density bracket, loops, falloff fits."""

import dataclasses
import math

import numpy as np
import pytest

from quasilocal import (
    AnchorBoundary,
    AxialMode,
    DomainError,
    EnergyCoefficients,
    FitError,
    LoopSpec,
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
from quasilocal.embedding import EmbeddingSolution, build_sources
from quasilocal.energy import fit_inverse_powers, grad_outer_double_divergence
from quasilocal.sphere import HarmonicField

from conftest import random_harmonic
from test_embedding import SyntheticProfile, constant_profile


# ----------------------------------------------------------------------
# E1, E2
# ----------------------------------------------------------------------


def test_energy_coefficients_constant_profile(grid16):
    # sphere moments (verified symbolically): int Z2^2 Z3^2 = 4pi/15,
    # int Z2^2 = 4pi/3 give E1 = 32 pi c^2 / 15, E2 = -4 pi c^2 / 3
    c = 2.0
    spec = SurfaceSpec(d=100.0)
    prof = constant_profile(c)
    emb = solve_embedding(*build_sources(prof, spec, grid16))
    coeffs = energy_coefficients(prof, spec, emb)
    assert coeffs.e1 == pytest.approx(32.0 * np.pi / 15.0 * c**2, rel=1e-8)
    assert coeffs.e2 == pytest.approx(-4.0 * np.pi / 3.0 * c**2, rel=1e-8)


def test_energy_zero_perturbation(grid16):
    spec = SurfaceSpec(d=100.0)
    prof = constant_profile(0.0)
    emb = solve_embedding(*build_sources(prof, spec, grid16))
    coeffs = energy_coefficients(prof, spec, emb)
    assert coeffs.e1 == 0.0
    assert coeffs.e2 == 0.0


def test_energy_quadratic_scaling(grid16):
    spec = SurfaceSpec(d=100.0)
    one = constant_profile(1.0)
    lam = 2.0
    two = constant_profile(lam)
    c1 = energy_coefficients(one, spec, solve_embedding(*build_sources(one, spec, grid16)))
    c2 = energy_coefficients(two, spec, solve_embedding(*build_sources(two, spec, grid16)))
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


def test_rho_bracket_zero():
    L = 8
    grid = SphereGrid.for_band_limit(2 * L)
    emb = EmbeddingSolution(tau=HarmonicField.zeros(L), n_field=HarmonicField.zeros(L))
    rb = rho_bracket(emb, grid, 100.0)
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
    tau = analyze(z2 * z3, l_max=L)
    d = grad_hess(synthesize(tau, grid))
    expected_gsq = z2.values**2 + z3.values**2 - 4.0 * (z2.values * z3.values) ** 2
    assert np.max(np.abs(d.grad_sq.values - expected_gsq)) < 1e-12
    assert np.max(np.abs(d.laplacian.values + 6.0 * (z2 * z3).values)) < 1e-11
    assert integrate(d.hess_sq) == pytest.approx(8.0 * np.pi, rel=1e-12)
    emb = EmbeddingSolution(tau=tau, n_field=HarmonicField.zeros(L))
    rb = rho_bracket(emb, grid, 10.0)
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
    got = rho_bracket(emb, grid, 20.0).values
    want = _rho_bracket_round_trip(emb, grid, 20.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_parity_integral_vanishes_but_loops_do_not(axial_profile, grid16):
    # Z2Z3-structured densities integrate to zero over S^2 by parity (and
    # along any constant-colatitude circle); a loop whose shape oscillates at
    # the azimuthal frequency of the density picks up a finite arc integral
    spec = SurfaceSpec(d=50.0)
    s_tau, s_n = build_sources(axial_profile, spec, grid16)
    assert abs(integrate(s_n)) <= 1e-12 * np.max(np.abs(s_n.values))
    assert abs(loop_integral(s_n, LoopSpec.circle(np.pi / 4.0, 256))) <= 1e-12
    wavy = LoopSpec(
        lambda s: np.pi / 2 + 0.4 * np.sin(4 * np.pi * s),
        lambda s: 2.0 * math.pi * s,
        512,
    )
    val = loop_integral(s_n, wavy)
    assert abs(val) > 1e-3 * np.max(np.abs(s_n.values))


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


def test_fit_predict():
    fit = fit_decay([(d, 5.0 / d**2) for d in (50.0, 100.0, 200.0, 400.0)])
    assert fit.predict(80.0) == pytest.approx(5.0 / 80.0**2, rel=1e-9)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_deterministic_across_jobs(bg_unit, mode_l2):
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    template = SurfaceSpec(t=0.3)
    kw = dict(l_max=8, tol=1e-9)
    rep1 = sweep_energy(bg_unit, mode_l2, bnd, template, [50.0, 100.0, 200.0, 400.0], [0.3], jobs=1, **kw)
    rep2 = sweep_energy(bg_unit, mode_l2, bnd, template, [50.0, 100.0, 200.0, 400.0], [0.3], jobs=3, **kw)
    assert np.array_equal(rep1.e, rep2.e)
    assert rep1.fits[0].c2 == rep2.fits[0].c2


def test_sweep_report_rows(bg_unit, mode_l2):
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0)
    rep = sweep_energy(
        bg_unit, mode_l2, bnd, SurfaceSpec(), [50.0, 100.0], [0.0, 0.3], l_max=8, tol=1e-9
    )
    rows = list(rep.rows())
    assert len(rows) == 4
    assert rows[0][:2] == (0.0, 50.0)
    assert rows[-1][:2] == (0.3, 100.0)
    assert rep.fits == ()  # two d values cannot support the falloff basis
