"""Embedding sources and the spectral solve of the linearized equations."""

import numpy as np
import pytest

from quasilocal import (
    DomainError,
    GridField,
    HarmonicField,
    SolvabilityWarning,
    SphereGrid,
    SurfaceSpec,
    analyze,
    apply_operator,
    build_sources,
    coordinate_fields,
    solve_embedding,
    synthesize,
)
from quasilocal.embedding import _row_profiles, radius_on_sphere, radius_range


class SyntheticProfile:
    """Injectable A(r) with analytic derivatives for closed-form checks."""

    def __init__(self, a, a_prime, a_double_prime, r_min=0.0, r_max=1e12):
        self._fns = (a, a_prime, a_double_prime)
        self.r_min, self.r_max = r_min, r_max

    def a(self, r):
        return self._fns[0](np.asarray(r, dtype=float))

    def a_prime(self, r):
        return self._fns[1](np.asarray(r, dtype=float))

    def a_double_prime(self, r):
        return self._fns[2](np.asarray(r, dtype=float))


def constant_profile(c):
    return SyntheticProfile(
        lambda r: np.full_like(r, c),
        lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
    )


WAVY_PROFILE = SyntheticProfile(
    lambda r: np.sin(0.3 * r) / r,
    lambda r: 0.3 * np.cos(0.3 * r) / r - np.sin(0.3 * r) / r**2,
    lambda r: np.exp(-0.01 * r) * np.cos(r),
)


def test_surface_spec_validation():
    with pytest.raises(DomainError):
        SurfaceSpec(d=0.5)
    with pytest.raises(DomainError):
        SurfaceSpec(substitution="wrong")


def test_radius_on_sphere_formulas():
    spec_e = SurfaceSpec(d=50.0, substitution="exact")
    spec_p = SurfaceSpec(d=50.0, substitution="paper")
    z1 = np.array([-1.0, 0.0, 1.0])
    assert radius_on_sphere(spec_e, z1) == pytest.approx(
        np.sqrt(50.0**2 + 2 * 50.0 * z1 + 1.0)
    )
    assert radius_on_sphere(spec_p, z1) == pytest.approx(np.sqrt(50.0**2 + 2 * z1 + 1.0))
    lo, hi = radius_range(spec_e)
    assert (lo, hi) == (49.0, 51.0)


def test_substitution_radius_maps_differ_at_one_over_d():
    # relative radius difference between the two substitutions is O(1/d)
    z1 = np.linspace(-1, 1, 21)
    rel = []
    for d in (50.0, 100.0, 200.0):
        r_e = radius_on_sphere(SurfaceSpec(d=d, substitution="exact"), z1)
        r_p = radius_on_sphere(SurfaceSpec(d=d, substitution="paper"), z1)
        rel.append(np.max(np.abs(r_e - r_p) / r_e))
    assert 1.8 <= rel[0] / rel[1] <= 2.2
    assert 1.8 <= rel[1] / rel[2] <= 2.2


def test_build_sources_constant_profile(grid16):
    # substitution into the right-hand sides: S_tau = 12c Z2Z3, S_N = 4c Z2Z3
    c = 2.0
    spec = SurfaceSpec(d=100.0)
    s_tau, s_n = (synthesize(h, grid16) for h in build_sources(constant_profile(c), spec, 16))
    z1, z2, z3 = coordinate_fields(grid16)
    z23 = (z2 * z3).values
    assert np.max(np.abs(s_tau.values - 12.0 * c * z23)) < 1e-13
    assert np.max(np.abs(s_n.values - 4.0 * c * z23)) < 1e-13
    # sources vanish where Z2 does and are odd under both Z2 and Z3 sign flips
    small = np.abs(z2.values) < 1e-12
    assert np.all(np.abs(s_tau.values[small]) < 1e-12)


def test_sources_odd_under_z3_flip(axial_profile, grid16):
    # phi -> -phi maps Z3 -> -Z3 with Z1, Z2 fixed; n_phi grid mirrors exactly
    spec = SurfaceSpec(d=50.0)
    n_phi = grid16.n_phi
    mirror = (-np.arange(n_phi)) % n_phi
    for h in build_sources(axial_profile, spec, 16):
        field = synthesize(h, grid16)
        assert np.max(np.abs(field.values[:, mirror] + field.values)) < 1e-12


def test_sources_odd_under_z2_flip(axial_profile):
    # phi -> pi - phi maps Z2 -> -Z2 with Z1, Z3 fixed; checked off-grid
    # through the harmonic synthesis since mirrored points are not nodes
    from quasilocal.sphere import evaluate

    spec = SurfaceSpec(d=50.0)
    h, _ = build_sources(axial_profile, spec, 16)
    theta = np.full(7, 1.1)
    phi = np.linspace(0.3, 2.8, 7)
    plus = evaluate(h, theta, phi)
    minus = evaluate(h, theta, np.pi - phi)
    assert np.max(np.abs(plus + minus)) <= 1e-12 * np.max(np.abs(plus))


def test_coverage_error():
    prof = constant_profile(1.0)
    prof.r_min, prof.r_max = 60.0, 80.0
    with pytest.raises(Exception):
        build_sources(prof, SurfaceSpec(d=50.0), 16)


def test_solve_embedding_closed_form(grid16):
    # Z2Z3 is a pure l=2 eigenfield: Delta(Delta+2) -> 24, (Delta+2) -> -4
    c = 2.0
    spec = SurfaceSpec(d=100.0)
    sol = solve_embedding(*build_sources(constant_profile(c), spec, 16))
    z1, z2, z3 = coordinate_fields(grid16)
    h23 = analyze(z2 * z3)
    assert np.max(np.abs(sol.tau.coeffs - (c / 2.0) * h23.coeffs)) <= 1e-10
    assert np.max(np.abs(sol.n_field.coeffs - (-c) * h23.coeffs)) <= 1e-10


def _scaled(h, factor):
    return HarmonicField(h.l_max, factor * h.coeffs)


def test_solve_embedding_zero_and_scaling():
    spec = SurfaceSpec(d=100.0)
    zero_prof = constant_profile(0.0)
    sol = solve_embedding(*build_sources(zero_prof, spec, 16))
    assert np.all(sol.tau.coeffs == 0.0)
    assert np.all(sol.n_field.coeffs == 0.0)
    assert sol.kernel_residual_n == 0.0

    s_tau1, s_n1 = build_sources(constant_profile(1.0), spec, 16)
    sol1 = solve_embedding(s_tau1, s_n1)
    # power-of-two scaling is bitwise exact through the division
    sol2 = solve_embedding(_scaled(s_tau1, 2.0), _scaled(s_n1, 2.0))
    assert np.max(np.abs(sol2.tau.coeffs - 2.0 * sol1.tau.coeffs)) == 0.0
    assert np.max(np.abs(sol2.n_field.coeffs - 2.0 * sol1.n_field.coeffs)) == 0.0
    # generic factors are exact to one ulp per operation
    lam = 3.5
    sol3 = solve_embedding(_scaled(s_tau1, lam), _scaled(s_n1, lam))
    scale = np.max(np.abs(sol1.tau.coeffs)) * lam
    assert np.max(np.abs(sol3.tau.coeffs - lam * sol1.tau.coeffs)) <= 1e-15 * scale


def test_back_substitution(axial_profile):
    spec = SurfaceSpec(d=50.0)
    h_tau, h_n = build_sources(axial_profile, spec, 16)
    sol = solve_embedding(h_tau, h_n)
    back = apply_operator(sol.tau, "laplacian_laplacian_plus_2")
    scale = np.max(np.abs(h_tau.coeffs))
    assert np.max(np.abs(back.coeffs[2:] - h_tau.coeffs[2:])) <= 1e-10 * scale
    back_n = apply_operator(sol.n_field, "laplacian_plus_2")
    assert np.max(np.abs(back_n.coeffs[2:] - h_n.coeffs[2:])) <= 1e-10 * scale


def test_minimal_norm_gauge(axial_profile):
    spec = SurfaceSpec(d=50.0)
    sol = solve_embedding(*build_sources(axial_profile, spec, 16))
    assert np.all(sol.tau.coeffs[0] == 0.0)
    assert np.all(sol.tau.coeffs[1] == 0.0)
    assert np.all(sol.n_field.coeffs[1] == 0.0)


@pytest.mark.parametrize("d", [20.0, 40.0, 80.0])
def test_kernel_residuals_tiny_for_physical_sources(bg_unit, mode_l2, d):
    # the Z2 Z3 azimuthal factor is exactly orthogonal to l in {0, 1}: the
    # one-order sources hold none, and the 2-D oracle's sit at round-off,
    # well below 1e-12 x norm
    from quasilocal import AnchorBoundary, a_profile, integrate_wave

    sol_r = integrate_wave(
        bg_unit, mode_l2, AnchorBoundary(z=0.0, dz=1.0, r=d), (d - 1.5, d + 1.5)
    )
    prof = a_profile(sol_r)
    s_tau, s_n = build_sources(prof, SurfaceSpec(d=d), 16)
    emb = solve_embedding(s_tau, s_n)
    assert max(emb.kernel_residual_tau.values()) == 0.0 and emb.kernel_residual_n == 0.0
    grid = SphereGrid.for_band_limit(16)
    oracle = solve_embedding(
        *(analyze(GridField(v, grid)) for v in full_grid_sources(prof, SurfaceSpec(d=d), grid))
    )
    norm = s_tau.norm()
    assert 0.0 < max(oracle.kernel_residual_tau.values()) <= 1e-12 * norm
    assert oracle.kernel_residual_n <= 1e-12 * norm


def test_solvability_warning(grid16):
    # poison the source with an l=1 component: an inconsistent right-hand side
    s_tau, s_n = build_sources(constant_profile(1.0), SurfaceSpec(d=100.0), 16)
    z1, _, _ = coordinate_fields(grid16)
    bad = HarmonicField(16, s_tau.coeffs + analyze(z1).coeffs)
    with pytest.warns(SolvabilityWarning):
        solve_embedding(bad, s_n)


def test_substitution_solutions_converge_for_smooth_profiles():
    # for a profile varying on the scale of r itself (power law, the natural
    # far-field structure: A'/A ~ 1/r) the paper and exact substitutions give
    # solutions differing by O(1/d) relative (ratio test across doubling d);
    # oscillatory standing-wave profiles violate this (the radius maps differ
    # by an O(1) shift compared to the wavelength)
    prof = SyntheticProfile(
        lambda r: np.sqrt(r),
        lambda r: 0.5 / np.sqrt(r),
        lambda r: -0.25 * r**-1.5,
    )
    rel = []
    for d in (50.0, 100.0, 200.0):
        sol_e = solve_embedding(
            *build_sources(prof, SurfaceSpec(d=d, substitution="exact"), 16)
        )
        sol_p = solve_embedding(
            *build_sources(prof, SurfaceSpec(d=d, substitution="paper"), 16)
        )
        num = np.sqrt(np.sum((sol_e.tau.coeffs - sol_p.tau.coeffs) ** 2))
        rel.append(num / sol_e.tau.norm())
    assert 1.6 <= rel[0] / rel[1] <= 2.4
    assert 1.6 <= rel[1] / rel[2] <= 2.4


# ----------------------------------------------------------------------
# the one-order sources against the 2-D oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("l_max", range(1, 65))
def test_default_frame_z1_is_constant_along_rows(l_max):
    # the oracle's sources are a row profile times z2 z3; exact equality keeps
    # each row's profile one value
    for grid in (SphereGrid.for_band_limit(l_max), SphereGrid.for_band_limit(2 * l_max)):
        z1 = coordinate_fields(grid)[0].values
        assert np.all(np.ptp(z1, axis=1) == 0)


def full_grid_sources(a, spec, grid):
    """``build_sources``' formulas with A, A' and A'' evaluated at every grid point."""
    z1, z2, z3 = (f.values for f in coordinate_fields(grid))
    r = radius_on_sphere(spec, z1)
    av, apv, appv = a.a(r), a.a_prime(r), a.a_double_prime(r)
    z23 = z2 * z3
    s_tau = (-appv * (1.0 - z1**2) + 6.0 * apv * z1 + 12.0 * av) * z23
    s_n = (appv - 2.0 * apv * z1 + 4.0 * av) * z23
    return s_tau, s_n


@pytest.mark.parametrize("substitution", ["exact", "paper"])
@pytest.mark.parametrize("l_max", [4, 16, 33])
def test_row_sources_are_bitwise_the_full_grid(axial_profile, l_max, substitution):
    # the row profiles times z2 z3 are the oracle's samples: one source formula
    grid = SphereGrid.for_band_limit(l_max)
    z1, z2, z3 = (f.values for f in coordinate_fields(grid))
    for prof, d in ((axial_profile, 40.0), (WAVY_PROFILE, 7.5)):
        spec = SurfaceSpec(d=d, substitution=substitution)
        r = radius_on_sphere(spec, z1[:, 0])
        rows = _row_profiles(z1[:, 0], prof.a(r), prof.a_prime(r), prof.a_double_prime(r))
        for row, want in zip(rows, full_grid_sources(prof, spec, grid)):
            assert (row[:, None] * (z2 * z3)).tobytes() == want.tobytes()


@pytest.mark.parametrize("substitution", ["exact", "paper"])
@pytest.mark.parametrize("l_max", [4, 16, 33, 64])
def test_sources_are_the_analyzed_full_grid(axial_profile, l_max, substitution):
    grid = SphereGrid.for_band_limit(l_max)
    order2 = np.zeros((l_max + 1, 2 * l_max + 1), dtype=bool)
    order2[2:, l_max - 2] = True
    for prof, d in ((axial_profile, 40.0), (WAVY_PROFILE, 7.5)):
        spec = SurfaceSpec(d=d, substitution=substitution)
        got = build_sources(prof, spec, l_max)
        for h, want in zip(got, full_grid_sources(prof, spec, grid)):
            oracle = analyze(GridField(want, grid)).coeffs
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(h.coeffs - oracle)) <= 1e-14 * scale
            # the oracle's content outside the sine m = 2 column is round-off
            assert np.max(np.abs(oracle[~order2])) <= 1e-14 * scale
            assert not np.any(h.coeffs[~order2])


def test_sources_evaluate_the_profile_once_per_row():
    shapes = []
    prof = SyntheticProfile(*(lambda r, f=f: shapes.append(r.shape) or f(r) for f in WAVY_PROFILE._fns))
    build_sources(prof, SurfaceSpec(d=7.5), 16)
    assert shapes == [(17,)] * 3


def test_off_order_entries_are_positive_zero(axial_profile):
    # embed_*.csv prints these entries: +0.0, never the -0.0 of a negative divisor
    L = 16
    off = np.ones((L + 1, 2 * L + 1), dtype=bool)
    off[2:, L - 2] = False
    for prof, d in ((axial_profile, 40.0), (WAVY_PROFILE, 7.5), (constant_profile(-1.0), 50.0)):
        s_tau, s_n = build_sources(prof, SurfaceSpec(d=d), L)
        emb = solve_embedding(s_tau, s_n)
        for h in (s_tau, s_n, emb.tau, emb.n_field):
            assert np.all(h.coeffs[off] == 0.0) and not np.any(np.signbit(h.coeffs[off]))
