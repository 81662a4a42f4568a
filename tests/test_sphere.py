"""Spherical quadrature, special functions, transforms, and operators."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import eval_legendre, roots_legendre, sph_legendre_p

from quasilocal import (
    BandLimitError,
    DomainError,
    GridField,
    HarmonicField,
    LoopSpec,
    SphereGrid,
    analyze,
    apply_operator,
    c_theta,
    coordinate_fields,
    gauss_legendre,
    grad_hess,
    integrate,
    legendre_p,
    legendre_p_dtheta,
    synthesize,
)
from quasilocal.sphere import (
    SphereDerivatives,
    _block_index,
    _harmonic_derivatives,
    _harmonic_tables,
    _theta_sums,
    evaluate,
    rotate_frame,
)

from conftest import random_harmonic


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------


def test_gauss_legendre_degree_one():
    nodes, weights = gauss_legendre(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_degree_two_analytic():
    # roots of P_2(x) = (3x^2 - 1)/2 are +-1/sqrt(3), weights 1, 1
    nodes, weights = gauss_legendre(2)
    assert nodes == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_gauss_legendre_weight_sum(n):
    nodes, weights = gauss_legendre(n)
    assert weights.sum() == pytest.approx(2.0, abs=1e-13)
    assert np.all(weights > 0)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(np.abs(nodes) < 1.0)


_GL_SIZES = [1, 2, 3, 17, 33, 65, 129, 193]


@pytest.mark.parametrize("n", _GL_SIZES)
def test_gauss_legendre_exact_on_monomials(n):
    nodes, weights = gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(weights * nodes**k) - exact) <= 1e-14


@pytest.mark.parametrize("n", _GL_SIZES)
def test_gauss_legendre_matches_scipy(n):
    # Against a 50-digit Newton reference the nodes here are within 0.71 ulp
    # for every n above; scipy's are within 4.4 ulp up to n = 129 but 9.4 ulp
    # at n = 193, so there the ulp is that of 1.  scipy's weights carry the
    # larger error (1.3e-10 relative at n = 193, against 1.0e-12 here).
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = roots_legendre(n)
    ulp = np.spacing(np.abs(ref_nodes) if n <= 129 else 1.0)
    assert np.all(np.abs(nodes - ref_nodes) <= 4 * ulp)
    assert np.all(np.abs(weights - ref_weights) <= 2e-10 * ref_weights)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])


def test_gauss_legendre_invalid():
    with pytest.raises(DomainError):
        gauss_legendre(0)


# ----------------------------------------------------------------------
# Legendre functions
# ----------------------------------------------------------------------


def test_legendre_spot_values():
    assert legendre_p(2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert legendre_p(2, 0.0) == pytest.approx(-0.5, abs=1e-15)
    xs = np.linspace(-1, 1, 7)
    assert legendre_p(0, xs) == pytest.approx(np.ones(7), abs=1e-15)


@pytest.mark.parametrize("ell", [1, 3, 7, 20])
def test_legendre_matches_scipy(ell):
    xs = np.linspace(-0.99, 0.99, 25)
    assert legendre_p(ell, xs) == pytest.approx(eval_legendre(ell, xs), abs=1e-12)


def test_legendre_domain_error():
    with pytest.raises(DomainError):
        legendre_p(2, 1.5)
    with pytest.raises(DomainError):
        legendre_p(-1, 0.5)


def test_legendre_dtheta_analytic():
    # d P_2(cos t) / dt = -3 cos t sin t
    ts = np.linspace(0.1, np.pi - 0.1, 11)
    assert legendre_p_dtheta(2, ts) == pytest.approx(
        -3.0 * np.cos(ts) * np.sin(ts), abs=1e-13
    )


def test_legendre_orthogonality_by_quadrature():
    # int P_l P_l' sin(t) dt = 2/(2l+1) delta; checks c_theta's P-level basis
    nodes, weights = gauss_legendre(24)
    for l1 in range(0, 6):
        for l2 in range(0, 6):
            val = np.sum(weights * legendre_p(l1, nodes) * legendre_p(l2, nodes))
            expect = 2.0 / (2 * l1 + 1) if l1 == l2 else 0.0
            assert val == pytest.approx(expect, abs=1e-13)


# ----------------------------------------------------------------------
# C_ell
# ----------------------------------------------------------------------


def test_c_theta_ell2_closed_form():
    # symbolic differentiation gives C_2 = 3 sin^2
    ts = np.linspace(0.0, np.pi, 21)
    assert c_theta(2, ts) == pytest.approx(3.0 * np.sin(ts) ** 2, abs=1e-13)
    assert c_theta(2, np.pi / 2) == pytest.approx(3.0, abs=1e-14)
    assert c_theta(2, 0.0) == 0.0


def test_c_theta_ell3_closed_form():
    # symbolic differentiation gives C_3 = 15 sin^2 cos
    ts = np.linspace(0.0, np.pi, 21)
    assert c_theta(3, ts) == pytest.approx(
        15.0 * np.sin(ts) ** 2 * np.cos(ts), abs=1e-12
    )
    assert abs(c_theta(3, np.pi / 2)) < 1e-14


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 8])
def test_c_theta_matches_definition(ell):
    # oracle: finite differences of (1/sin) dP(cos t)/dt, independent path
    ts = np.linspace(0.4, np.pi - 0.4, 9)
    h = 1e-5

    def inner(t):
        return legendre_p_dtheta(ell, t) / np.sin(t)

    fd = np.sin(ts) * (inner(ts + h) - inner(ts - h)) / (2.0 * h)
    assert c_theta(ell, ts) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_c_theta_poles_and_domain():
    assert c_theta(5, 0.0) == 0.0
    assert c_theta(5, np.pi) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(DomainError):
        c_theta(1, 0.5)


# ----------------------------------------------------------------------
# grids and transforms
# ----------------------------------------------------------------------


def test_grid_invariants(grid16):
    assert grid16.weights.sum() == pytest.approx(2.0, abs=1e-13)
    assert np.all(grid16.nodes > 0) and np.all(grid16.nodes < np.pi)
    with pytest.raises(BandLimitError):
        SphereGrid(8, 33, 16)
    with pytest.raises(BandLimitError):
        SphereGrid(17, 8, 16)


@pytest.mark.parametrize("l_max", [4, 8, 16, 32])
def test_transform_round_trip(l_max):
    h = random_harmonic(l_max, seed=l_max)
    grid = SphereGrid.for_band_limit(l_max)
    h2 = analyze(synthesize(h, grid))
    scale = np.max(np.abs(h.coeffs))
    assert np.max(np.abs(h2.coeffs - h.coeffs)) <= 1e-12 * scale


def test_parseval(grid16):
    h = random_harmonic(16, seed=3)
    f = synthesize(h, grid16)
    assert integrate(f * f) == pytest.approx(np.sum(h.coeffs**2), rel=1e-12)


def test_analyze_constant(grid16):
    f = GridField(np.ones((grid16.n_theta, grid16.n_phi)), grid16)
    h = analyze(f)
    assert h.coefficient(0, 0) == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-14)
    mask = np.abs(h.coeffs) > 1e-12
    assert mask.sum() == 1


def test_z2z3_is_pure_l2(grid16):
    z1, z2, z3 = coordinate_fields(grid16)
    h = analyze(z2 * z3)
    nonzero = np.argwhere(np.abs(h.coeffs) > 1e-12)
    assert nonzero.tolist() == [[2, 16 - 2]]  # single (l=2, m=-2) entry
    # coefficient fixed by the moment int (Z2 Z3)^2 = 4 pi / 15
    assert h.coefficient(2, -2) == pytest.approx(
        np.sqrt(4.0 * np.pi / 15.0), rel=1e-13
    )


def test_orthonormality_gram():
    l_max = 10
    grid = SphereGrid.for_band_limit(l_max)
    n = (l_max + 1) ** 2
    basis = np.empty((n, grid.n_theta, grid.n_phi))
    idx = 0
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            h = HarmonicField.zeros(l_max)
            h.coeffs[l, l_max + m] = 1.0
            basis[idx] = synthesize(h, grid).values
            idx += 1
    w2d = grid.weights[:, None] * (2.0 * np.pi / grid.n_phi)
    gram = np.einsum("ajk,jk,bjk->ab", basis, w2d, basis)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_harmonic_tables_match_scipy():
    # independent oracle for values and both theta-derivatives at l_max = 64;
    # scipy includes the Condon-Shortley phase and omits the sqrt(2) of m > 0.
    # The bound scales with each (order, l, m) row's largest magnitude: near
    # the poles scipy's own derivatives are off by up to 3.5e-12 (against
    # 40-digit mpmath at l=43, m=6, theta=0.132), more than a pointwise 1e-12.
    l_max = 64
    theta = SphereGrid.for_band_limit(l_max).nodes
    tables = np.stack(_harmonic_tables(l_max, theta, 2))
    l, m = np.tril_indices(l_max + 1)
    ref = sph_legendre_p(l[:, None], m[:, None], theta[None, :], diff_n=2)
    ref = ref * np.where(m > 0, np.sqrt(2.0), 1.0)[:, None] * ((-1.0) ** m)[:, None]
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1, keepdims=True))
    assert np.all(np.abs(tables[:, l, m, :] - ref) <= 1e-12 * scale)
    upper = np.triu_indices(l_max + 1, 1)
    assert not np.any(tables[:, upper[0], upper[1], :])


def test_evaluate_matches_synthesize(grid16):
    h = random_harmonic(6, seed=11)
    f = synthesize(h, grid16)
    pts = evaluate(h, grid16.nodes, np.zeros_like(grid16.nodes))
    assert pts == pytest.approx(f.values[:, 0], abs=1e-12)


def _evaluate_every_point(h, theta, phi):
    """``evaluate`` with a Legendre table column built for every point."""
    gc, gs = _theta_sums(h, _harmonic_tables(h.l_max, theta, 0)[0])
    m = np.arange(h.l_max + 1, dtype=float)[:, None]
    return np.einsum("mp,mp->p", gc, np.cos(m * phi[None, :])) + np.einsum(
        "mp,mp->p", gs, np.sin(m * phi[None, :])
    )


WAVY = LoopSpec(  # (4 s) % 1 is exact at s = k/512, so each colatitude recurs 4 times
    lambda s: 1.2 + 0.3 * math.cos(2.0 * math.pi * ((4.0 * s) % 1.0)),
    lambda s: 2.0 * math.pi * s + 0.1 * math.sin(2.0 * math.pi * s),
    n_samples=512,
)


@pytest.mark.parametrize(
    "loop, max_distinct", [(LoopSpec.circle(1.1, 512), 1), (WAVY, 128)], ids=["circle", "wavy"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_per_distinct_colatitude_is_bitwise(loop, max_distinct, seed):
    assert np.unique(loop.theta).size <= max_distinct
    h = random_harmonic(24, seed)
    got = evaluate(h, loop.theta, loop.phi)
    assert np.array_equal(got, _evaluate_every_point(h, loop.theta, loop.phi))


def test_block_index_is_cached_and_read_only():
    (lc, mc), (ls, ms) = _block_index(6)
    assert _block_index(6)[0][0] is lc
    for index in (lc, mc, ls, ms):
        with pytest.raises(ValueError):
            index[0] = 1


def test_band_limit_violation(grid16):
    h = random_harmonic(32, seed=1)
    with pytest.raises(BandLimitError):
        synthesize(h, grid16)
    f = GridField(np.ones((grid16.n_theta, grid16.n_phi)), grid16)
    with pytest.raises(BandLimitError):
        analyze(f, l_max=32)


# ----------------------------------------------------------------------
# operators and derivatives
# ----------------------------------------------------------------------


def test_operator_eigenvalues(grid16):
    z1, z2, z3 = coordinate_fields(grid16)
    h1 = analyze(z1)
    # roundoff coefficients at high degree are amplified by the eigenvalues
    assert np.max(np.abs(apply_operator(h1, "laplacian").coeffs + 2.0 * h1.coeffs)) < 1e-12
    assert np.max(np.abs(apply_operator(h1, "laplacian_plus_2").coeffs)) < 1e-12
    h23 = analyze(z2 * z3)
    out = apply_operator(h23, "laplacian_laplacian_plus_2")
    assert out.coefficient(2, -2) == pytest.approx(24.0 * h23.coefficient(2, -2), rel=1e-13)
    with pytest.raises(DomainError):
        apply_operator(h1, "banana")


def test_grad_hess_coordinate_function(grid16):
    z1, _, _ = coordinate_fields(grid16)
    d = grad_hess(z1)
    assert np.max(np.abs(d.grad_sq.values - (1.0 - z1.values**2))) < 1e-12
    assert np.max(np.abs(d.laplacian.values + 2.0 * z1.values)) < 1e-11


def test_laplacian_commutes_with_analyze(grid16):
    h = random_harmonic(16, seed=5)
    f = synthesize(h, grid16)
    lap_grid = analyze(grad_hess(f).laplacian)
    lap_spec = apply_operator(h, "laplacian")
    scale = np.max(np.abs(lap_spec.coeffs)) or 1.0
    assert np.max(np.abs(lap_grid.coeffs - lap_spec.coeffs)) <= 1e-10 * scale


@pytest.mark.parametrize("l_max", [4, 5, 6, 7, 8])
def test_derivatives_from_coefficients_match_the_round_trip(l_max):
    # grad_hess(synthesize(h)) analyzes at the grid's 2L; the helper uses h's L
    grid = SphereGrid.for_band_limit(2 * l_max)
    h = random_harmonic(l_max, seed=40 + l_max)
    got = _harmonic_derivatives(h, grid)
    want = grad_hess(synthesize(h, grid))
    for field in dataclasses.fields(SphereDerivatives):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g.grid is grid
        assert np.max(np.abs(g.values - w.values)) <= 1e-12 * np.max(np.abs(w.values)), field.name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bochner_identity(seed):
    # int |Hess f|^2 = int (Lap f)^2 - int |grad f|^2 on the unit sphere
    l_max = 8
    grid = SphereGrid.for_band_limit(2 * l_max)
    d = grad_hess(synthesize(random_harmonic(l_max, seed), grid))
    lhs = integrate(d.hess_sq)
    rhs = integrate(d.laplacian * d.laplacian) - integrate(d.grad_sq)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------


def test_integrate_moments(grid16):
    z1, z2, z3 = coordinate_fields(grid16)
    ones = GridField(np.ones_like(z1.values), grid16)
    assert integrate(ones) == pytest.approx(4.0 * np.pi, rel=1e-14)
    # moment verified symbolically: int Z2^2 Z3^2 = 4 pi / 15
    assert integrate((z2 * z3) * (z2 * z3)) == pytest.approx(
        4.0 * np.pi / 15.0, rel=1e-13
    )
    assert abs(integrate(z1)) < 1e-14


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------


def test_rotate_frame(grid16):
    from quasilocal.sphere import DEFAULT_FRAME

    ang = 0.7
    rot = rotate_frame(DEFAULT_FRAME, ang)
    assert rot @ rot.T == pytest.approx(np.eye(3), abs=1e-15)
    z1, z2, z3 = coordinate_fields(grid16)
    z1r, z2r, z3r = coordinate_fields(grid16, rot)
    assert z1r.values == pytest.approx(z1.values, abs=1e-15)
    assert z2r.values == pytest.approx(
        np.cos(ang) * z2.values + np.sin(ang) * z3.values, abs=1e-14
    )
