"""Spherical quadrature, special functions, transforms, and operators."""

import dataclasses
import math
import sys
import threading
import unittest.mock
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    synthesize,
)
import quasilocal.sphere
from quasilocal.sphere import (
    SphereDerivatives,
    _blocks,
    _eigenvalues,
    _harmonic_derivatives,
    _ladder_tables,
    _legendre_p_derivs,
    _legendre_table,
    _point_derivatives,
    _quadratic_form,
    _real_scaled,
    evaluate,
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


def legendre_p(ell, x):
    return _legendre_p_derivs(ell, x, 0)[0]


def legendre_p_dtheta(ell, theta):
    """d P_ell(cos theta) / d theta from the recurrence's first x-derivative."""
    return -np.sin(theta) * _legendre_p_derivs(ell, np.cos(theta), 1)[1]


def test_legendre_spot_values():
    assert legendre_p(2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert legendre_p(2, 0.0) == pytest.approx(-0.5, abs=1e-15)
    xs = np.linspace(-1, 1, 7)
    assert legendre_p(0, xs) == pytest.approx(np.ones(7), abs=1e-15)


@pytest.mark.parametrize("ell", [1, 3, 7, 20])
def test_legendre_matches_scipy(ell):
    xs = np.linspace(-0.99, 0.99, 25)
    assert legendre_p(ell, xs) == pytest.approx(eval_legendre(ell, xs), abs=1e-12)


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


@pytest.mark.parametrize("ell", range(21))
def test_legendre_derivatives_match_numpy_polynomials(ell):
    # the second and third derivatives feed the axial Q3 and its theta-derivative
    xs = np.linspace(-0.95, 0.95, 41)
    got = _legendre_p_derivs(ell, xs, 3)
    basis = np.polynomial.legendre.Legendre.basis(ell)
    for k in range(4):
        want = basis.deriv(k)(xs)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got[k] - want)) <= 1e-12 * scale, k


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


def _tables(l_max, theta):
    """Ybar and its four ladder tables (d/dtheta, d2/dtheta2, m/sin, d/dtheta m/sin),
    composed as ``SphereGrid`` does."""
    pbar = _legendre_table(l_max, theta)
    return (_real_scaled(pbar.copy()), *_ladder_tables(pbar))


def _full_theta_sums(h, theta_table):
    """The theta sums as they stood, each block masked once per table and summed
    over every order of the table (kept verbatim)."""
    L = h.l_max
    ac = np.tril(h.coeffs[:, L:])
    as_ = np.tril(h.coeffs[:, L::-1])
    as_[:, 0] = 0.0  # the cosine block's m = 0; a sine block starts at m = 1
    tab = theta_table[: L + 1, : L + 1, :]
    return np.einsum("lmj,lm->mj", tab, ac), np.einsum("lmj,lm->mj", tab, as_)


def _order_windows(l_max):
    """Every order window at l_max <= 10; above, each single order (what ``evaluate`` and
    the source rule read) and the window two orders either side of it (what the ladder reads)."""
    if l_max <= 10:
        return [(lo, hi) for lo in range(l_max + 1) for hi in range(lo, l_max + 1)]
    return [w for m in range(l_max + 1) for w in ((m, m), (max(0, m - 2), min(l_max, m + 2)))]


def test_order_windows_are_bitwise_the_tables():
    # at the sources' Gauss rows, as embedding._source_rule reads its order-2
    # column, and at both poles, where the point path reads its windows
    for l_max in range(2, 65):
        theta = np.concatenate(([0.0, np.pi], np.arccos(gauss_legendre(l_max + 1)[0])))
        full = _legendre_table(l_max, theta)
        for lo, hi in _order_windows(l_max):
            assert _legendre_table(l_max, theta, lo, hi).tobytes() == full[:, lo : hi + 1].tobytes(), (l_max, lo, hi)


def test_harmonic_tables_match_scipy():
    # independent oracle for values and both theta-derivatives at l_max = 64;
    # scipy includes the Condon-Shortley phase and omits the sqrt(2) of m > 0.
    # The bound scales with each (order, l, m) row's largest magnitude: near
    # the poles scipy's own derivatives are off by up to 3.5e-12 (against
    # 40-digit mpmath at l=43, m=6, theta=0.132), more than a pointwise 1e-12.
    l_max = 64
    theta = SphereGrid.for_band_limit(l_max).nodes
    tables = np.stack(_tables(l_max, theta)[:3])
    l, m = np.tril_indices(l_max + 1)
    ref = sph_legendre_p(l[:, None], m[:, None], theta[None, :], diff_n=2)
    ref = ref * np.where(m > 0, np.sqrt(2.0), 1.0)[:, None] * ((-1.0) ** m)[:, None]
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1, keepdims=True))
    assert np.all(np.abs(tables[:, l, m, :] - ref) <= 1e-12 * scale)
    upper = np.triu_indices(l_max + 1, 1)
    assert not np.any(tables[:, upper[0], upper[1], :])


def _mpmath_tables(l_max, theta):
    """Ybar, d/dtheta, d2/dtheta2, (m/sin) Ybar and its d/dtheta at 40 digits, shape (5, L+1, L+1, n).

    mpmath.legenp carries the Condon-Shortley phase, as scipy does.  At order m
    its hypergeometric series has a pole and fails to converge near the poles,
    so it is called at order -m and |cos theta|, where the series terminates,
    and turned back by DLMF 14.9.3 and 14.7.17.  The derivatives follow from
    the same-m relation and Legendre's equation; their divisions by sin(theta)
    cost at most about 16 of the 40 digits at theta = 1e-8.
    """
    out = np.zeros((5, l_max + 1, l_max + 1, len(theta)))
    with mpmath.workdps(40):
        for j, th in enumerate(theta):
            th = mpmath.mpf(float(th))
            x, s = mpmath.cos(th), mpmath.sin(th)

            def p_lm(l, m):  # P_l^m(x), Condon-Shortley phase
                if m > l:
                    return mpmath.mpf(0)
                parity = (-1) ** (l + m) if x < 0 else 1
                ratio = mpmath.factorial(l + m) / mpmath.factorial(l - m)
                return parity * (-1) ** m * ratio * mpmath.legenp(l, -m, abs(x), type=2)

            for l in range(l_max + 1):
                for m in range(l + 1):
                    p, p_below = p_lm(l, m), p_lm(l - 1, m) if l else 0
                    d1 = (l * x * p - (l + m) * p_below) / s
                    d2 = -(x / s) * d1 - (l * (l + 1) - m * m / (s * s)) * p
                    q, dq = m * p / s, m * (d1 / s - x * p / (s * s))
                    ratio = mpmath.factorial(l - m) / mpmath.factorial(l + m)
                    norm = mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi) * ratio) * (-1) ** m
                    norm *= mpmath.sqrt(2) if m else 1
                    for k, v in enumerate((p, d1, d2, q, dq)):
                        out[k, l, m, j] = float(norm * v)
    return out


def test_ladder_tables_match_mpmath_at_the_poles():
    # each (table, l, m) row to 1e-12 of its largest magnitude over the colatitudes;
    # d/dtheta (m/sin) Pbar_11 vanishes identically, and the oracle gives it as 1e-38
    l_max = 24
    theta = np.array([1e-8, 1e-4, 0.7, np.pi / 2, np.pi - 1e-8])
    got = np.stack(_tables(l_max, theta))
    want = _mpmath_tables(l_max, theta)
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * scale, 1e-30))
    upper = np.triu_indices(l_max + 1, 1)
    assert not np.any(got[:, upper[0], upper[1], :])


def _per_degree_ybar(l_max, theta):
    """The Ybar part of the table builder as it stood before its coefficients became
    whole arrays (kept verbatim; its theta-derivative formulas are gone with the builder)."""
    theta = np.asarray(theta, dtype=float)
    x, s = np.cos(theta), np.sin(theta)
    L = l_max
    pbar = np.zeros((L + 1, L + 1, theta.size))
    pbar[0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for l in range(1, L + 1):
        pbar[l, l] = np.sqrt((2 * l + 1) / (2.0 * l)) * s * pbar[l - 1, l - 1]
        pbar[l, l - 1] = np.sqrt(2 * l + 1.0) * x * pbar[l - 1, l - 1]
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        pbar[l, : l - 1] = a * (x * pbar[l - 1, : l - 1] - b * pbar[l - 2, : l - 1])
    pbar[:, 1:] *= np.sqrt(2.0)
    return pbar


def _same_bytes(got, want):
    return len(got) == len(want) and all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


TABLE_CASES = [
    (l_max, n)
    for l_max in [*range(9), 16, 32, 48, 64]
    for n in sorted({1, 7, l_max + 1, 2 * l_max + 1})
]


@pytest.mark.parametrize("l_max, n_theta", TABLE_CASES)
def test_tables_are_bitwise_the_per_degree_builder(l_max, n_theta):
    theta = np.arccos(gauss_legendre(n_theta)[0][::-1])
    assert _tables(l_max, theta)[0].tobytes() == _per_degree_ybar(l_max, theta).tobytes()
    if n_theta >= l_max + 1:
        grid = SphereGrid(n_theta, 2 * l_max + 1, l_max)
        assert grid._ybar.tobytes() == _per_degree_ybar(l_max, grid.nodes).tobytes()


@pytest.mark.parametrize("l_max", [0, 5, 16, 64])
def test_evaluate_on_one_colatitude_is_bitwise_the_per_degree_builder(l_max):
    loop = LoopSpec.circle(0.83, 64)
    h = random_harmonic(l_max, seed=l_max)
    gc, gs = _full_theta_sums(h, _per_degree_ybar(l_max, loop.theta[:1]))
    m = np.arange(l_max + 1, dtype=float)[:, None]
    want = np.einsum("mp,mp->p", gc[:, [0] * 64], np.cos(m * loop.phi[None, :])) + np.einsum(
        "mp,mp->p", gs[:, [0] * 64], np.sin(m * loop.phi[None, :])
    )
    assert evaluate(h, loop.theta, loop.phi).tobytes() == want.tobytes()


def _grid_tables(grid):
    return (grid._ybar, *grid._ladder, grid._cosm, grid._sinm)


def test_fresh_grid_holds_every_table_and_no_lock():
    grid = SphereGrid(9, 19, 8)
    slots = vars(grid)
    arrays = {name for name, value in slots.items() if isinstance(value, np.ndarray)}
    assert arrays == {"cos_theta", "weights", "nodes", "sin_theta", "phi", "_ybar", "_cosm", "_sinm"}
    assert len(grid._ladder) == 4 and all(t.shape == grid._ybar.shape for t in grid._ladder)
    assert all(value is not None for value in slots.values())
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    assert not any(isinstance(value, lock_types) for value in slots.values())


@pytest.mark.parametrize("l_max", range(41))
def test_lazy_transform_tables_are_bitwise_the_eager_build(l_max):
    # every table a grid holds is its builder's output at the grid's rows
    for grid in (SphereGrid.for_band_limit(l_max), SphereGrid(2 * l_max + 1, 4 * l_max + 1, l_max)):
        m = np.arange(l_max + 1)[:, None]
        want = (
            _real_scaled(_legendre_table(l_max, grid.nodes)),
            *_ladder_tables(_legendre_table(l_max, grid.nodes)),
            np.cos(m * grid.phi[None, :]),
            np.sin(m * grid.phi[None, :]),
        )
        assert _same_bytes(_grid_tables(grid), want)


@pytest.mark.parametrize("l_max", [0, 1, 8, 33])
def test_table_read_order_does_not_change_the_bytes(l_max):
    h = random_harmonic(l_max, seed=l_max)
    derivatives_first, transform_first = SphereGrid.for_band_limit(l_max), SphereGrid.for_band_limit(l_max)
    _harmonic_derivatives(h, derivatives_first)
    analyze(synthesize(h, transform_first))
    assert _same_bytes(_grid_tables(derivatives_first), _grid_tables(transform_first))


def _table_builds(monkeypatch):
    """"legendre" or "ladder" for each ``_legendre_table`` or ``_ladder_tables`` call made from now on."""
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(quasilocal.sphere, "_legendre_table", counted("legendre", _legendre_table))
    monkeypatch.setattr(quasilocal.sphere, "_ladder_tables", counted("ladder", _ladder_tables))
    return calls


def test_grid_makes_one_legendre_table(monkeypatch):
    calls = _table_builds(monkeypatch)
    grid = SphereGrid.for_band_limit(8)
    assert calls == ["legendre", "ladder"]
    h = random_harmonic(8, seed=2)
    grad_hess(synthesize(h, grid))
    analyze(synthesize(h, grid))
    assert calls == ["legendre", "ladder"]  # the transforms only read


def test_first_derivative_read_does_not_deadlock():
    # a grid's first derivative read takes no lock: run it on a daemon thread,
    # and a hang fails the join below instead of the whole run
    h = random_harmonic(8, seed=3)
    grid = SphereGrid.for_band_limit(8)
    results = []
    reader = threading.Thread(target=lambda: results.append(_harmonic_derivatives(h, grid)), daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert len(results) == 1
    want = _harmonic_derivatives(h, SphereGrid.for_band_limit(8))
    for f in dataclasses.fields(SphereDerivatives):
        assert getattr(results[0], f.name).values.tobytes() == getattr(want, f.name).values.tobytes()


def test_first_derivative_read_is_shared_between_threads(monkeypatch):
    # 4 threads read one fresh grid at once; none builds a table, none waits
    # on another (a hang fails the 10 s result timeout), and every result is
    # bitwise the one-thread result
    h = random_harmonic(24, seed=5)
    want = _harmonic_derivatives(h, SphereGrid.for_band_limit(24))
    grid = SphereGrid.for_band_limit(24)
    calls = _table_builds(monkeypatch)
    start = threading.Barrier(4, timeout=10)

    def first_read(_):
        start.wait()
        return _harmonic_derivatives(h, grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(first_read, i) for i in range(4)]
            results = [f.result(timeout=10) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert calls == []
    for got in results:
        for f in dataclasses.fields(SphereDerivatives):
            assert getattr(got, f.name).values.tobytes() == getattr(want, f.name).values.tobytes()


def test_evaluate_matches_synthesize(grid16):
    h = random_harmonic(6, seed=11)
    f = synthesize(h, grid16)
    pts = evaluate(h, grid16.nodes, np.zeros_like(grid16.nodes))
    assert pts == pytest.approx(f.values[:, 0], abs=1e-12)


def _evaluate_every_point(h, theta, phi):
    """``evaluate`` with a Legendre table column built for every point."""
    gc, gs = _full_theta_sums(h, _tables(h.l_max, theta)[0])
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


def _block_index(l_max):
    """(l, m) of the cosine (m >= 0) and sine (m > 0) entries of the [l, m] blocks.

    The index builder as it stood, without its cache and read-only flags, which moved no value.
    """
    l, m = np.tril_indices(l_max + 1)
    sine = m > 0
    index = (l, m, l[sine], m[sine])
    return index[:2], index[2:]


def _analyze_by_index(field):
    """``analyze`` as it stood with the fancy-index scatter (kept verbatim at the grid's band limit)."""
    grid = field.grid
    l_max = grid.l_max
    fc = np.einsum("jk,mk->jm", field.values, grid._cosm) * grid._dphi
    fs = np.einsum("jk,mk->jm", field.values, grid._sinm) * grid._dphi
    yw = grid._ybar * grid.weights[None, None, :]
    ac = np.einsum("lmj,jm->lm", yw, fc)
    as_ = np.einsum("lmj,jm->lm", yw, fs)
    coeffs = np.zeros((l_max + 1, 2 * l_max + 1))
    (lc, mc), (ls, ms) = _block_index(l_max)
    coeffs[lc, l_max + mc] = ac[lc, mc]
    coeffs[ls, l_max - ms] = as_[ls, ms]
    return HarmonicField(l_max, coeffs)


def _theta_sums_by_index(h, theta_table):
    """The theta sums as they stood with the fancy-index gather, each block summed over every
    order of the table (kept verbatim)."""
    L = h.l_max
    ac = np.zeros((L + 1, L + 1))
    as_ = np.zeros((L + 1, L + 1))
    (lc, mc), (ls, ms) = _block_index(L)
    ac[lc, mc] = h.coeffs[lc, L + mc]
    as_[ls, ms] = h.coeffs[ls, L - ms]
    tab = theta_table[: L + 1, : L + 1, :]
    return np.einsum("lmj,lm->mj", tab, ac), np.einsum("lmj,lm->mj", tab, as_)


def _outside(l_max):
    """The slots with |m| > l of a coefficient array."""
    return np.abs(np.arange(-l_max, l_max + 1))[None, :] > np.arange(l_max + 1)[:, None]


def _signed_zeros_and_junk(l_max, seed):
    """Random coefficients with exact +0.0 and -0.0 among the stored ones and junk in |m| > l."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((l_max + 1, 2 * l_max + 1))
    pick = rng.random(c.shape)
    c[pick < 0.2] = 0.0
    c[pick > 0.8] = -0.0
    outside = _outside(l_max)
    c[outside] = rng.choice([np.nan, np.inf, -1e300, -0.0, 3.0], size=outside.sum())
    return HarmonicField(l_max, c)


def _syntheses(h, grids, theta, phi):
    with np.errstate(invalid="ignore"):  # an inf coefficient makes nan
        out = [evaluate(h, theta, phi)]
        for grid in grids:
            d = _harmonic_derivatives(h, grid)
            out += [synthesize(h, grid).values, *(getattr(d, f.name).values for f in dataclasses.fields(d))]
    return out


def _full_syntheses(h, grids, theta, phi):
    """``_syntheses`` by the formulas as they stood, sharing no code with the one under test:
    the index gather's theta sums over every order, the Laplacian by ``apply_operator`` and
    the grid's longitude stage (kept verbatim but for the names)."""
    with np.errstate(invalid="ignore"):
        out = [_full_order_points((h,), theta, phi, _theta_sums_by_index)[0]]
        for grid in grids:
            def stage(gc, gs):
                n = gc.shape[-2]
                return np.einsum("...mj,mk->...jk", gc, grid._cosm[:n]) + np.einsum("...mj,mk->...jk", gs, grid._sinm[:n])

            d = _full_derivatives(h, (grid._ybar, *grid._ladder), stage, _theta_sums_by_index)
            out += [stage(*_theta_sums_by_index(h, grid._ybar)), *(d[f.name] for f in dataclasses.fields(SphereDerivatives))]
    return out


@pytest.mark.parametrize("l_max", range(41))
def test_block_slices_are_bitwise_the_index_gather_and_scatter(l_max):
    grids = (SphereGrid.for_band_limit(l_max), SphereGrid(2 * l_max + 1, 4 * l_max + 1, l_max))
    h = _signed_zeros_and_junk(l_max, seed=l_max)
    rng = np.random.default_rng(100 + l_max)
    theta, phi = rng.uniform(0.0, np.pi, 64), rng.uniform(0.0, 2.0 * np.pi, 64)
    for grid in grids:
        shape = (grid.n_theta, grid.n_phi)
        noisy = rng.standard_normal(shape)
        noisy[rng.random(shape) < 0.3] = -0.0
        blown = noisy.copy()
        blown[-1, 0] = np.inf  # 0 * inf is nan in every |m| > l slot of the unmasked blocks
        smooth = synthesize(random_harmonic(l_max, l_max), grid).values
        for values in (noisy, blown, np.full(shape, -0.0), smooth):
            with np.errstate(invalid="ignore"):
                got, want = analyze(GridField(values, grid)), _analyze_by_index(GridField(values, grid))
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.coeffs[_outside(l_max)].tobytes() == np.zeros(_outside(l_max).sum()).tobytes()
    zeros = HarmonicField(l_max, np.where(_outside(l_max), h.coeffs, -0.0))
    blown = HarmonicField(l_max, h.coeffs.copy())
    blown.coeffs[l_max, l_max] = np.inf  # an m = 0 read as a sine coefficient makes inf * 0
    for f in (h, zeros, blown):
        assert _same_bytes(_syntheses(f, grids, theta, phi), _full_syntheses(f, grids, theta, phi))


def test_band_limit_violation(grid16):
    h = random_harmonic(32, seed=1)
    with pytest.raises(BandLimitError):
        synthesize(h, grid16)


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


@pytest.mark.parametrize("op", ["laplacian_plus_2", "laplacian_laplacian_plus_2"])
@pytest.mark.parametrize("l_max", [2, 4, 8, 16, 32])
def test_quadratic_form_is_the_grid_integral(l_max, op):
    # Parseval: int h op(h) = sum_l lambda_l sum_m c_lm^2, exact on the grid for 2 l_max
    h = random_harmonic(l_max, seed=l_max)
    grid = SphereGrid.for_band_limit(2 * l_max)
    want = integrate(synthesize(h, grid) * synthesize(apply_operator(h, op), grid))
    scale = float(np.sum(np.abs(_eigenvalues(op, l_max))[:, None] * h.coeffs**2))
    assert abs(_quadratic_form(h, op) - want) <= 1e-13 * scale


def test_quadratic_form_of_y20_is_exact():
    h = HarmonicField.zeros(2)
    h.coeffs[2, 2] = 1.0  # Y_20 alone; (Delta + 2) Y_20 = -4 Y_20
    assert _quadratic_form(h, "laplacian_plus_2") == -4.0


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


@pytest.mark.parametrize("l_max", [0, 3, 16])
def test_point_derivatives_match_the_grid_derivatives(l_max):
    # one set of tables, summed by the per-point longitude stage and by the grid's
    grid = SphereGrid.for_band_limit(2 * l_max)
    h = random_harmonic(l_max, seed=80 + l_max)
    theta, phi = np.meshgrid(grid.nodes, grid.phi, indexing="ij")
    (got,) = _point_derivatives((h,), theta.ravel(), phi.ravel())
    d = _harmonic_derivatives(h, grid)
    want = {f.name: getattr(d, f.name).values for f in dataclasses.fields(SphereDerivatives)}
    want["value"] = synthesize(h, grid).values
    assert sorted(got) == sorted(want)
    for name, w in want.items():
        assert np.max(np.abs(got[name].reshape(w.shape) - w)) <= 1e-13 * np.max(np.abs(w)), name


def _full_derivatives(h, tables, stage, theta_sums):
    """``_derivatives`` of ``h`` as it stood: ``theta_sums`` of each table over every order and
    of the Laplacian by ``apply_operator``, summed by ``stage`` (kept verbatim but for the names)."""
    (c0, s0), (c1, s1), (c2, s2), (cq, sq), (cdq, sdq) = (theta_sums(h, t) for t in tables)
    cl, sl = theta_sums(apply_operator(h, "laplacian"), tables[0])
    value, grad_theta, grad_phi, hess_tt, hess_tp, laplacian = stage(
        np.stack((c0, c1, sq, c2, sdq, cl)), np.stack((s0, s1, -cq, s2, -cdq, sl))
    )
    hess_pp = laplacian - hess_tt
    return {"value": value, "grad_theta": grad_theta, "grad_phi": grad_phi, "laplacian": laplacian,
            "grad_sq": grad_theta**2 + grad_phi**2, "hess_sq": hess_tt**2 + 2.0 * hess_tp**2 + hess_pp**2}


def _full_order_points(hs, theta, phi, theta_sums=_full_theta_sums):
    """``evaluate`` of ``hs[0]``, whose band limit is the largest, and ``_point_derivatives``
    of ``hs`` as they stood: the tables, theta sums and longitude stage over every
    order 0..L (kept verbatim but for the names)."""
    nodes, inverse = np.unique(theta, return_inverse=True)
    m = np.arange(hs[0].l_max + 1, dtype=float)[:, None]
    cosm, sinm = np.cos(m * phi[None, :]), np.sin(m * phi[None, :])

    def stage(gc, gs):
        n, terms = gc.shape[-2], "...mp,mp->...p"
        return np.einsum(terms, gc[..., inverse], cosm[:n]) + np.einsum(terms, gs[..., inverse], sinm[:n])

    pbar = _legendre_table(hs[0].l_max, nodes)
    tables = (_real_scaled(pbar.copy()), *_ladder_tables(pbar))
    derivatives = [_full_derivatives(h, tables, stage, theta_sums) for h in hs]
    return stage(*theta_sums(hs[0], tables[0])), derivatives


@st.composite
def _sparse_field(draw, l_max):
    """(field, held orders): random coefficients in a few cosine and sine columns, the rest +0.0
    but for one column of -0.0, which holds nothing."""
    orders = draw(st.one_of(
        st.just(set()),  # the zero field
        st.sampled_from([{0}, {l_max}]),
        st.integers(0, l_max).map(lambda m: {m}),
        st.sets(st.integers(0, l_max), min_size=min(2, l_max + 1), max_size=6),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    c = np.zeros((l_max + 1, 2 * l_max + 1))
    for m in orders:
        branches = draw(st.sampled_from([(1,), (-1,), (1, -1)])) if m else (1,)
        for sign in branches:
            c[m:, l_max + sign * m] = rng.standard_normal(l_max + 1 - m)
    signed_zero = int(rng.integers(0, 2 * l_max + 1))
    if abs(signed_zero - l_max) not in orders:
        c[:, signed_zero] = -0.0
    return HarmonicField(l_max, c), orders


@st.composite
def _point_sets(draw):
    """(theta, phi) at one point, or at 2 to 200 points on one colatitude (a coordinate
    circle, or a pole) or on many colatitudes, both poles among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_points = draw(st.one_of(st.just(1), st.integers(2, 200)))
    if draw(st.booleans()):
        rows = np.array([draw(st.sampled_from([0.0, np.pi, 1e-8, 1.1, np.pi / 2]))])
    else:
        rows = np.concatenate(([0.0, np.pi], rng.uniform(0.0, np.pi, draw(st.integers(1, 60)))))
    return rows[rng.integers(0, rows.size, n_points)], rng.uniform(0.0, 2.0 * np.pi, n_points)


@st.composite
def _field_pairs(draw):
    """A field at l_max 2..32 and one at the same or a lower band limit, with their held orders."""
    l_max = draw(st.integers(2, 32))
    first = draw(_sparse_field(l_max))
    return first, draw(_sparse_field(draw(st.integers(0, l_max))))


def _one_point_tolerance(h, theta):
    """The most a sum at one point may move when its orders are grouped otherwise: 8 (L+1) eps S
    for the sums, S = sum |a_lm| times the largest |T| over Ybar, its ladder tables and
    l(l+1) Ybar at the colatitude, a bound on every term; 8 S times that for the squared sums."""
    tables = _tables(h.l_max, theta[:1])
    top = max(h.l_max * (h.l_max + 1), 1) * np.max(np.abs(tables[0]))
    scale = np.sum(np.abs(h.coeffs)) * max(top, *(np.max(np.abs(t)) for t in tables))
    linear = 8.0 * (h.l_max + 1) * np.finfo(float).eps * scale
    return {"value": linear, "grad_theta": linear, "grad_phi": linear, "laplacian": linear,
            "grad_sq": 8.0 * linear * scale, "hess_sq": 8.0 * linear * scale}


def _assert_held_order_sums(got, want, h, held, theta):
    """Bitwise at two or more points, or when ``h`` holds at most one order; else within
    ``_one_point_tolerance``: at one point numpy sums the longitude stage over the orders
    in SIMD lanes, whose grouping moves with the number of orders summed."""
    tolerance = _one_point_tolerance(h, theta) if theta.size == 1 and len(held) > 1 else None
    assert sorted(got) == sorted(want)
    for name in want:
        if tolerance is None:
            assert got[name].tobytes() == want[name].tobytes(), name
        else:
            assert np.abs(got[name] - want[name]) <= tolerance[name], name


@settings(database=None, deadline=None, max_examples=300)
@given(pair=_field_pairs(), points=_point_sets())
def test_point_sums_over_the_held_orders_are_bitwise_the_full_order_sums(pair, points):
    (h, held), (h2, held2) = pair
    theta, phi = points
    want_value, want = _full_order_points((h, h2), theta, phi)
    windows, real = [], quasilocal.sphere._legendre_table
    with unittest.mock.patch.object(quasilocal.sphere, "_legendre_table",
                                    lambda L, th, lo, hi: windows.append((L, lo, hi)) or real(L, th, lo, hi)):
        value = evaluate(h, theta, phi)
        got = _point_derivatives((h, h2), theta, phi)
    _assert_held_order_sums({"value": value}, {"value": want_value}, h, held, theta)
    for g, w, f, f_held in zip(got, want, (h, h2), (held, held2)):
        _assert_held_order_sums(g, w, f, f_held, theta)
    # evaluate builds the orders lo..hi it holds, the derivatives two more either side
    L = h.l_max
    lo, hi = min(held, default=0), max(held, default=0)
    lo2, hi2 = min(held | held2, default=0), max(held | held2, default=0)
    assert windows == [(L, lo, hi), (L, max(0, lo2 - 2), min(L, hi2 + 2))]


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
