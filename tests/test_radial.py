"""Tortoise map, potentials, wave integration, and the A(r) profile."""

import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.special import spherical_jn, spherical_yn

from quasilocal import (
    AnchorBoundary,
    AsymptoticBoundary,
    AxialMode,
    BackgroundParams,
    CoverageError,
    DomainError,
    IntegrationError,
    PolarMode,
    SurfaceAnchorBoundary,
    a_profile,
    integrate_wave,
    inverse_tortoise,
    potential_axial,
    potential_polar,
    tortoise,
)
from quasilocal import _dop853, radial
from quasilocal.radial import RadialSolution, _rhs_factory, radial_coverage, solve_radial


# ----------------------------------------------------------------------
# tortoise coordinate
# ----------------------------------------------------------------------


def test_tortoise_spot_values(bg_unit, bg_flat):
    assert tortoise(4.0, bg_unit) == pytest.approx(4.0, abs=1e-14)  # ln(1) = 0
    assert tortoise(7.0, bg_flat) == 7.0
    # logarithmic divergence toward the horizon, monotone
    rs = tortoise(np.array([2.0 + 1e-10, 2.0 + 1e-6, 3.0, 10.0]), bg_unit)
    assert rs[0] < -40.0
    assert np.all(np.diff(rs) > 0)


def test_tortoise_domain(bg_unit):
    with pytest.raises(DomainError):
        tortoise(2.0, bg_unit)
    with pytest.raises(DomainError):
        tortoise(1.0, bg_unit)


def test_inverse_tortoise_round_trip(bg_unit, bg_flat):
    assert inverse_tortoise(4.0, bg_unit) == pytest.approx(4.0, rel=1e-13)
    assert inverse_tortoise(-3.5, bg_flat) == -3.5
    for rstar in (-30.0, -5.0, 0.0, 10.0, 1e4):
        r = inverse_tortoise(rstar, bg_unit)
        assert tortoise(r, bg_unit) == pytest.approx(rstar, abs=1e-10 * max(1, abs(rstar)))
    # proximity below machine resolution of r saturates just outside 2m
    r_deep = inverse_tortoise(-300.0, bg_unit)
    assert r_deep > 2.0
    assert r_deep == pytest.approx(2.0, rel=1e-14)


def test_inverse_tortoise_vs_bisection(bg_unit):
    # independent oracle: bisection on the monotone map
    target = 10.0
    lo, hi = 2.0 + 1e-12, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tortoise(mid, bg_unit) < target:
            lo = mid
        else:
            hi = mid
    assert inverse_tortoise(target, bg_unit) == pytest.approx(0.5 * (lo + hi), rel=1e-12)


# ----------------------------------------------------------------------
# potentials
# ----------------------------------------------------------------------


def test_potential_axial_spot(bg_unit):
    # direct substitution: (9-6)/243 * (6*3 - 6) = 4/27
    mode = AxialMode(ell=2, sigma=0.5, mu_sq=4.0)
    assert potential_axial(3.0, bg_unit, mode) == pytest.approx(4.0 / 27.0, rel=1e-15)


def test_potential_polar_spot(bg_unit):
    # direct substitution, cubic = 324 + 108 + 54 + 9 = 495
    mode = PolarMode(n=2.0, sigma=0.5)
    assert potential_polar(3.0, bg_unit, mode) == pytest.approx(
        2970.0 / 19683.0, rel=1e-15
    )


def test_potentials_vanish_at_horizon(bg_unit):
    assert potential_axial(2.0, bg_unit, AxialMode()) == 0.0
    assert potential_polar(2.0, bg_unit, PolarMode()) == 0.0
    with pytest.raises(DomainError):
        potential_axial(1.9, bg_unit, AxialMode())
    with pytest.raises(DomainError):
        potential_polar(1.9, bg_unit, PolarMode())


def test_potential_large_r_correspondence(bg_unit):
    # both behave as l(l+1)/r^2 = 6/r^2 for mu^2 = 4 <-> n = 2; the
    # difference decays one power faster than 1/r^2
    ax, po = AxialMode(ell=2, sigma=0.5), PolarMode(n=2.0, sigma=0.5)
    d1 = abs(potential_axial(1e4, bg_unit, ax) - potential_polar(1e4, bg_unit, po))
    d2 = abs(potential_axial(1e5, bg_unit, ax) - potential_polar(1e5, bg_unit, po))
    assert d1 <= 1e-6
    ratio = (d1 * 1e4**2) / (d2 * 1e5**2)
    assert ratio > 5.0  # scaled difference still decaying => faster than 1/r^2


@pytest.mark.parametrize("mode", [AxialMode(ell=3, sigma=0.7), PolarMode(n=5.0, sigma=0.7)])
def test_rhs_uses_the_public_potential(bg_unit, mode):
    rhs = _rhs_factory(bg_unit, mode)
    potential = potential_axial if mode.kind == "axial" else potential_polar
    for r in (2.5, 7.0, 300.0):
        z, dz = 0.3, -1.1
        f = np.array(rhs(0.0, [z, dz, r]))
        v = potential(r, bg_unit, mode)
        assert f[0] == dz
        assert f[1] == pytest.approx((v - mode.sigma**2) * z, rel=1e-14)
        assert f[2] == pytest.approx(1.0 - 2.0 / r, rel=1e-15)


# ----------------------------------------------------------------------
# radial coverage
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d_values", [[3.05], [3.2, 10.0], [50.0, 400.0], [1000.0]])
def test_radial_coverage_contains_spheres_outside_horizon(bg_unit, d_values):
    lo, hi = radial_coverage(bg_unit, SurfaceAnchorBoundary(z=0.0, dz=1.0), d_values)
    assert bg_unit.horizon < lo <= min(d_values) - 1.0
    assert hi >= max(d_values) + 1.0
    if min(d_values) >= 4.0:
        assert (lo, hi) == (min(d_values) - 1.5, max(d_values) + 1.5)


def test_radial_coverage_widens_to_anchor(bg_unit):
    assert radial_coverage(bg_unit, AnchorBoundary(z=0.0, dz=1.0, r=30.0), [100.0]) == (
        30.0,
        101.5,
    )
    lo, hi = radial_coverage(bg_unit, AnchorBoundary(z=0.0, dz=1.0, r_star=500.0), [50.0])
    assert lo == 48.5
    assert tortoise(hi, bg_unit) == pytest.approx(500.0, rel=1e-13)


def test_solve_radial_resolves_surface_anchor(bg_unit, mode_l2):
    bnd = SurfaceAnchorBoundary(z=0.0, dz=1.0, offset=2.0)
    sol = solve_radial(bg_unit, mode_l2, bnd, [3.1], tol=1e-9)
    assert sol.r_min > bg_unit.horizon
    assert sol.r_min <= 2.1 and sol.r_max >= 5.1  # sphere radii and the anchor at d + 2
    z, dz = sol.eval_r(5.1)
    assert z[0] == pytest.approx(0.0, abs=1e-12) and dz[0] == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------------------------
# wave integration
# ----------------------------------------------------------------------


def _flat_bessel_solution(tol=1e-11):
    bg = BackgroundParams(m=0.0)
    mode = AxialMode(ell=2, sigma=1.0, mu_sq=4.0)
    z0 = spherical_jn(2, 1.0)
    dz0 = spherical_jn(2, 1.0) + spherical_jn(2, 1.0, derivative=True)
    return bg, mode, integrate_wave(
        bg, mode, AnchorBoundary(z=z0, dz=dz0, r=1.0), (1.0, 100.0), tol=tol
    )


def test_flat_space_bessel_oracle():
    # closed form: Z = sigma r j2(sigma r) solves the flat wave equation
    _, _, sol = _flat_bessel_solution()
    r = np.linspace(1.0, 100.0, 1500)
    z, _ = sol.eval_r(r)
    ref = r * spherical_jn(2, r)
    assert np.max(np.abs(z - ref)) / np.max(np.abs(ref)) <= 1e-8
    z_pi, _ = sol.eval_r(np.pi)
    assert z_pi[0] == pytest.approx(3.0 / np.pi, abs=1e-9)  # j2(pi) = 3/pi^2


def test_zero_initial_data(bg_unit, mode_l2):
    sol = integrate_wave(
        bg_unit, mode_l2, AnchorBoundary(z=0.0, dz=0.0, r=30.0), (20.0, 50.0)
    )
    assert np.max(np.abs(sol.z)) == 0.0
    assert np.max(np.abs(sol.dz)) == 0.0


def _assert_doubled(sol_b, sol_a, r):
    # doubling is exact in floating point (power-of-two scaling): the error
    # norm sees the same scaled states, so DOP853 takes the same steps
    assert np.array_equal(sol_b.rstar, sol_a.rstar)
    assert np.max(np.abs(sol_b.z - 2.0 * sol_a.z)) == 0.0
    assert np.max(np.abs(sol_b.dz - 2.0 * sol_a.dz)) == 0.0
    (za, dza), (zb, dzb) = sol_a.eval_r(r), sol_b.eval_r(r)
    assert np.max(np.abs(zb - 2.0 * za)) == 0.0
    assert np.max(np.abs(dzb - 2.0 * dza)) == 0.0


def test_wave_linearity(bg_unit, mode_l2):
    tol = 1e-12
    kw = dict(r_range=(20.0, 60.0), tol=tol)
    r = np.linspace(20.0, 60.0, 401)
    sol_a = integrate_wave(bg_unit, mode_l2, AnchorBoundary(z=0.3, dz=0.1, r=30.0), **kw)
    sol_b = integrate_wave(bg_unit, mode_l2, AnchorBoundary(z=0.6, dz=0.2, r=30.0), **kw)
    _assert_doubled(sol_b, sol_a, r)
    # superposition: the three solutions take different steps, so it holds to
    # the integration tolerance only; compare the dense output at shared radii
    sol_c = integrate_wave(bg_unit, mode_l2, AnchorBoundary(z=-0.1, dz=0.5, r=30.0), **kw)
    sol_d = integrate_wave(bg_unit, mode_l2, AnchorBoundary(z=0.5, dz=0.7, r=30.0), **kw)
    z_d = sol_d.eval_r(r)[0]
    z_sum = sol_b.eval_r(r)[0] + sol_c.eval_r(r)[0]
    assert np.max(np.abs(z_d - z_sum)) <= 100 * tol * np.max(np.abs(z_d))


def test_amplitude_scaling_through_mode(bg_unit):
    m1 = AxialMode(ell=2, sigma=0.5, amplitude=1.0)
    m2 = AxialMode(ell=2, sigma=0.5, amplitude=2.0)
    kw = dict(boundary=AnchorBoundary(z=0.5, dz=0.25, r=30.0), r_range=(25.0, 40.0))
    s1 = integrate_wave(bg_unit, m1, **kw)
    s2 = integrate_wave(bg_unit, m2, **kw)
    _assert_doubled(s2, s1, np.linspace(25.0, 40.0, 151))


def test_adaptive_tolerance_scaling():
    errs = []
    for tol in (1e-6, 1e-9):
        _, _, sol = _flat_bessel_solution(tol=tol)
        r = np.linspace(2.0, 90.0, 400)
        z, _ = sol.eval_r(r)
        errs.append(np.max(np.abs(z - r * spherical_jn(2, r))))
    assert errs[0] > 10.0 * errs[1]


def test_residual_below_tolerance(bg_unit, mode_l2, axial_solution):
    assert axial_solution.residual_max() <= 100.0 * axial_solution.tol


def test_boundary_outside_range(bg_unit, mode_l2):
    with pytest.raises(DomainError):
        integrate_wave(
            bg_unit, mode_l2, AnchorBoundary(z=1.0, dz=0.0, r=10.0), (20.0, 50.0)
        )
    with pytest.raises(DomainError):
        integrate_wave(
            bg_unit, mode_l2, SurfaceAnchorBoundary(z=1.0, dz=0.0), (20.0, 50.0)
        )


def test_asymptotic_boundary_flat_oracle():
    # general flat solution: a sin(x + phi) asymptotics correspond to
    # -a cos(phi) x j2(x) + a sin(phi) x y2(x)
    bg = BackgroundParams(m=0.0)
    mode = AxialMode(ell=2, sigma=1.0, mu_sq=4.0)
    phase = 0.3
    errs = []
    for v_thr in (1e-6, 1e-8):
        sol = integrate_wave(
            bg,
            mode,
            AsymptoticBoundary(amplitude=1.0, phase=phase, v_threshold=v_thr),
            (5.0, 150.0),
            tol=1e-11,
        )
        assert sol.asymptotic_truncation is not None
        assert sol.asymptotic_truncation <= v_thr * 1.0001
        r = np.linspace(5.0, 150.0, 300)
        z, _ = sol.eval_r(r)
        ref = -np.cos(phase) * r * spherical_jn(2, r) + np.sin(phase) * r * spherical_yn(2, r)
        errs.append(np.max(np.abs(z - ref)))
    # truncation error shrinks with the threshold (phase error ~ 1/r_start)
    assert errs[1] < 0.2 * errs[0]


def test_asymptotic_start_below_the_range_top_says_how_to_fix_it(bg_unit, mode_l2):
    with pytest.raises(DomainError) as info:
        integrate_wave(bg_unit, mode_l2, AsymptoticBoundary(r_star_start=100.0), (20.0, 400.0))
    msg = str(info.value)
    assert "r*=100" in msg and f"r*={float(tortoise(400.0, bg_unit)):.6g}" in msg
    assert "r_star_start" in msg and "v_threshold" in msg and "lower" in msg
    assert "extend" not in msg


def test_polar_integration_runs(bg_unit):
    mode = PolarMode(n=2.0, sigma=0.5)
    sol = integrate_wave(
        bg_unit, mode, AnchorBoundary(z=0.0, dz=1.0, r=30.0), (20.0, 60.0), tol=1e-11
    )
    assert sol.kind == "polar"
    assert sol.residual_max() <= 100.0 * sol.tol
    with pytest.raises(DomainError):
        a_profile(sol)


def test_coverage_errors(axial_solution):
    with pytest.raises(CoverageError):
        axial_solution.eval_r(10.0)
    with pytest.raises(CoverageError):
        axial_solution.eval_r(90.0)
    with pytest.raises(CoverageError):
        axial_solution.eval_rstar(np.nan)


# ----------------------------------------------------------------------
# the DOP853 stepper
# ----------------------------------------------------------------------


def _warned(call, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call(*args, **kwargs)
    return out, [(w.category, str(w.message)) for w in caught]


def _counted(fun):
    """``fun`` and a list that grows by one entry per call of it."""
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    return counted, calls


def _recorded_leg(fun, t0, t_bound, y0, rtol, atol):
    """The in-repo stepper's leg and warnings beside those of solve_ivp on the
    same arguments; the leg calls the right-hand side exactly as often as
    solve_ivp does."""
    counted, calls = _counted(fun)
    ours, warned = _warned(_dop853.dop853, counted, t0, t_bound, y0, rtol=rtol, atol=atol)
    ref, ref_warned = _warned(
        solve_ivp, lambda t, y: fun(t, y.tolist()), (t0, t_bound), y0, method="DOP853",
        rtol=rtol, atol=atol, dense_output=True,
    )
    assert len(calls) == ref.nfev
    return ours, ref, warned, ref_warned


@pytest.fixture
def legs(monkeypatch):
    """Every leg integrate_wave steps, as ``_recorded_leg`` records it."""
    legs = []

    def recorded(*args, **kwargs):
        legs.append(_recorded_leg(*args, **kwargs))
        return legs[-1][0]

    monkeypatch.setattr(radial, "dop853", recorded)
    return legs


def _anchor_leg_args(bg, mode, bnd, r_range, tol):
    """The stepper's arguments for its legs from an anchor, up to r*_hi and down
    to r*_lo (where the range extends past the anchor): the (Z, Z', r)
    right-hand side under the tolerances of an asymptotic leg with the
    anchor's data."""
    rs0 = float(tortoise(bnd.r, bg))
    r0 = inverse_tortoise(rs0, bg)
    scale = max(abs(bnd.z), abs(bnd.dz) / mode.sigma, 1e-30)
    atol = np.array([tol * scale * 1e-2, tol * scale * 1e-2, tol * 1e-2 * max(r0, 1.0)])
    y0 = np.array([bnd.z, bnd.dz, r0])
    return [(_rhs_factory(bg, mode), rs0, float(tortoise(end, bg)), y0, tol, atol)
            for end in (r_range[1], r_range[0]) if end != bnd.r]


def _anchor_legs(bg, mode, bnd, r_range, tol):
    """``_anchor_leg_args``'s legs, as ``_recorded_leg`` records them."""
    return [_recorded_leg(*args) for args in _anchor_leg_args(bg, mode, bnd, r_range, tol)]


_CASES = {
    # anchored mid-range: an ascending and a descending run of elements
    "anchor": (BackgroundParams(m=1.0), AxialMode(ell=2, sigma=0.5),
               AnchorBoundary(z=0.0, dz=1.0, r=30.0), (20.0, 80.0), 1e-10),
    "polar": (BackgroundParams(m=1.0), PolarMode(n=2.0, sigma=0.5),
              AnchorBoundary(z=0.3, dz=-0.2, r=50.0), (10.0, 60.0), 1e-9),
    # one descending DOP853 leg of ~560 steps
    "asymptotic": (BackgroundParams(m=1.0), AxialMode(ell=2, sigma=0.5),
                   AsymptoticBoundary(amplitude=1.3), (20.0, 80.0), 1e-5),
    # stepper legs from these anchors reject steps: 1 and 5 in flat space, 1 near the horizon
    "flat": (BackgroundParams(m=0.0), AxialMode(ell=2, sigma=0.5),
             AnchorBoundary(z=0.0, dz=1.0, r=5.0), (0.5, 40.0), 1e-10),
    "near_horizon": (BackgroundParams(m=1.0), AxialMode(ell=2, sigma=0.5),
                     AnchorBoundary(z=0.0, dz=1.0, r=2.5), (2.01, 40.0), 1e-8),
}
_REJECTING_CASES = ("flat", "near_horizon")
# below 100 eps, where rtol is clamped with a warning
_CLAMPED_CASE = (BackgroundParams(m=1.0), AxialMode(ell=2, sigma=0.5),
                 AnchorBoundary(z=0.0, dz=1.0, r=30.0), (28.0, 33.0), 1e-15)


def _assert_legs_are_solve_ivp(legs, n_warnings=0):
    """Each recorded leg bitwise solve_ivp's: nodes, states, interpolants, and
    dense output at random points, at the nodes and just past both ends."""
    rng = np.random.default_rng(7)
    for (ts, ys, table), ref, warned, ref_warned in legs:
        assert warned == ref_warned
        assert len(warned) == n_warnings
        ode = ref.sol
        assert all(type(s) is Dop853DenseOutput for s in ode.interpolants)
        assert ts.tobytes() == ref.t.tobytes()
        assert ys.tobytes() == np.ascontiguousarray(ref.y.T).tobytes()
        for name in ("t_old", "h", "F", "y_old"):
            stacked = np.array([getattr(s, name) for s in ode.interpolants])
            assert getattr(table, name).tobytes() == stacked.tobytes()
        assert table.ts_sorted.tobytes() == ode.ts_sorted.tobytes()
        assert (table.side, table.ascending) == (ode.side, ode.ascending)
        lo, hi = ode.t_min, ode.t_max
        span = 1e-12 * (1 + max(abs(lo), abs(hi)))
        for t in (
            rng.uniform(lo, hi, 2000),
            ode.ts,
            np.array([lo, hi, lo - span, hi + span]),
        ):
            assert table(t).tobytes() == ode(t).tobytes()


@pytest.mark.parametrize("case", sorted(_CASES) + ["clamped"])
def test_stepper_is_bitwise_solve_ivp(case, legs):
    # an asymptotic start steps one descending leg in integrate_wave; from an
    # anchor the stepper runs both ways on the same right-hand side and ranges
    bg, mode, bnd, r_range, tol = _CASES.get(case, _CLAMPED_CASE)
    if isinstance(bnd, AnchorBoundary):
        legs += _anchor_legs(bg, mode, bnd, r_range, tol)
    else:
        integrate_wave(bg, mode, bnd, r_range, tol=tol)
    assert len(legs) == (2 if isinstance(bnd, AnchorBoundary) else 1)
    assert not legs[-1][1].sol.ascending
    _assert_legs_are_solve_ivp(legs, n_warnings=int(case == "clamped"))


def _rejected(ref):
    """The steps solve_ivp rejected: with dense output it evaluates the RHS
    twice to start, 12 times per attempted step and 3 more times per accepted one."""
    n_rejected, rest = divmod(ref.nfev - 2 - 15 * (len(ref.t) - 1), 12)
    assert rest == 0
    return n_rejected


@pytest.mark.parametrize("case", _REJECTING_CASES)
def test_rejecting_cases_reject_a_step(case):
    rejected = [_rejected(ref) for _, ref, _, _ in _anchor_legs(*_CASES[case])]
    assert sum(rejected) >= 1, rejected


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_step_below_the_float_spacing_fails_as_solve_ivp(direction):
    # y' = y^2 from y(0) = 1 blows up at t = 1 (t = -1 backwards, y(0) = -1)
    def fun(t, y):
        return (y[0] * y[0],)

    y0, t_bound = np.array([direction]), 2.0 * direction
    ref = solve_ivp(lambda t, y: fun(t, y.tolist()), (0.0, t_bound), y0, method="DOP853",
                    rtol=1e-8, atol=1e-10)
    assert ref.status == -1
    with pytest.raises(IntegrationError, match=ref.message):
        _dop853.dop853(fun, 0.0, t_bound, y0, rtol=1e-8, atol=np.array([1e-10]))


def _assert_bitwise_solve_ivp(fun, t_bound, y0, rtol, atol):
    """The in-repo stepper against solve_ivp from t = 0: nodes, states, every
    interpolant field and the number of right-hand-side calls; returns scipy's result."""
    counted, calls = _counted(fun)
    ts, ys, table = _dop853.dop853(counted, 0.0, t_bound, np.array(y0), rtol=rtol, atol=np.array(atol))
    ref = solve_ivp(lambda t, y: fun(t, y.tolist()), (0.0, t_bound), np.array(y0), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    assert ref.status == 0 and len(calls) == ref.nfev
    assert ts.tobytes() == ref.t.tobytes()
    assert ys.tobytes() == np.ascontiguousarray(ref.y.T).tobytes()
    for name in ("t_old", "h", "F", "y_old"):
        stacked = np.array([getattr(s, name) for s in ref.sol.interpolants])
        assert getattr(table, name).tobytes() == stacked.tobytes()
    return ref


@pytest.mark.parametrize("fun, t_bound, y0, rtol, atol, rejects", [
    pytest.param(lambda t, y: (-y[0],), 5.0, [1.0], 1e-10, [1e-12], False, id="decay-n1"),
    # y'' = -y/4 under an atol far above rtol: 7 steps rejected forward, 1 backward
    pytest.param(lambda t, y: (y[1], -0.25 * y[0]), 100.0, [0.0, 1.0], 1e-7, [1e-3, 1e-3], True,
                 id="oscillator-n2"),
    pytest.param(lambda t, y: (y[1], -0.25 * y[0]), -10.0, [0.0, 1.0], 1e-7, [1e-3, 1e-3], True,
                 id="oscillator-n2-backward"),
])
def test_stepper_is_bitwise_solve_ivp_in_any_state_size(fun, t_bound, y0, rtol, atol, rejects):
    ref = _assert_bitwise_solve_ivp(fun, t_bound, y0, rtol, atol)
    assert (_rejected(ref) >= 1) == rejects


@pytest.mark.parametrize("blowup", [math.nan, 1e300], ids=["nan", "overflow"])
def test_non_finite_rhs_fails_as_solve_ivp(blowup):
    # past t = 1 the derivative is NaN, or grows by 1e300 per stage until it
    # overflows; every step is then rejected down to the float spacing
    def fun(t, y):
        return (-y[0] if t <= 1.0 else blowup * y[0],)

    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_ivp(lambda t, y: fun(t, y.tolist()), (0.0, 5.0), np.array([1.0]),
                        method="DOP853", rtol=1e-8, atol=1e-10)
        assert ref.status == -1
        with pytest.raises(IntegrationError, match=ref.message):
            _dop853.dop853(fun, 0.0, 5.0, np.array([1.0]), rtol=1e-8, atol=np.array([1e-10]))


def test_nan_step_from_an_overflowed_state_is_rejected_as_in_solve_ivp():
    # y' = +-1e300 from y = 1e300: the state overflows to inf, where every
    # step passes (its error scale is inf).  Once y' < 0, a step long enough
    # that h y' is -inf gives y_new = inf - inf = NaN; np.maximum carries that
    # NaN into the error scale, so the step is rejected (Python's max would
    # take the inf and accept it)
    def fun(t, y):
        return (1e300 if t < 1e9 else -1e300,)

    with np.errstate(over="ignore", invalid="ignore"):
        ref = _assert_bitwise_solve_ivp(fun, 1e10, [1e300], 1e-3, [1e-6])
    assert _rejected(ref) >= 1
    assert np.isinf(ref.y).any() and not np.isnan(ref.y).any()


# ----------------------------------------------------------------------
# Chebyshev elements and their stacks
# ----------------------------------------------------------------------


def _surface_anchors(bg, d_values, offset=0.0):
    """The anchors and ranges ``solve_surfaces`` stacks for surface anchors at ``d_values``."""
    anchors = [SurfaceAnchorBoundary(z=0.0, dz=1.0, offset=offset).resolve(d) for d in d_values]
    return anchors, [radial_coverage(bg, a, [d]) for a, d in zip(anchors, d_values)]


@pytest.mark.parametrize("d_values", [[50.0, 100.0, 200.0, 400.0], [5.0, 10.0, 50.0, 400.0], [3.05, 3.5, 5.0, 10.0]])
def test_stack_members_are_bitwise_their_own_solves(bg_unit, mode_l2, d_values):
    # every anchor's elements go through one batched solve, each over its own
    # range; a member is its anchor's own integrate_wave solution, bit for bit
    anchors, ranges = _surface_anchors(bg_unit, d_values)
    stack = integrate_wave(bg_unit, mode_l2, anchors, ranges, tol=1e-10)
    for sol, anchor, r_range in zip(stack.solutions, anchors, ranges):
        own = integrate_wave(bg_unit, mode_l2, anchor, r_range, tol=1e-10)
        for name in ("rstar", "z", "dz"):
            assert getattr(sol, name).tobytes() == getattr(own, name).tobytes()
        assert (sol.r_min, sol.r_max) == (own.r_min, own.r_max) == r_range
        r = np.linspace(*r_range, 201)
        for got, want in zip(sol.eval_r(r), own.eval_r(r)):
            assert got.tobytes() == want.tobytes()


def test_one_anchor_stack_is_the_plain_integration(bg_unit, mode_l2):
    bnd, r_range = AnchorBoundary(z=0.0, dz=1.0, r=30.0), (20.0, 80.0)
    plain = integrate_wave(bg_unit, mode_l2, bnd, r_range, tol=1e-10)
    stack = integrate_wave(bg_unit, mode_l2, [bnd], [r_range], tol=1e-10)
    (member,) = stack.solutions
    for name in ("rstar", "z", "dz"):
        assert getattr(member, name).tobytes() == getattr(plain, name).tobytes()
    assert (member.r_min, member.r_max) == (plain.r_min, plain.r_max)
    r = np.linspace(plain.r_min, plain.r_max, 301)
    for got, want in zip(member.eval_r(r), plain.eval_r(r)):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(stack.eval_r(r[None, :]), plain.eval_r(r)):
        assert got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("d_values", [[50.0, 100.0, 200.0, 400.0], [5.0, 10.0, 50.0, 400.0]])
def test_stack_reads_every_member_in_one_pass(bg_unit, mode_l2, d_values, monkeypatch):
    # one barycentric pass for every member's points; each value bitwise its
    # member's own eval_r, on both sides of its anchor and at its grid points
    anchors, ranges = _surface_anchors(bg_unit, d_values)
    stack = integrate_wave(bg_unit, mode_l2, anchors, ranges, tol=1e-10)
    r = np.array([np.concatenate([np.linspace(lo + 0.2, hi - 0.2, 41), [lo, a.r, hi]])
                  for (lo, hi), a in zip(ranges, anchors)])
    want = [sol.eval_r(row) for sol, row in zip(stack.solutions, r)]
    calls = []
    call = radial._Elements.__call__
    monkeypatch.setattr(radial._Elements, "__call__", lambda self, rs, e: calls.append(rs.size) or call(self, rs, e))
    z, dz = stack.eval_r(r)
    assert calls == [r.size]
    for i, (wz, wdz) in enumerate(want):
        assert z[i].tobytes() == wz.tobytes() and dz[i].tobytes() == wdz.tobytes()
    with pytest.raises(CoverageError):
        stack.eval_r(r + np.array([[0.0], [0.0], [0.0], [1e3]]))


def _max_z_error(sol, ref, r):
    return np.max(np.abs(sol.eval_r(r)[0] - ref.eval_r(r)[0]))


@pytest.mark.parametrize("d_values", [
    np.geomspace(50.0, 400.0, 4), np.geomspace(50.0, 12800.0, 9), [5.0, 10.0, 50.0, 400.0],
], ids=["50-400", "50-12800", "5-400"])
def test_stacked_members_are_as_accurate_as_their_own_solves(bg_unit, mode_l2, d_values):
    # at tolerance 1e-10 a member's Z error stays within twice that of its own
    # solve at the same tolerance
    anchors, ranges = _surface_anchors(bg_unit, d_values)
    stack = integrate_wave(bg_unit, mode_l2, anchors, ranges, tol=1e-10)
    for sol, anchor, r_range in zip(stack.solutions, anchors, ranges):
        ref = integrate_wave(bg_unit, mode_l2, anchor, r_range, tol=1e-13)
        own = integrate_wave(bg_unit, mode_l2, anchor, r_range, tol=1e-10)
        r = np.linspace(*r_range, 201)
        assert _max_z_error(sol, ref, r) <= 2.0 * _max_z_error(own, ref, r)


def test_stack_rejects_what_it_cannot_stack(bg_unit, mode_l2):
    anchors, ranges = _surface_anchors(bg_unit, [50.0, 100.0])
    for bnd, r_range in (
        (anchors, ranges[:1]),
        ([], []),
        ([anchors[0], AsymptoticBoundary()], ranges),
    ):
        with pytest.raises(DomainError, match="stack"):
            integrate_wave(bg_unit, mode_l2, bnd, r_range)


def test_two_legs_meet_at_the_anchor():
    # the elements below and above the anchor both start from its data, and
    # neighbouring elements agree where they meet; the dense output is a grid
    # point's value bit for bit at an element edge, and to round-off between
    bg, mode, bnd, r_range, tol = _CASES["anchor"]
    sol = integrate_wave(bg, mode, bnd, r_range, tol=tol)
    rs0 = tortoise(bnd.r, bg)
    view = sol._dense
    assert rs0 in view.inner_edges
    edges = np.concatenate([sol.rstar[:1], view.inner_edges, sol.rstar[-1:]])
    at = np.searchsorted(sol.rstar, edges)
    assert sol.rstar[at].tobytes() == edges.tobytes()
    states = sol.eval_rstar(edges)
    assert states[0].tobytes() == sol.z[at].tobytes() and states[1].tobytes() == sol.dz[at].tobytes()
    inner = view.inner_edges
    below = view.table(inner, view.locate(inner) - 1)
    assert np.max(np.abs(below[:2] - sol.eval_rstar(inner)[:2])) <= 1e-14
    anchor = sol.eval_rstar(np.array([rs0]))
    assert anchor[0] == pytest.approx(bnd.z, abs=1e-15) and anchor[1] == bnd.dz
    states = sol.eval_rstar(sol.rstar)
    scale = np.max(np.abs(sol.z))
    assert np.max(np.abs(states[:2] - np.array([sol.z, sol.dz]))) <= 1e-14 * scale


def test_point_past_every_leg_goes_to_the_nearest_end(legs):
    # inside the 1e-9 coverage check: a point past an anchored solution's ends
    # extrapolates from its end element, one past an asymptotic leg from that
    # leg's nearest step
    bg, mode, bnd, r_range, tol = _CASES["anchor"]
    sol = integrate_wave(bg, mode, bnd, r_range, tol=tol)
    view = sol._dense
    lo, hi = sol.rstar[0], sol.rstar[-1]
    ends = ((lo - 1e-10 * (1 + abs(lo)), view.first), (hi + 1e-10 * (1 + abs(hi)), view.first + len(view.inner_edges)))
    for rs, element in ends:
        got = sol.eval_rstar(np.array([rs]))
        assert got.tobytes() == view.table(np.array([rs]), np.array([element])).tobytes()
        assert np.all(np.isfinite(got))
    bg, mode, bnd, r_range, tol = _CASES["asymptotic"]
    sol = integrate_wave(bg, mode, bnd, r_range, tol=tol)
    (ode,) = [ref.sol for _, ref, _, _ in legs]
    lo, hi = sol.rstar[0], sol.rstar[-1]
    for rs in (np.array([lo - 1e-10 * (1 + abs(lo))]), np.array([hi + 1e-10 * (1 + abs(hi))])):
        assert sol.eval_rstar(rs).tobytes() == ode(rs).tobytes()
        assert np.all(np.isfinite(sol.eval_rstar(rs)))


# ----------------------------------------------------------------------
# accuracy of the anchored solve against oracles, beside the stepper's
# ----------------------------------------------------------------------

_TOLERANCES = (1e-13, 1e-10, 1e-7, 1e-3)
# anchor radii and their ranges: mid-range, near the horizon, and a 4-anchor sweep stack
_ACCURACY_CASES = {
    "mid": ([30.0], [(20.0, 80.0)]),
    "near_horizon": ([2.5], [(2.01, 40.0)]),
    "stack": ([50.0, 100.0, 200.0, 400.0], [(48.5, 51.5), (98.5, 101.5), (198.5, 201.5), (398.5, 401.5)]),
}


def _accuracy_mode(kind):
    return AxialMode(ell=2, sigma=0.5) if kind == "axial" else PolarMode(n=2.0, sigma=0.5)


@functools.cache
def _accuracy_reference(case, kind):
    """Per anchor of the case: r* points on both sides of the anchor, and
    (Z, Z') there from solve_ivp's DOP853 at rtol 1e-13."""
    bg, mode = BackgroundParams(m=1.0), _accuracy_mode(kind)
    rhs = _rhs_factory(bg, mode)
    out = []
    for anchor, r_range in zip(*_ACCURACY_CASES[case]):
        rs0 = float(tortoise(anchor, bg))
        sides = []
        for end in r_range:
            rs = np.linspace(rs0, float(tortoise(end, bg)), 151)
            ref = solve_ivp(lambda t, y: rhs(t, y.tolist()), (rs[0], rs[-1]), [0.0, 1.0, anchor],
                            method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True)
            sides.append((rs, ref.sol(rs)[:2]))
        out.append(sides)
    return out


def _relative_error(states, ref, sigma):
    """Largest |Z - Z_ref| or |Z' - Z'_ref| / sigma, relative to the largest |Z_ref|."""
    return max(np.max(np.abs(states[0] - ref[0])), np.max(np.abs(states[1] - ref[1])) / sigma) / np.max(np.abs(ref[0]))


@pytest.mark.parametrize("tol", _TOLERANCES)
@pytest.mark.parametrize("kind", ["axial", "polar"])
@pytest.mark.parametrize("case", sorted(_ACCURACY_CASES))
def test_anchored_solve_is_at_least_as_accurate_as_the_stepper(case, kind, tol):
    # against solve_ivp at rtol 1e-13, beside the stepper's two legs from each
    # anchor at the same tolerance
    bg, mode = BackgroundParams(m=1.0), _accuracy_mode(kind)
    anchors = [AnchorBoundary(z=0.0, dz=1.0, r=r) for r in _ACCURACY_CASES[case][0]]
    ranges = _ACCURACY_CASES[case][1]
    stack = integrate_wave(bg, mode, anchors, ranges, tol=tol)
    ours = theirs = 0.0
    legs = [[_dop853.dop853(*args) for args in _anchor_leg_args(bg, mode, a, rr, tol)]
            for a, rr in zip(anchors, ranges)]
    for sol, sides, anchor_legs in zip(stack.solutions, _accuracy_reference(case, kind), legs):
        for (rs, ref), (_, _, table) in zip(sides, anchor_legs[::-1]):
            ours = max(ours, _relative_error(sol.eval_rstar(rs), ref, mode.sigma))
            theirs = max(theirs, _relative_error(table(rs), ref, mode.sigma))
    assert ours <= theirs


@pytest.mark.parametrize("tol", _TOLERANCES)
def test_flat_oracle_error_is_at_most_the_steppers(tol):
    # Z = r j2(r) with Z' = j2 + r j2' in flat space, anchored at r = 1
    bg, mode, sol = _flat_bessel_solution(tol)
    r = np.linspace(1.0, 100.0, 1500)
    ref = (r * spherical_jn(2, r), spherical_jn(2, r) + r * spherical_jn(2, r, derivative=True))
    bnd = AnchorBoundary(z=ref[0][0], dz=ref[1][0], r=1.0)
    (up,) = [_dop853.dop853(*args) for args in _anchor_leg_args(bg, mode, bnd, (1.0, 100.0), tol)]
    ours = _relative_error(sol.eval_r(r), ref, mode.sigma)
    assert ours <= _relative_error(up[2](r), ref, mode.sigma)
    assert ours <= 10.0 * max(tol, 1e-13)


def test_elements_halve_until_the_tail_meets_the_tolerance(bg_unit, monkeypatch):
    # an l = 12 barrier is steeper than the initial widths resolve, so its
    # elements halve; without halvings the solve fails instead
    mode = AxialMode(ell=12, sigma=0.5)
    bnd, r_range = AnchorBoundary(z=0.0, dz=1.0, r=3.0), (2.5, 12.0)
    sol = integrate_wave(bg_unit, mode, bnd, r_range, tol=1e-10)
    rs0, rs_hi = float(tortoise(3.0, bg_unit)), float(tortoise(12.0, bg_unit))
    rs = np.linspace(rs0, rs_hi, 201)
    rhs = _rhs_factory(bg_unit, mode)
    ref = solve_ivp(lambda t, y: rhs(t, y.tolist()), (rs0, rs_hi), [0.0, 1.0, 3.0], method="DOP853",
                    rtol=1e-13, atol=1e-16, dense_output=True).sol(rs)[:2]
    assert _relative_error(sol.eval_rstar(rs), ref, mode.sigma) <= 1e-10
    monkeypatch.setattr(radial, "_MAX_HALVINGS", 0)
    with pytest.raises(IntegrationError, match="halvings"):
        integrate_wave(bg_unit, mode, bnd, r_range, tol=1e-10)


def test_element_cap_raises_before_solving(bg_unit, monkeypatch):
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    with pytest.raises(IntegrationError, match="cap"):
        integrate_wave(bg_unit, AxialMode(ell=2, sigma=1e6), AnchorBoundary(z=0.0, dz=1.0, r=30.0), (20.0, 80.0))
    assert solves == []


def _inverse_tortoise_scalar(r_star, bg):
    """Reference: the scalar Newton iteration, seeded far out with r* itself."""
    if bg.m == 0.0:
        return float(r_star)
    two_m = bg.horizon
    if r_star > 2.0 * two_m:
        delta = float(r_star) - two_m
    else:
        delta = two_m * math.exp(max((r_star - two_m) / two_m, -700.0))
    for _ in range(50):
        f = two_m + delta + two_m * math.log(delta / two_m) - r_star
        step = f * delta / (delta + two_m)  # f / (dr*/dr)
        delta_new = delta - step
        if delta_new <= 0.0:
            delta_new = 0.5 * delta
        if abs(delta_new - delta) <= 1e-13 * max(delta_new + two_m, two_m):
            r = two_m + delta_new
            return r if r > two_m else math.nextafter(two_m, math.inf)
        delta = delta_new
    raise IntegrationError(
        f"tortoise inversion did not converge for r*={r_star}, m={bg.m}"
    )


def test_inverse_tortoise_of_an_array_is_the_scalar_map(bg_unit, bg_flat):
    rs = np.concatenate([np.linspace(-300.0, 10.0, 997), np.geomspace(10.0, 1e6, 301)]).reshape(2, -1)
    r = inverse_tortoise(rs, bg_unit)
    want = np.array([_inverse_tortoise_scalar(float(x), bg_unit) for x in rs.ravel()]).reshape(rs.shape)
    assert r.shape == rs.shape
    assert np.max(np.abs(r - want) / want) <= 4 * np.finfo(float).eps
    assert np.all(r > 2.0)
    assert inverse_tortoise(rs, bg_flat).tobytes() == rs.tobytes()
    for x in (-300.0, 4.0, 1e6):
        for arg in (x, np.float64(x), np.array(x)):
            got = inverse_tortoise(arg, bg_unit)
            assert type(got) is float
            assert abs(got - _inverse_tortoise_scalar(x, bg_unit)) <= 4 * np.finfo(float).eps * got
        assert inverse_tortoise(np.array(x), bg_flat) == inverse_tortoise(x, bg_flat) == x
    assert inverse_tortoise(-1e4, bg_unit) > 2.0


def _residual_max_loop(sol):
    """Reference: one dense-output call and one quadrature per sample interval."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    scale = max(np.max(np.abs(sol.z)), np.max(np.abs(sol.dz)), 1e-300)
    sigma = sol.mode.sigma
    worst = 0.0
    for i in range(len(sol.rstar) - 1):
        a, b = sol.rstar[i], sol.rstar[i + 1]
        if b - a <= 0:
            continue
        st = sol.eval_rstar(0.5 * (b - a) * nodes + 0.5 * (a + b))
        r = np.maximum(st[2], sol.background.horizon * (1 + 1e-15))
        v = radial.potential(r, sol.background, sol.mode)
        int_z = 0.5 * (b - a) * np.dot(weights, st[1])
        int_dz = 0.5 * (b - a) * np.dot(weights, (v - sigma * sigma) * st[0])
        res = max(abs(sol.z[i + 1] - sol.z[i] - int_z), abs(sol.dz[i + 1] - sol.dz[i] - int_dz))
        worst = max(worst, res)
    return worst / scale


@pytest.mark.parametrize("case", sorted(_CASES))
def test_residual_max_is_bitwise_the_interval_loop(case):
    bg, mode, bnd, r_range, tol = _CASES[case]
    sol = integrate_wave(bg, mode, bnd, r_range, tol=tol)
    assert sol.residual_max() == _residual_max_loop(sol)


def test_unknown_mode_kind_raises_before_any_solve(bg_unit, monkeypatch):
    mode = SimpleNamespace(kind="scalar", sigma=0.5, amplitude=1.0, n=2.0)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append("elements") or solve(*a))
    monkeypatch.setattr(radial, "dop853", lambda *a, **k: solves.append("dop853"))
    with pytest.raises(DomainError, match="unknown mode kind"):
        radial.potential(30.0, bg_unit, mode)
    for bnd in (AnchorBoundary(z=0.0, dz=1.0, r=30.0), AsymptoticBoundary(), AsymptoticBoundary(r_star_start=2e3)):
        with pytest.raises(DomainError, match="unknown mode kind"):
            integrate_wave(bg_unit, mode, bnd, (20.0, 80.0), tol=1e-5)
    assert solves == []


@pytest.mark.parametrize("mode", [AxialMode(ell=3, sigma=0.7), PolarMode(n=5.0, sigma=0.7)])
def test_rhs_is_bitwise_the_numpy_scalar_arithmetic(bg_unit, mode):
    rhs = _rhs_factory(bg_unit, mode)
    v, param = (
        (radial._v_axial, mode.mu_sq) if mode.kind == "axial" else (radial._v_polar, mode.n)
    )
    rng = np.random.default_rng(3)
    for y in np.column_stack([rng.normal(size=200), rng.normal(size=200), rng.uniform(2.001, 5e4, 200)]):
        z, dz, r = y
        expect = np.asarray((dz, (v(r, 1.0, param) - mode.sigma**2) * z, (r - 2.0) / r), dtype=float)
        assert np.array(rhs(0.0, y.tolist())).tobytes() == expect.tobytes()


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(DomainError):
        BackgroundParams(m=-1.0)
    with pytest.raises(DomainError):
        AxialMode(ell=1)
    with pytest.raises(DomainError):
        AxialMode(sigma=-0.5)
    with pytest.raises(DomainError):
        PolarMode(n=0.0)
    assert AxialMode(ell=3).mu_sq == 10.0  # (ell-1)(ell+2)
    assert AxialMode(ell=2).mu_sq == 4.0


# ----------------------------------------------------------------------
# A(r) profile
# ----------------------------------------------------------------------


def test_a_prime_vs_finite_difference(axial_profile):
    h, r = 1e-4, 50.0
    fd = (axial_profile.a(r + h) - axial_profile.a(r - h)) / (2.0 * h)
    assert axial_profile.a_prime(r) == pytest.approx(fd, rel=1e-6)


def test_a_prime_h_refinement(axial_profile):
    # centered difference converges at O(h^2) toward the analytic derivative
    r = 45.0
    exact = axial_profile.a_prime(r)
    errs = []
    for h in (2e-3, 1e-3):
        fd = (axial_profile.a(r + h) - axial_profile.a(r - h)) / (2.0 * h)
        errs.append(abs(fd - exact))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_a_double_prime_vs_finite_difference(axial_profile):
    r, h = 50.0, 1e-3
    fd = (
        axial_profile.a(r + h) - 2.0 * axial_profile.a(r) + axial_profile.a(r - h)
    ) / h**2
    assert axial_profile.a_double_prime(r) == pytest.approx(fd, rel=1e-5)


def test_a_profile_flat_symbolic_oracle():
    # flat case: A = (1/sigma^2 r) d(rZ)/dr with Z = x j2(x), closed form
    bg, mode, sol = _flat_bessel_solution()
    prof = a_profile(sol)
    x = np.array([7.0, 20.0, 55.0])
    j2 = spherical_jn(2, x)
    dj2 = spherical_jn(2, x, derivative=True)
    a_exact = 2.0 * j2 + x * dj2
    ap_exact = dj2 + 6.0 * j2 / x - x * j2
    app_exact = 4.0 * dj2 / x - 2.0 * j2 - x * dj2
    assert prof.a(x) == pytest.approx(a_exact, abs=1e-9)
    assert prof.a_prime(x) == pytest.approx(ap_exact, abs=1e-9)
    assert prof.a_double_prime(x) == pytest.approx(app_exact, abs=1e-9)


def test_a_profile_horizon_limit():
    # (r - 2m) Z term dies at the horizon, leaving A -> Z'/sigma^2
    bg = BackgroundParams(m=1.0)
    mode = AxialMode(ell=2, sigma=0.5)
    r_in = 2.0 + 1e-6
    sol = integrate_wave(
        bg, mode, AnchorBoundary(z=0.4, dz=0.3, r=3.0), (r_in, 10.0), tol=1e-11
    )
    prof = a_profile(sol)
    r = 2.0 + 2e-6
    _, dz = sol.eval_r(r)
    assert prof.a(r) == pytest.approx(dz[0] / mode.sigma**2, rel=1e-5)


def test_a_profile_coverage(axial_profile):
    with pytest.raises(CoverageError):
        axial_profile.a(500.0)


def test_profile_shares_one_dense_output_pass(axial_solution, monkeypatch):
    prof = a_profile(axial_solution)
    r = np.linspace(21.0, 79.0, 57).reshape(3, 19)
    expect = [prof.a(r), prof.a_prime(r), prof.a_double_prime(r)]
    calls = []
    eval_rstar = RadialSolution.eval_rstar
    monkeypatch.setattr(
        RadialSolution, "eval_rstar", lambda self, rs: calls.append(rs.shape) or eval_rstar(self, rs)
    )
    got = prof.values(r)
    assert calls == [r.shape]
    for g, e in zip(got, expect):
        assert g.shape == r.shape and g.tobytes() == e.tobytes()
    scalar = prof.values(50.0)
    assert [type(v) for v in scalar] == [float] * 3
    assert scalar == (prof.a(50.0), prof.a_prime(50.0), prof.a_double_prime(50.0))


def test_eval_r_is_bitwise_the_per_point_evaluation(axial_solution):
    sol = axial_solution
    # both coverage ends, the anchor (where the legs meet) and inner radii, repeated
    radii = np.array([sol.r_min, sol.r_max, 30.0, 20.5, 47.25, 79.9])
    r = np.random.default_rng(7).permutation(np.repeat(radii, 4)).reshape(4, 6)
    z, dz = sol.eval_r(r)
    assert z.shape == dz.shape == r.shape
    for i, x in np.ndenumerate(r):
        state = sol.eval_rstar(tortoise(np.array([x]), sol.background))[:, 0]
        assert z[i].tobytes() == state[0].tobytes() and dz[i].tobytes() == state[1].tobytes()
