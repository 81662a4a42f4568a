"""Surface geometry: baselines, Gauss-Bonnet, presets, and sweeps."""

import dataclasses

import numpy as np
import pytest

from quasilocal import (
    AProfile,
    AnchorBoundary,
    DomainError,
    FitError,
    PerturbationProfiles,
    PolarMode,
    ResolutionError,
    SurfaceSpec,
    axial_preset,
    hawking_sweep,
    integrate_wave,
    surface_geometry,
)
from quasilocal.geometry import (
    _d1,
    _d2,
    _extend_phi,
    _extend_theta,
    _metric_sph,
    _midpoint_sine_weights,
    fit_powers,
)


@pytest.fixture(scope="module")
def preset(bg_unit, mode_l2):
    sol = integrate_wave(
        bg_unit, mode_l2, AnchorBoundary(z=0.0, dz=1.0, r=25.0), (20.0, 30.0), tol=1e-11
    )
    return axial_preset(sol, epsilon=1e-3)


# ----------------------------------------------------------------------
# quadrature weights
# ----------------------------------------------------------------------


def test_midpoint_sine_weights_exactness():
    # rule integrates sin(theta) cos(k theta) exactly for k < n
    n = 24
    w = _midpoint_sine_weights(n)
    theta = (np.arange(n) + 0.5) * np.pi / n
    assert np.sum(w) == pytest.approx(2.0, abs=1e-13)
    for k in range(1, n):
        got = np.sum(w * np.cos(k * theta))
        expect = 0.0 if k % 2 else 2.0 / (1.0 - k * k)
        assert got == pytest.approx(expect, abs=1e-12), k


# ----------------------------------------------------------------------
# finite-difference stencils
# ----------------------------------------------------------------------


def _stencil_errors(case, n):
    """Max errors of the first and second differences on an n x 2n parameter grid.

    "phi" is periodic data; +1 and -1 are data whose antipodal continuation
    f(-theta, phi) = sign f(theta, phi + pi) holds with that sign: the scalar
    exp(sin theta cos phi + cos theta), and cos(phi) exp(cos theta), which
    continues as a theta-phi tensor component does.
    """
    step = np.pi / n
    th = ((np.arange(n) + 0.5) * step)[:, None]
    ph = np.arange(2 * n) * step
    if case == "phi":
        f = np.exp(np.sin(ph)) * np.cos(th)
        exact = (np.cos(ph) * f, (np.cos(ph) ** 2 - np.sin(ph)) * f)
        e, axis = _extend_phi(f), 1
    elif case > 0:
        arg = np.sin(th) * np.cos(ph) + np.cos(th)  # d^2 arg / d theta^2 = -arg
        arg_th = np.cos(th) * np.cos(ph) - np.sin(th)
        f = np.exp(arg)
        exact = (arg_th * f, (arg_th**2 - arg) * f)
        e, axis = _extend_theta(f, case), 0
    else:
        f = np.cos(ph) * np.exp(np.cos(th))
        exact = (-np.sin(th) * f, (np.sin(th) ** 2 - np.cos(th)) * f)
        e, axis = _extend_theta(f, case), 0
    return [np.max(np.abs(d(e, axis, step) - x)) for d, x in zip((_d1, _d2), exact)]


@pytest.mark.parametrize("case", ["phi", 1.0, -1.0])
def test_stencils_converge_at_order_six(case):
    for coarse, fine in zip(_stencil_errors(case, 32), _stencil_errors(case, 64)):
        assert 0.75 * 2**6 <= coarse / fine <= 1.25 * 2**6


# ----------------------------------------------------------------------
# spatial metric
# ----------------------------------------------------------------------


def spatial_metric(bg, pert, point):
    """The slice metric ``surface_geometry`` uses and its t-derivative at (t, r, theta, phi)."""
    t, r, theta, _phi = point
    g, _, dtg = _metric_sph(bg, pert, t, r, theta)
    return g[..., 0], dtg[..., 0]


def test_spatial_metric_unperturbed(bg_unit, bg_flat):
    g, dtg = spatial_metric(bg_unit, PerturbationProfiles.none(), (0.0, 10.0, 1.0, 0.5))
    f = 1.0 - 2.0 / 10.0
    expect = np.diag([1.0 / f, 100.0, 100.0 * np.sin(1.0) ** 2])
    assert g == pytest.approx(expect, rel=1e-14)
    assert np.all(dtg == 0.0)
    g0, _ = spatial_metric(bg_flat, PerturbationProfiles.none(), (0.0, 10.0, 1.0, 0.5))
    assert g0 == pytest.approx(np.diag([1.0, 100.0, 100.0 * np.sin(1.0) ** 2]), rel=1e-14)


def test_spatial_metric_epsilon_linearity(bg_unit, preset):
    pt = (0.9, 25.0, 1.1, 0.3)
    g1, dt1 = spatial_metric(bg_unit, preset, pt)
    g2, dt2 = spatial_metric(bg_unit, dataclasses.replace(preset, epsilon=2e-3), pt)
    # the theta-phi component and its t-derivative are linear in epsilon
    assert g2[1, 2] == pytest.approx(2.0 * g1[1, 2], rel=1e-15)
    assert dt2[1, 2] == pytest.approx(2.0 * dt1[1, 2], rel=1e-15)
    # the full metric keeps the quadratic term r^2 sin^2 q3^2 = g_{theta phi}^2 / (r^2 sin^2);
    # g_{theta theta} - r^2 is exact up to the one rounding of r^2 + that term
    r2 = pt[1] ** 2
    p_fac = r2 * np.sin(pt[2]) ** 2
    assert g1[1, 1] - r2 == pytest.approx(g1[1, 2] ** 2 / p_fac, rel=1e-12, abs=np.spacing(r2))


def test_spatial_metric_horizon_domain(bg_unit):
    with pytest.raises(DomainError):
        spatial_metric(bg_unit, PerturbationProfiles.none(), (0.0, 1.5, 1.0, 0.0))


# ----------------------------------------------------------------------
# axial preset profiles
# ----------------------------------------------------------------------


def test_axial_preset_time_factor(bg_unit, preset):
    # q_i carry sin(sigma t): vanish at t = 0 while dt-components do not
    g, dtg = spatial_metric(bg_unit, preset, (0.0, 25.0, 1.0, 0.0))
    assert g[1, 2] == 0.0
    assert dtg[1, 2] != 0.0


def test_axial_preset_pole_behavior(bg_unit, mode_l2):
    # C_2(theta)/sin(theta) = 3 sin(theta): q3 = 3 sin(theta) A(r)/r, so the
    # profile vanishes linearly toward both poles
    from quasilocal import a_profile

    sol = integrate_wave(
        bg_unit, mode_l2, AnchorBoundary(z=0.0, dz=1.0, r=25.0), (20.0, 30.0), tol=1e-11
    )
    pert = axial_preset(sol, epsilon=1e-3)
    prof = a_profile(sol)
    r = np.full(4, 25.0)
    th = np.array([1e-3, 0.1, np.pi - 0.1, np.pi - 1e-3])
    vals = pert.spatial_profile(r, th)[0]
    expect = 3.0 * np.sin(th) * prof.a(r) / r
    assert vals == pytest.approx(expect, rel=1e-12)
    assert abs(vals[0]) < 2e-2 * abs(vals[1])  # ~ sin(1e-3)/sin(0.1)


def test_axial_preset_one_dense_output_pass_per_surface(bg_unit, preset, monkeypatch):
    # q3, dq3/dr and dq3/dtheta share the A and A' of one evaluation, over the
    # distinct chart radii (they repeat along each parameter row)
    from quasilocal.radial import RadialSolution

    calls, radii = [], []
    eval_rstar = RadialSolution.eval_rstar
    spatial_profile = PerturbationProfiles.spatial_profile
    monkeypatch.setattr(
        RadialSolution, "eval_rstar", lambda self, rs: calls.append(rs.shape) or eval_rstar(self, rs)
    )
    monkeypatch.setattr(
        PerturbationProfiles,
        "spatial_profile",
        lambda self, r, th: radii.append(np.unique(r).size) or spatial_profile(self, r, th),
    )
    for d in (24.5, 25.0):
        surface_geometry(SurfaceSpec(t=0.9, d=d), bg_unit, preset, resolution=32)
    assert calls == [(n,) for n in radii] and max(radii) < 32 * 64


def test_axial_preset_regular_horizon_limit(bg_unit, mode_l2):
    # the prefactor (r^2 - 2mr)/r^4 vanishes at the horizon but d(rZ)/dr blows
    # up at the same rate; the regular combination tends to A(r)/r with
    # A -> Z'/sigma^2 (consistent with the profile's horizon limit)
    sol = integrate_wave(
        bg_unit,
        mode_l2,
        AnchorBoundary(z=0.4, dz=0.3, r=3.0),
        (2.0 + 1e-6, 10.0),
        tol=1e-11,
    )
    pert = axial_preset(sol, epsilon=1e-3)
    r = 2.0 + 2e-6
    _, dz = sol.eval_r(r)
    expect_mag = abs(3.0 * (dz[0] / mode_l2.sigma**2) / r)  # ang(pi/2) = 3 sin P'' = 3
    q3 = pert.spatial_profile(np.array([r]), np.array([np.pi / 2]))[0]
    assert abs(float(q3[0])) == pytest.approx(expect_mag, rel=1e-4)


# ----------------------------------------------------------------------
# surface geometry baselines
# ----------------------------------------------------------------------


def test_flat_round_sphere(bg_flat):
    rep = surface_geometry(
        SurfaceSpec(d=20.0), bg_flat, PerturbationProfiles.none(), resolution=96,
        gauss_bonnet_tol=1e-8,
    )
    assert np.max(np.abs(rep.gauss - 1.0)) <= 1e-10
    assert np.max(np.abs(rep.mean_norm - 2.0)) <= 1e-10
    assert np.max(np.abs(rep.hawking_line)) <= 1e-10
    assert rep.area == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert abs(rep.gauss_bonnet - 4.0 * np.pi) <= 1e-8


def test_gauss_bonnet_schwarzschild(bg_unit):
    rep = surface_geometry(
        SurfaceSpec(d=100.0), bg_unit, PerturbationProfiles.none(), resolution=96,
        gauss_bonnet_tol=1e-8,
    )
    assert abs(rep.gauss_bonnet - 4.0 * np.pi) <= 1e-8


def test_gauss_bonnet_perturbed(bg_unit, preset):
    rep = surface_geometry(
        SurfaceSpec(t=0.9, d=25.0), bg_unit, preset, resolution=96, gauss_bonnet_tol=1e-8
    )
    assert abs(rep.gauss_bonnet - 4.0 * np.pi) <= 1e-8
    assert rep.flags == ("incomplete-perturbation",)


# K, |H| and the Hawking line of the axial preset (t = 0.9, d = 25, res 32)
# at rows 0, 1, n/2 and n-1 and columns 0, 17 and 40, recorded from the
# earlier implementation that assembled Cartesian Christoffels.  Rows 0 and
# n-1 sit next to the parameter poles, where the Brioschi formula's
# 1/sin^4 amplifies round-off in the induced metric: evaluation order alone
# moves K there by ~1e-10 at res 32 and ~5e-9 at res 96.
_PINNED_ROWS, _PINNED_COLS = (0, 1, 16, 31), (0, 17, 40)
_PINNED = {
    "equatorial": (
        np.pi / 2,
        [
            [1.0766679559153365, 1.0766680234634527, 1.076667609771077],
            [1.0736659246920504, 1.073667301562032, 1.0736588733869104],
            [0.919866918102413, 0.9199365583593019, 0.9195104734238143],
            [1.0980891312984555, 1.098089179006639, 1.0980888869014307],
        ],
        [
            [2.075142994918269, 2.075143162139818, 2.0751421385644493],
            [2.0722513188256295, 2.0722528170346837, 2.072243646452999],
            [1.9199337066010578, 1.92001365933678, 1.9195244704257166],
            [2.095657690963887, 2.095657896665783, 2.0956566375369663],
        ],
        [
            [-0.0012982738455760943, -0.0012983860845511234, -0.0012976992873918033],
            [-0.0011955206696005743, -0.0011957502573753198, -0.001194345292501373],
            [-0.00327209416796764, -0.0032760083238245873, -0.003252152432032949],
            [-0.0021437565857027946, -0.002143934256404813, -0.0021428467879746845],
        ],
    ),
    "tilted": (
        0.3,
        [
            [1.0766679640743284, 1.0766682335202848, 1.0766677988690978],
            [1.0736659339221999, 1.0736666447973553, 1.0736659593535862],
            [0.9198669867300647, 0.9198593761483901, 0.9198992199687316],
            [1.0980891437827722, 1.098089439717198, 1.0980889518954633],
        ],
        [
            [2.075142962861481, 2.0751433297785633, 2.075142766592327],
            [2.0722512883536464, 2.0722522745678797, 2.072251164857646],
            [1.919933792019624, 1.9199246603718247, 1.9199710760229012],
            [2.095657656800988, 2.0956580836712537, 2.09565743276114],
        ],
        [
            [-0.001298231220953319, -0.0012983562633833402, -0.0012981854088035497],
            [-0.0011954787658273048, -0.0011958253606406861, -0.0011953209157028481],
            [-0.003272104119737727, -0.0032713142317184014, -0.0032741703906358295],
            [-0.0021437066705435677, -0.0021438784398838313, -0.0021436530869024823],
        ],
    ),
}


@pytest.mark.parametrize("direction", sorted(_PINNED))
def test_perturbed_fields_pinned_pointwise(bg_unit, preset, direction):
    theta_d, gauss, mean_norm, hawking = _PINNED[direction]
    rep = surface_geometry(
        SurfaceSpec(t=0.9, d=25.0, theta_d=theta_d), bg_unit, preset, resolution=32
    )
    at = np.ix_(_PINNED_ROWS, _PINNED_COLS)
    assert np.max(np.abs(rep.gauss[at] - gauss)) <= 1e-8
    assert np.max(np.abs(rep.hawking_line[at] - hawking)) <= 1e-8
    assert np.max(np.abs(rep.mean_norm[at] - mean_norm)) <= 1e-12


def test_resolution_self_check(bg_unit):
    with pytest.raises(ResolutionError):
        surface_geometry(
            SurfaceSpec(d=25.0), bg_unit, PerturbationProfiles.none(), resolution=8
        )
    with pytest.raises(ResolutionError):
        # absurd tolerance triggers the Gauss-Bonnet defect check
        surface_geometry(
            SurfaceSpec(d=25.0),
            bg_unit,
            PerturbationProfiles.none(),
            resolution=24,
            gauss_bonnet_tol=1e-15,
        )


def test_schwarzschild_hawking_sweep(bg_unit):
    sweep = hawking_sweep(
        bg_unit,
        PerturbationProfiles.none(),
        [50.0, 100.0, 200.0, 400.0, 800.0],
        resolution=96,
        gauss_bonnet_tol=1e-7,
    )
    assert abs(sweep["constant"]) <= 1e-6
    sweep_hi = hawking_sweep(
        bg_unit,
        PerturbationProfiles.none(),
        [50.0, 100.0, 200.0, 400.0, 800.0],
        resolution=128,
        gauss_bonnet_tol=1e-7,
    )
    # the 1/d coefficient is a genuine output: resolution-consistent
    assert sweep["c_over_d"] == pytest.approx(sweep_hi["c_over_d"], abs=1e-7)
    assert sweep["constant"] == pytest.approx(sweep_hi["constant"], abs=1e-9)


def test_epsilon_derivative_convergence_order(bg_unit, preset):
    # order-6 centered differencing: observed convergence well above 2
    spec = SurfaceSpec(t=0.9, d=25.0)
    eps = preset.epsilon
    minus = dataclasses.replace(preset, epsilon=-eps)

    def epsilon_derivative(resolution):
        """First-order response of the Hawking line by symmetric differencing at +-eps."""
        plus_line, minus_line = (
            surface_geometry(spec, bg_unit, p, resolution, gauss_bonnet_tol=np.inf).hawking_line
            for p in (preset, minus)
        )
        return (plus_line - minus_line) / (2.0 * eps)

    d16, d48, d144 = (epsilon_derivative(n) for n in (16, 48, 144))
    # offset grids at n and 3n share rows (3j + 1) and columns (3k)
    coarse_on_fine = d48[1::3, ::3]
    finest_on_coarse = d144[4::9, ::9]
    e1 = np.max(np.abs(d16 - finest_on_coarse))
    e2 = np.max(np.abs(coarse_on_fine - finest_on_coarse))
    order = np.log(e1 / e2) / np.log(3.0)
    assert order >= 2.0


def test_fit_powers_recovery():
    coeffs, resid, cond = fit_powers(
        [(d, 2.0 + 3.0 / d + 0.5 / d**2) for d in (25.0, 50.0, 100.0, 200.0)],
        powers=(0, 1, 2),
    )
    assert coeffs[0] == pytest.approx(2.0, abs=1e-9)
    assert coeffs[1] == pytest.approx(3.0, abs=1e-7)
    assert coeffs[2] == pytest.approx(0.5, rel=1e-6)
    assert resid <= 1e-10


def test_fit_powers_checks_condition():
    samples = [(50.0, 1.0), (50.000000001, 1.0), (400.0, 2.0), (400.000000001, 2.0)]
    with pytest.raises(FitError, match="degenerate design matrix"):
        fit_powers(samples, powers=(0, 1, 2))


def test_hawking_sweep_names_coefficients_by_power(bg_unit):
    none = PerturbationProfiles.none()
    d_values = [50.0, 100.0, 200.0, 400.0]
    sweep = hawking_sweep(
        bg_unit, none, d_values, resolution=16, gauss_bonnet_tol=1e-4, powers=(1, 2)
    )
    assert "constant" not in sweep and "c_over_d3" not in sweep
    assert [sweep["c_over_d"], sweep["c_over_d2"]] == sweep["coefficients"]


def test_hawking_sweep_without_fit(bg_unit):
    none = PerturbationProfiles.none()
    sweep = hawking_sweep(bg_unit, none, [50.0], resolution=16, gauss_bonnet_tol=1e-4, powers=())
    assert len(sweep["integrals"]) == 1
    assert "coefficients" not in sweep and "residual" not in sweep


def test_perturbation_validation(bg_unit):
    polar = integrate_wave(
        bg_unit, PolarMode(n=2.0, sigma=0.5), AnchorBoundary(z=0.0, dz=1.0, r=25.0), (20.0, 30.0)
    )
    with pytest.raises(DomainError):
        PerturbationProfiles(profile=AProfile(polar))  # no polar metric perturbation
    with pytest.raises(DomainError):
        PerturbationProfiles(epsilon=0.5)  # epsilon too large
