"""Radial wave solutions and the A(r) profile.

Walks through the one-dimensional radial machinery: the tortoise change of
variable, the odd- and even-parity potentials, an adaptive integration of
the wave equation, and the A(r), A'(r), A''(r) evaluators built from it.
The flat-space limit m = 0 has the closed-form solution Z = sigma r
j2(sigma r), which pins down the integrator error exactly.

Run from the repository root:  python demos/01_radial_waves.py
"""

from pathlib import Path

import numpy as np
from scipy.special import spherical_jn

from quasilocal import (
    AnchorBoundary,
    AxialMode,
    BackgroundParams,
    PolarMode,
    a_profile,
    integrate_wave,
    inverse_tortoise,
    potential_axial,
    potential_polar,
    tortoise,
)
from quasilocal.svgplot import line_plot

bg = BackgroundParams(m=1.0)

print("== tortoise coordinate ==")
for r in (2.5, 4.0, 10.0, 100.0):
    rs = tortoise(r, bg)
    back = inverse_tortoise(rs, bg)
    print(f"  r = {r:8.2f}  ->  r* = {rs:12.6f}  ->  r = {back:.12f}")

print("\n== potentials (m = 1) ==")
ax = AxialMode(ell=2, sigma=0.5)
po = PolarMode.from_multipole(2, sigma=0.5)
r = np.linspace(2.05, 60.0, 400)
v_minus = potential_axial(r, bg, ax)
v_plus = potential_polar(r, bg, po)
print(f"  V-(3) = {potential_axial(3.0, bg, ax):.12f}   (= 4/27)")
print(f"  V+(3) = {potential_polar(3.0, bg, po):.12f}   (= 2970/19683)")
print(f"  both vanish at the horizon: {potential_axial(2.0, bg, ax)}, "
      f"{potential_polar(2.0, bg, po)}")
Path("demo_potentials.svg").write_text(line_plot(
    r, [v_minus, v_plus],
    labels=["odd parity", "even parity"], title="radial potentials (m=1, l=2)",
    xlabel="r", ylabel="V",
), encoding="utf-8")
print("  wrote demo_potentials.svg")

print("\n== flat-space oracle ==")
flat = BackgroundParams(m=0.0)
mode1 = AxialMode(ell=2, sigma=1.0)
z0 = spherical_jn(2, 1.0)
dz0 = spherical_jn(2, 1.0) + spherical_jn(2, 1.0, derivative=True)
sol = integrate_wave(flat, mode1, AnchorBoundary(z=z0, dz=dz0, r=1.0), (1.0, 100.0), tol=1e-11)
rr = np.linspace(1.0, 100.0, 1200)
zz, _ = sol.eval_r(rr)
ref = rr * spherical_jn(2, rr)
print(f"  max |Z - r j2(r)| / max|Z| = {np.max(np.abs(zz - ref)) / np.max(np.abs(ref)):.3e}")
print(f"  integrated ODE residual     = {sol.residual_max():.3e}  (tol {sol.tol:g})")

print("\n== A(r) profile on a Schwarzschild background ==")
sol_bh = integrate_wave(bg, ax, AnchorBoundary(z=0.0, dz=1.0, r=30.0), (20.0, 80.0), tol=1e-12)
prof = a_profile(sol_bh)
r = np.linspace(21.0, 79.0, 500)
Path("demo_a_profile.svg").write_text(line_plot(
    r, [prof.a(r), prof.a_prime(r), prof.a_double_prime(r)],
    labels=["A", "A'", "A''"], title="A(r) and derivatives", xlabel="r", ylabel="",
), encoding="utf-8")
h = 1e-4
fd = (prof.a(50.0 + h) - prof.a(50.0 - h)) / (2 * h)
print(f"  A'(50) analytic vs centered difference: rel err {abs(prof.a_prime(50.0)/fd - 1):.2e}")
print("  wrote demo_a_profile.svg")
