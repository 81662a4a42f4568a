"""Surface-geometry validation path: K, |H|, and the Hawking line.

Independent of the spectral pipeline, this path evaluates the perturbed
slice metric, pulls back the induced metric of the unit sphere at distance
d, and computes Gauss curvature (Brioschi + order-6 differencing), the
mean-curvature norm (slice + extrinsic-curvature decomposition), and the
combination K - |H|^2/4 - (|H| - 2)^2/4 whose integral carries the leading
falloff. Baselines: the flat round sphere is exact, Gauss-Bonnet holds in
every configuration, and the unperturbed Schwarzschild integral has no
constant term in its inverse-power fit.

Run from the repository root:  python demos/05_geometry_validation.py
"""

import numpy as np

from quasilocal import (
    AnchorBoundary,
    AxialMode,
    BackgroundParams,
    PerturbationProfiles,
    SurfaceSpec,
    axial_preset,
    hawking_sweep,
    integrate_wave,
    surface_geometry,
)

print("== flat round sphere (exact baseline) ==")
flat = surface_geometry(
    SurfaceSpec(d=20.0), BackgroundParams(m=0.0), PerturbationProfiles.none(),
    resolution=96, gauss_bonnet_tol=1e-8,
)
print(f"  max |K - 1|        = {np.max(np.abs(flat.gauss - 1)):.3e}")
print(f"  max ||H| - 2|      = {np.max(np.abs(flat.mean_norm - 2)):.3e}")
print(f"  max |hawking line| = {np.max(np.abs(flat.hawking_line)):.3e}")
print(f"  area - 4 pi        = {flat.area - 4 * np.pi:.3e}")

print("\n== unperturbed Schwarzschild sweep ==")
bg = BackgroundParams(m=1.0)
sweep = hawking_sweep(
    bg, PerturbationProfiles.none(), [50.0, 100.0, 200.0, 400.0, 800.0],
    resolution=96, gauss_bonnet_tol=1e-7,
)
for d, v in zip(sweep["d_values"], sweep["integrals"]):
    print(f"  d = {d:6.0f}:  int hawking dmu = {v:+.6e}")
print(f"  fit constant = {sweep['constant']:+.3e}  (vanishing zeroth order)")
print(f"  fit 1/d      = {sweep['c_over_d']:+.3e}")
print(f"  fit 1/d^2    = {sweep['c_over_d2']:+.6f}")

print("\n== axial perturbation (q3 only; q2 is not modelled) ==")
mode = AxialMode(ell=2, sigma=0.5)
sol = integrate_wave(bg, mode, AnchorBoundary(z=0.0, dz=1.0, r=25.0), (20.0, 30.0), tol=1e-11)
pert = axial_preset(sol, epsilon=1e-3)
rep = surface_geometry(SurfaceSpec(t=0.9, d=25.0), bg, pert, resolution=96, gauss_bonnet_tol=1e-8)
print(f"  flags: {rep.flags}")
print(f"  Gauss-Bonnet defect: {abs(rep.gauss_bonnet - 4 * np.pi):.3e}")
print(f"  int hawking dmu    : {rep.hawking_integral:+.6e}")
print("  (the vanishing-1/d claim needs a complete (q2, q3) vacuum pair, so it")
print("   is not asserted; every axial report carries incomplete-perturbation)")
