"""Arc integrals along closed loops on the limiting sphere.

A density with the z2 z3 azimuthal structure integrates to zero over the
whole sphere and along every constant-colatitude circle, yet a loop whose
shape oscillates at the matching azimuthal frequency picks up a finite arc
integral: varying the loop shape recovers information the full-sphere
integral discards.

Run from the repository root:  python demos/06_loops.py
"""

import numpy as np

from quasilocal import (
    AnchorBoundary,
    AxialMode,
    BackgroundParams,
    LoopSpec,
    SphereGrid,
    SurfaceSpec,
    a_profile,
    integrate,
    integrate_wave,
    loop_integral,
    synthesize,
)
from quasilocal.embedding import build_sources

bg = BackgroundParams(m=1.0)
mode = AxialMode(ell=2, sigma=0.5)
sol = integrate_wave(bg, mode, AnchorBoundary(z=0.0, dz=1.0, r=50.0), (48.0, 52.0), tol=1e-11)
_, s_n = build_sources(a_profile(sol), SurfaceSpec(d=50.0), 16)
density = synthesize(s_n, SphereGrid.for_band_limit(16))

print("== the density and its vanishing sphere integral ==")
print(f"  max |density|        = {np.max(np.abs(density.values)):.4f}")
print(f"  full-sphere integral = {integrate(density):.3e}  (parity zero)")

print("\n== circles vs shaped loops ==")
for th0 in (np.pi / 4, np.pi / 3, np.pi / 2):
    val = loop_integral(s_n, LoopSpec.circle(th0, 512))
    print(f"  circle at theta = {th0:.3f}:      {val:+.3e}")
for amp in (0.1, 0.25, 0.4):
    wavy = LoopSpec(
        lambda s, a=amp: np.pi / 2 + a * np.sin(4 * np.pi * s),
        lambda s: 2 * np.pi * s,
        512,
    )
    val = loop_integral(s_n, wavy)
    print(f"  wavy loop, amplitude {amp:.2f}:   {val:+.6f}")

print("\n== convergence under sample doubling (second order) ==")
wavy = LoopSpec(
    lambda s: np.pi / 2 + 0.4 * np.sin(4 * np.pi * s), lambda s: 2 * np.pi * s, 8192
)
ref = loop_integral(s_n, wavy)
prev = None
for n in (64, 128, 256, 512):
    loop = LoopSpec(
        lambda s: np.pi / 2 + 0.4 * np.sin(4 * np.pi * s), lambda s: 2 * np.pi * s, n
    )
    err = abs(loop_integral(s_n, loop) - ref)
    rate = "" if prev is None else f"   ratio {prev / err:5.2f}"
    print(f"  n = {n:4d}:  error {err:.3e}{rate}")
    prev = err
