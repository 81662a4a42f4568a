"""Linearized embedding solve and energy assembly for one surface.

Builds the source terms of the two elliptic equations on the sphere from a
radial solution, solves them spectrally (kernel modes projected out and
reported), evaluates the two energy integrals, and assembles E(t) and its
time derivative over a full period at fixed distance.

Run from the repository root:  python demos/03_embedding_and_energy.py
"""

from pathlib import Path

import numpy as np

from quasilocal import (
    AxialMode,
    BackgroundParams,
    SurfaceAnchorBoundary,
    SurfaceSpec,
    surface_energy,
)
from quasilocal.svgplot import line_plot

bg = BackgroundParams(m=1.0)
mode = AxialMode(ell=2, sigma=0.5, amplitude=1.0)
boundary = SurfaceAnchorBoundary(z=0.0, dz=1.0)
spec = SurfaceSpec(t=0.0, d=100.0)

period = np.pi / mode.sigma
t = np.linspace(0.0, 2.0 * period, 161)
res = surface_energy(bg, mode, boundary, spec, t, l_max=16, tol=1e-11)

print("== embedding solve at d = 100 ==")
print(f"  band limit: {res.embedding.l_max}")
print(f"  kernel residuals (tau, l=0/1): {res.embedding.kernel_residual_tau}")
print(f"  kernel residual  (N,  l=1):   {res.embedding.kernel_residual_n:.3e}")
tau_l = [res.embedding.tau.degree_norm(l) for l in range(6)]
print("  |tau| per degree l=0..5:", " ".join(f"{v:.2e}" for v in tau_l))

print("\n== energy coefficients ==")
print(f"  E1 = {res.coefficients.e1:+.6f}")
print(f"  E2 = {res.coefficients.e2:+.6f}")
print(f"  c_factor (direction constant x amplitude^2) = {res.c_factor:.6f}")

print("\n== assembled E(t, d=100) over two periods ==")
print(f"  E range: [{res.e.min():.3e}, {res.e.max():.3e}]")
print(f"  period pi/sigma = {period:.4f}: E(0) - E(period) = "
      f"{res.e[0] - res.e[80]:.2e}")
zero_idx = np.argmin(np.abs(t - (np.pi / 2) / mode.sigma))
print(f"  dE/dt at sigma t = pi/2: {res.dedt[zero_idx]:.2e}")
Path("demo_energy_vs_t.svg").write_text(line_plot(
    t, [res.e, res.dedt],
    labels=["E", "dE/dt"], title="E(t) at d=100", xlabel="t", ylabel="",
), encoding="utf-8")
print("  wrote demo_energy_vs_t.svg")
