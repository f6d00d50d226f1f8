"""End-to-end pipeline: integrate the singular problem, convert charts,
continue past the minimal hypersurface, verify, and export the end.

Writes profile.csv, profile.json, and end.obj into ./demo_output.
"""

import math
import os

import numpy as np

from coneshrink import (
    CurvatureProfile,
    SolverConfig,
    asymptotic_check,
    compute_coefficients,
    continue_phi,
    export_mesh,
    export_profile,
    integrate_gamma,
    make_family,
    shrinker_residual,
    to_d_profile,
)

out = "demo_output"
os.makedirs(out, exist_ok=True)

fam = make_family(1, 1, 1, 2, math.pi / 4)
print(f"family: geodesic sphere cone in R^3, d0 = {fam.d0:.6f}")

curvature = CurvatureProfile(fam)
series = compute_coefficients(curvature, 36)
config = SolverConfig(tol=1e-10)

prof_s = integrate_gamma(curvature, series, config)
print(f"s-side solve: bootstrap at s = {prof_s.meta['s_b']:.5f}, "
      f"{prof_s.meta['n_steps']} steps to s = {prof_s.meta['s_end']}")
print(f"  max energy-identity residual: "
      f"{np.nanmax(np.abs(prof_s['energy_residual'])):.2e}")

prof_d = to_d_profile(prof_s)
print(f"d-side chart: d in [{prof_d['d'][0]:.5f}, {prof_d['d'][-1]:.5f}], "
      f"g-equation residual {np.max(np.abs(prof_d['eq140_residual'])):.2e}")

cont = continue_phi(prof_d, config=config)
print(f"continuation: handoff d = {cont.meta['d_h']:.5f} -> "
      f"d = {cont['d'][-1]:.5f} (past d0 = {fam.d0:.5f})")
print(f"  first-integral drift: {cont.meta['max_identity_drift']:.2e}")
print(f"  shrinker residual:    {shrinker_residual(cont).max_abs:.2e}")

asym = asymptotic_check(cont, series)
print(f"cone asymptotics: deviation slope {asym.slope:.3f} "
      f"(linear decay), d*e^phi monotone: {asym.monotone}")

export_profile(cont, os.path.join(out, "profile.csv"), format="csv")
export_profile(cont, os.path.join(out, "profile.json"), format="json")
mesh = export_mesh(cont, os.path.join(out, "end.obj"), resolution=96)
print(f"\nwrote {out}/profile.csv, {out}/profile.json, {out}/end.obj "
      f"({mesh.vertex_count} vertices, discrete check "
      f"{mesh.discrete_residual:.2e})")
