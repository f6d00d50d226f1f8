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
    export_mesh,
    export_profile,
    make_family,
    shrinker_residual,
    solve,
)

out = "demo_output"
os.makedirs(out, exist_ok=True)

fam = make_family(1, 1, 1, 2, math.pi / 4)
print(f"family: geodesic sphere cone in R^3, d0 = {fam.d0:.6f}")

run = solve(CurvatureProfile(fam), SolverConfig(tol=1e-10), K=36)

prof_s = run.s_side
print(f"s-side solve: bootstrap at s = {prof_s.meta['s_b']:.5f}, "
      f"{prof_s.meta['n_steps']} steps to s = {prof_s.meta['s_end']}")
print(f"  max energy-identity residual: "
      f"{np.nanmax(np.abs(prof_s['energy_residual'])):.2e}")

prof_d = run.d_side
print(f"d-side chart: d in [{prof_d['d'][0]:.5f}, {prof_d['d'][-1]:.5f}], "
      f"g-equation residual {np.max(np.abs(prof_d['eq140_residual'])):.2e}")

cont = run.end
print(f"continuation: handoff d = {cont.meta['d_h']:.5f} -> "
      f"d = {cont['d'][-1]:.5f} (past d0 = {fam.d0:.5f})")
print(f"  first-integral drift: {cont.meta['max_identity_drift']:.2e}")
print(f"  shrinker residual:    {shrinker_residual(cont).max_abs:.2e}")

asym = asymptotic_check(cont, run.series)
print(f"cone asymptotics: deviation slope {asym.slope:.3f} "
      f"(linear decay), d*e^phi monotone: {asym.monotone}")

export_profile(cont, os.path.join(out, "profile.csv"), format="csv")
export_profile(cont, os.path.join(out, "profile.json"), format="json")
mesh = export_mesh(cont, os.path.join(out, "end.obj"), resolution=96)
print(f"\nwrote {out}/profile.csv, {out}/profile.json, {out}/end.obj "
      f"({mesh.vertex_count} vertices, discrete check "
      f"{mesh.discrete_residual:.2e})")
