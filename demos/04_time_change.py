"""Bracket clock changes: unit-rate transport and substitution identities.

Inverting the bracket prefix turns any truncation into one whose bracket
grows at unit rate (up to one grid cell of mass).  Substitution against the
bracket measure is exact on the mass breakpoints, and the transported
stochastic integral matches the source integral with a gap that shrinks with
the cell mass.
"""

import numpy as np

from cylmart import (
    IncreasingPath,
    IntegrandProcess,
    NoiseSpec,
    TimeGrid,
    apply_time_change,
    build_time_change,
    dds_integral_check,
    measure_from_increasing,
    qv_exact,
    simulate,
    substitute,
)

# --- inverting a quadratic bracket ------------------------------------------
grid = TimeGrid.uniform(1.0, 64)
quad = measure_from_increasing(IncreasingPath(grid, grid.points**2))
tc = build_time_change(quad)
tau = tc.grid.points[tc.tau_idx[0]]
print("tau(s) approximates sqrt(s): max gap =",
      np.abs(tau[:-1] - np.sqrt(tc.s_points[0][:-1])).max())

# --- substitution: int f d(bracket) = int f(tau(s)) ds ------------------------
lhs, rhs = substitute(grid.right, quad)
print(f"int t d(t^2) = {lhs:.6f} vs transported {rhs:.6f} (limit 2/3)")

# --- transported brackets grow at unit rate -----------------------------------
def vol(t, w):  # w = W(t_i), the driver before each cell
    return (0.6 + 0.4 * np.sin(3 * w[..., 0]) ** 2)[..., None, None]

ens = simulate(NoiseSpec(1, 1, vol), grid, n_paths=200, seed=4)
moved = apply_time_change(ens, build_time_change(ens.bracket))
print("per-path |bracket(tau_s) - min(s, total)| max:", moved.bracket_gap(),
      "<= one cell:", moved.max_cell_mass())

# --- the transported-integral identity across a refinement ladder -------------
print("\ncells -> max_cell_mass, transported-integral gap")
for k in (32, 64, 128):
    g = TimeGrid.uniform(1.0, k)
    mod = (0.6 + 0.8 * g.left**2)[:, None, None]
    spec = NoiseSpec(2, 2, mod * np.array([[1.0, 0.4], [0.0, 0.8]]))
    e = simulate(spec, g, 100, seed=5)
    t = build_time_change(qv_exact(spec, g))
    rep = dds_integral_check(IntegrandProcess.constant(g, np.array([[1.0, -0.5]])), e, t)
    print(f"  {k:>4}: {rep.max_cell_mass:.5f}, {rep.max_gap:.5f}")
