"""Mild solutions by blockwise fixed-point iteration.

du = (Au + F(t,u)) dt + G(t,u) dM with a symmetric negative-semidefinite
generator.  The solver iterates the variation-of-constants map over dyadic
blocks sized so the map contracts; diagnostics expose the measured
contraction, which scales like the square root of the block length.  A
problem carries no driver and no grid: each solver call reads both from the
ensemble it is given.
"""

import numpy as np

from cylmart import NoiseSpec, SEEProblem, TimeGrid, mild_residual, picard_solve, simulate, vp_norm
from cylmart.evolution import lipschitz_quotient

wiener = NoiseSpec(1, 1, np.eye(1))
grid = TimeGrid.uniform(1.0, 256)

# --- mean-reverting additive noise --------------------------------------------
ou = SEEProblem(
    generator=np.array([[-1.0]]),
    drift=lambda t, x: np.zeros_like(x),
    lip_drift=0.0,
    growth_drift=0.0,
    noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
    lip_noise=0.0,
    u0=np.array([0.0]),
)
ens = simulate(wiener, grid, n_paths=20_000, seed=1)
u, diag = picard_solve(ou, ens, tol=1e-10)
var = u[:, -1, 0].var(ddof=1)
print(f"terminal variance {var:.4f} vs (1 - e^-2)/2 = {(1 - np.exp(-2)) / 2:.4f}")
print("fixed-point certificate: mild residual max =", mild_residual(u, ou, ens).max)
print("V-norm of the solution:", vp_norm(u, ens))

# --- a nonlinear problem and its diagnostics ------------------------------------
nonlinear = SEEProblem(
    generator=np.array([[-0.5]]),
    drift=lambda t, x: -np.tanh(x),
    lip_drift=1.0,
    growth_drift=1.0,
    noise_map=lambda t, x: 0.5 * x[:, :, None],
    lip_noise=0.5,
    u0=np.array([1.0]),
)
u2, diag2 = picard_solve(nonlinear, ens, tol=1e-9)
print("\nblocks:", diag2.blocks)
print("iterations per block:", [len(d) for d in diag2.distances])
print("measured contraction per block:",
      ["%.3f" % c if np.isfinite(c) else "n/a" for c in diag2.contractions])

# --- contraction scales like sqrt(block length) ----------------------------------
mult = SEEProblem(
    generator=None,
    drift=lambda t, x: np.zeros_like(x),
    lip_drift=0.0,
    growth_drift=0.0,
    noise_map=lambda t, x: x[:, :, None],
    lip_noise=1.0,
    u0=np.array([1.0]),
)
probe = simulate(wiener, grid, n_paths=2000, seed=2)
print("\nblock length -> measured Lipschitz quotient of the mild map")
for frac in (1, 2, 4, 8):
    i1 = 256 // frac
    c = lipschitz_quotient(
        mult, probe, np.zeros((2000, 257, 1)), np.ones((2000, 257, 1)), i0=0, i1=i1
    )
    print(f"  {grid.points[i1]:.3f} -> {c:.4f}")
