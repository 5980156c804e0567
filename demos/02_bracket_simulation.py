"""Simulated truncations and their brackets.

The bracket of M = int sigma dW has the closed form ||sigma Q sigma^T|| dt.
A partition-supremum estimator over a unit-sphere panel recovers it from
below: coarse partitions underestimate whenever different directions carry
the mass at different times, and refinement closes the gap.  The classical
divergence family shows the bracket blowing up linearly in the truncation
order while every fixed direction stays bounded.
"""

import numpy as np

from cylmart import (
    NoiseSpec,
    TimeGrid,
    countex_spec,
    qv_exact,
    qv_partition_estimate,
    simulate,
)

# --- exact brackets ----------------------------------------------------------
grid = TimeGrid.uniform(1.0, 64)
wiener = NoiseSpec(d_cyl=2, d_drive=2, sigma=np.eye(2))
print("unit driver: bracket(T) =", qv_exact(wiener, grid).total_mass)

# --- partition estimates need refinement when the active direction moves ----
sig = np.zeros((64, 2, 2))
sig[:32, 0, 0] = 1.0  # first half drives e1
sig[32:, 1, 1] = 1.0  # second half drives e2
switching = NoiseSpec(2, 2, sig)
ens = simulate(switching, grid, n_paths=8, seed=1)
est = qv_partition_estimate(ens, sphere_samples=32, depth_schedule=[0, 1, 2, 3, 4])
print("estimate vs depth:", est.terminal()[0], "| exact:", qv_exact(switching, grid).total_mass)

# --- adapted volatility gives per-path brackets -------------------------------
def vol(t, w):  # w = W(t_i), the driver before each cell
    return (0.6 + 0.4 * np.sin(3 * w[..., 0]) ** 2)[..., None, None]

adapted = simulate(NoiseSpec(1, 1, vol), grid, n_paths=4, seed=2)
print("per-path terminal brackets:", adapted.bracket.prefix()[:, -1])

# --- the divergence family ----------------------------------------------------
print("\ntruncation order n -> bracket(1), worst direction bracket")
for n in (4, 8, 16, 32):
    spec, g = countex_spec(n)
    total = qv_exact(spec, g).total_mass
    e = simulate(spec, g, 1, seed=3)
    per_dir = e.direction_bracket_increments(np.eye(n)).sum(axis=-1).max()
    print(f"  n={n:>2}: {total:>5.1f}, {per_dir:.6f}")
