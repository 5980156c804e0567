"""Stochastic integrals: isometry, brackets, covariation, optional stopping.

Integrals accumulate phi sigma dW at cell left endpoints.  The second-moment
identity holds exactly in expectation over paths; brackets of scalar
integrals have closed forms; stopping a grid time commutes with integration
three ways, bit for bit.
"""

import numpy as np

from cylmart import (
    IntegrandProcess,
    NoiseSpec,
    TimeGrid,
    bracket_of_integral,
    covariation_operator,
    first_passage_time,
    integrate,
    ito_isometry,
    kunita_watanabe_check,
    simulate,
    stop_integral,
)

rng = np.random.default_rng(0)
grid = TimeGrid.uniform(1.0, 32)
spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
ens = simulate(spec, grid, n_paths=20_000, seed=7)

# --- isometry -----------------------------------------------------------------
phi = IntegrandProcess.constant(grid, rng.standard_normal((2, 3)))
iso = ito_isometry(phi, ens)
print(f"E||zeta(T)||^2 = {iso.lhs:.4f} vs kernel energy {iso.rhs:.4f} (z = {iso.z:+.2f})")

# --- scalar bracket -------------------------------------------------------------
row = rng.standard_normal(3)
br = bracket_of_integral(row, spec, grid)
zeta = integrate(IntegrandProcess.constant(grid, row[None, :]), ens)
realized = np.diff(zeta.values[:, :, 0], axis=1) ** 2
print(f"bracket total {br.total_mass:.4f}; realized-variation mean "
      f"{realized.sum(axis=1).mean():.4f}")

# --- covariation of two truncations on a shared driver ---------------------------
other = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
cov = covariation_operator(spec, other, grid)
print("covariation operator at T:\n", np.round(cov.matrices[-1], 3))
kw = kunita_watanabe_check(
    rng.standard_normal((32, 3)), rng.standard_normal((32, 3)), spec, other, grid
)
print("bilinear Cauchy-Schwarz slack (scaled):", f"{kw.worst_slack:.3e}")

# --- optional stopping, three ways ------------------------------------------------
tau = first_passage_time(ens, level=0.5 * ens.bracket.prefix()[0, -1])
stopped = stop_integral(phi, ens, tau)
print("stopped path == cut integrand == frozen driver:", stopped.bit_identical)
