"""Gaussian-series norms of kernels: exact, sampled, and their inequalities.

Every norm reads the kernel's covariance C = sum_k mu_k K_k K_k^T: Euclidean
targets give sqrt(tr C) exactly; p-norm targets are estimated by sampling
v = z C^{1/2} with z standard Gaussian.
The sandwich (ideal) property, the running-integral bound and the index-swap
ratio are checked as slack reports.
"""

import numpy as np

from cylmart import (
    GammaKernel,
    GridMeasure,
    TimeGrid,
    gamma_fubini_check,
    gamma_norm_exact_hilbert,
    gamma_norm_mc,
    ideal_check,
    primitive_gamma_bound_check,
)

rng = np.random.default_rng(0)
grid = TimeGrid.uniform(1.0, 16)
measure = GridMeasure(grid, rng.uniform(0.0, 1.0, 16))

# --- exact vs Monte Carlo ------------------------------------------------------
kernel = GammaKernel(measure, rng.standard_normal((16, 3, 2)))
exact = gamma_norm_exact_hilbert(kernel)
est = gamma_norm_mc(kernel, n_samples=8192, seed=1)
print(f"exact {exact:.4f} vs MC {est.value:.4f} +- {est.stderr:.4f}")

# --- p-norm flavors --------------------------------------------------------------
for p in (1, 4):
    kp = GammaKernel(measure, kernel.matrices, flavor=p)
    ep = gamma_norm_mc(kp, n_samples=8192, seed=2)
    print(f"l{p} target: {ep.value:.4f} +- {ep.stderr:.4f}")

# --- sandwich bound by contractions ----------------------------------------------
t_mat = rng.standard_normal((2, 3))
t_mat /= np.linalg.svd(t_mat, compute_uv=False)[0]
s_mat = rng.standard_normal((2, 2))
s_mat /= np.linalg.svd(s_mat, compute_uv=False)[0]
rep = ideal_check(t_mat, kernel, s_mat)
print(f"||T R S|| = {rep.lhs.value:.4f} <= ||T|| ||R|| ||S|| = {rep.rhs:.4f}")
rep4 = ideal_check(t_mat, GammaKernel(measure, kernel.matrices, flavor=4), s_mat,
                   n_samples=8192, seed=4)
print(f"l4 target: {rep4.lhs.value:.4f} <= {rep4.rhs:.4f} (passed: {rep4.passed})")

# --- running-integral bound --------------------------------------------------------
psi = rng.standard_normal((16, 2))
bound = primitive_gamma_bound_check(psi, measure)
print(f"prefix-kernel norm {bound.lhs.value:.4f} <= bound {bound.rhs:.4f}")
bound4 = primitive_gamma_bound_check(psi, measure, flavor=4, n_samples=8192, seed=5)
print(f"l4 target: {bound4.lhs.value:.4f} <= {bound4.rhs:.4f} (passed: {bound4.passed})")

# --- index-space swap ----------------------------------------------------------------
for p in (2, 4):
    kp = GammaKernel(measure, rng.standard_normal((16, 4, 3)), flavor=p)
    fub = gamma_fubini_check(kp, n_samples=8192, seed=3)
    print(f"p={p}: swap ratio {fub.ratio:.4f}")
