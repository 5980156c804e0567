"""Gaussian-series norms of kernel operators L2(J, mu; H) -> R^m.

A kernel is a per-cell matrix family against a weight measure.  Its norms
read one m x m covariance C = sum_k mu_k K_k K_k^T, the law of its Gaussian
series: in Euclidean flavor the norm is sqrt(tr C), exact; for p-norm
targets it is the root mean square target norm of v = z C^{1/2}, z standard
Gaussian, by Monte Carlo.  The ideal property, the prefix-integral bound and
the Fubini-style index-space swap are provided as slack/ratio checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import flavor_norm, flavor_p, is_hilbert, require_int, single_rng
from .measures import GridMeasure, TimeGrid
from .operators import psd_sqrt

__all__ = [
    "GammaKernel",
    "GammaEstimate",
    "gamma_norm_exact_hilbert",
    "gamma_norm_mc",
    "gamma_norm",
    "kernel_operator_norm",
    "IdealReport",
    "ideal_check",
    "PrimitiveBoundReport",
    "primitive_gamma_bound_check",
    "FubiniReport",
    "gamma_fubini_check",
]


@dataclass(frozen=True)
class GammaKernel:
    """Kernel matrices (K, m, d), one per cell of the weight measure's grid."""

    measure: GridMeasure
    matrices: np.ndarray
    flavor: object = "hilbert"

    def __post_init__(self):
        flavor_p(self.flavor)
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[0] != self.grid.n_cells:
            raise ValueError(f"kernel shape {mats.shape} does not fit the grid")
        if not np.isfinite(mats).all():
            raise ValueError("kernel matrices are not all finite")
        object.__setattr__(self, "matrices", mats)

    @property
    def grid(self) -> TimeGrid:
        return self.measure.grid

    @property
    def target_dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def input_dim(self) -> int:
        return self.matrices.shape[2]

    def covariance(self) -> np.ndarray:
        """C = s s^T = sum_k mu_k K_k K_k^T, shape (m, m), with s the (m, K d)
        stack of the matrices scaled by sqrt(cell mass)."""
        s = self.matrices * np.sqrt(self.measure.increments)[:, None, None]
        s = s.transpose(1, 0, 2).reshape(self.target_dim, -1)
        return s @ s.T


def gamma_norm_exact_hilbert(kernel: GammaKernel) -> float:
    """sqrt(tr C), the weighted Hilbert-Schmidt norm; Euclidean flavor only."""
    if not is_hilbert(kernel.flavor):
        raise ValueError("exact evaluation requires the Euclidean flavor")
    return float(np.sqrt(np.trace(kernel.covariance())))


@dataclass(frozen=True)
class GammaEstimate:
    value: float
    stderr: float


def _root_mean(sq: np.ndarray) -> tuple[float, float]:
    """Root of the sample mean of ``sq`` and its delta-method standard error."""
    value = float(np.sqrt(float(np.mean(sq))))
    se_sq = float(np.std(sq, ddof=1) / np.sqrt(sq.size))
    return value, (se_sq / (2 * value) if value > 0 else 0.0)


def gamma_norm_mc(kernel: GammaKernel, n_samples: int, seed: int) -> GammaEstimate:
    """Monte-Carlo Gaussian-series estimate of the kernel norm.

    Each replica is v = z C^{1/2}, z standard Gaussian in R^m, so kernels of
    one covariance give one estimate: the root of the mean square target norm
    with a delta-method standard error, so it takes at least two samples.  A
    zero covariance gives exactly zero.
    """
    n_samples = require_int(n_samples, 2, "n_samples")
    rng = single_rng(seed, stream=7)
    v = rng.standard_normal((n_samples, kernel.target_dim)) @ psd_sqrt(kernel.covariance())
    value, stderr = _root_mean(flavor_norm(v, kernel.flavor) ** 2)
    return GammaEstimate(value, stderr)


def gamma_norm(kernel: GammaKernel, n_samples: int = 4096, seed: int = 0) -> GammaEstimate:
    """Exact where available (Euclidean), Monte Carlo otherwise; the sample
    count and the seed are checked for either."""
    require_int(n_samples, 2, "n_samples")
    require_int(seed, 0, "seed")
    if is_hilbert(kernel.flavor):
        return GammaEstimate(gamma_norm_exact_hilbert(kernel), 0.0)
    return gamma_norm_mc(kernel, n_samples, seed)


def kernel_operator_norm(kernel: GammaKernel) -> float:
    """Operator norm of the discretized kernel, sqrt(largest eigenvalue of C).

    Always a lower bound for the Gaussian-series norm.
    """
    return float(np.sqrt(np.linalg.eigvalsh(kernel.covariance())[-1]))


@dataclass(frozen=True)
class IdealReport:
    lhs: GammaEstimate
    rhs: float
    rhs_stderr: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs.value

    @property
    def passed(self) -> bool:
        tol = 3.0 * (self.lhs.stderr + self.rhs_stderr) + 1e-12 * (1 + abs(self.rhs))
        return self.slack >= -tol


def _target_norm(t_mat: np.ndarray, flavor) -> float:
    """The norm bound for T in ``ideal_check``: spectral for a Hilbert
    flavor, else the Schur test on the absolute column and row sums."""
    if is_hilbert(flavor):
        return float(np.linalg.svd(t_mat, compute_uv=False)[0])
    p = flavor_p(flavor)
    col, row = (float(np.abs(t_mat).sum(axis=ax).max()) for ax in (0, 1))
    return col ** (1.0 / p) * row ** (1.0 - 1.0 / p)


def ideal_check(
    t_mat: np.ndarray,
    kernel: GammaKernel,
    s_mat: np.ndarray,
    n_samples: int = 4096,
    seed: int = 0,
) -> IdealReport:
    """Two-sided sandwich bound ||T R S|| <= ||T|| ||R|| ||S||.

    ``t_mat`` post-composes in the target, ``s_mat`` pre-composes on the input
    coordinates.  S acts on the Hilbert input and enters through its spectral
    norm; T enters through a bound on its norm on the target: the spectral
    norm for a Hilbert flavor, and for an l^p target the Schur test
    ||T||_{p->p} <= ||T||_1^{1/p} ||T||_inf^{1-1/p}, with ||T||_1 and
    ||T||_inf the largest column and row sums of |T|, exact at p = 1 and
    p = inf.  The spectral norm would not do there: a rotation by 45 degrees
    has spectral norm 1 but l^4 norm 2^(1/4).
    """
    t_mat = np.atleast_2d(np.asarray(t_mat, dtype=float))
    s_mat = np.atleast_2d(np.asarray(s_mat, dtype=float))
    new_mats = np.einsum("qm,kmd,dg->kqg", t_mat, kernel.matrices, s_mat)
    new_kernel = GammaKernel(kernel.measure, new_mats, kernel.flavor)
    base = gamma_norm(kernel, n_samples, seed)
    lhs = gamma_norm(new_kernel, n_samples, seed + 1)
    t_norm = _target_norm(t_mat, kernel.flavor) if t_mat.size else 0.0
    s_norm = float(np.linalg.svd(s_mat, compute_uv=False)[0]) if s_mat.size else 0.0
    rhs = t_norm * base.value * s_norm
    return IdealReport(lhs=lhs, rhs=rhs, rhs_stderr=t_norm * s_norm * base.stderr)


@dataclass(frozen=True)
class PrimitiveBoundReport:
    lhs: GammaEstimate
    rhs: float

    @property
    def passed(self) -> bool:
        tol = 3.0 * self.lhs.stderr + 1e-9 * (1 + abs(self.rhs))
        return self.lhs.value <= self.rhs + tol


def _dual_ball_sample(m: int, flavor, n: int, seed: int, hint: np.ndarray | None) -> np.ndarray:
    """Unit vectors of the dual ball: coordinates, random points, and a hint."""
    rng = single_rng(seed, stream=11)
    pts = [np.eye(m), -np.eye(m), rng.standard_normal((n, m))]
    if hint is not None:
        pts.append(np.atleast_2d(hint))
    pts = np.concatenate(pts, axis=0)
    p = flavor_p(flavor)
    q = np.inf if p == 1 else 1.0 if p == np.inf else p / (p - 1.0)
    norms = flavor_norm(pts, q, axis=1)
    norms[norms == 0] = 1.0
    return pts / norms[:, None]


def primitive_gamma_bound_check(
    psi: np.ndarray,
    mu: GridMeasure,
    flavor="hilbert",
    n_samples: int = 4096,
    seed: int = 0,
) -> PrimitiveBoundReport:
    """Bound for the running integral of psi, measured against mu.

    Left side: the Gaussian-series norm of t -> int_0^t psi (a rank-one
    kernel) against mu.  Right side: the best dual-pairing energy of psi in
    L2 of time, times the square root of int t dmu (right-endpoint sums);
    the dual pairing is maximized over 256 random unit vectors and a hint.
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    grid = mu.grid
    if psi.shape[0] != grid.n_cells:
        raise ValueError("psi must supply one value per cell")
    prefix = np.cumsum(psi * grid.widths[:, None], axis=0)  # value at right endpoints
    kernel = GammaKernel(mu, prefix[:, :, None], flavor)
    lhs = gamma_norm(kernel, n_samples, seed)

    weighted = psi * np.sqrt(grid.widths)[:, None]  # (K, m)
    # the Euclidean maximizer seeds the dual sample for p-norm flavors too
    _, _, vt = np.linalg.svd(weighted, full_matrices=False)
    hint = vt[0]
    duals = _dual_ball_sample(psi.shape[1], flavor, 256, seed, hint)
    energies = np.linalg.norm(weighted @ duals.T, axis=0)
    c_psi = float(energies.max())
    t_weight = float(grid.right @ mu.increments)
    rhs = c_psi * np.sqrt(t_weight)
    return PrimitiveBoundReport(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class FubiniReport:
    lhs: float
    rhs: GammaEstimate

    @property
    def ratio(self) -> float:
        return self.rhs.value / self.lhs if self.lhs > 0 else np.nan


def gamma_fubini_check(kernel: GammaKernel, n_samples: int = 4096, seed: int = 0) -> FubiniReport:
    """Swap of the index space and the Gaussian-series norm.

    Left: the p-norm over target rows of each row's own (scalar-target,
    hence exact) kernel norm.  Right: the Monte-Carlo norm of the full kernel
    into the p-target.  The two are equivalent up to a p-dependent constant
    (equal for p = 2 and for a single row), which the caller records as an
    empirical bracket.
    """
    p = flavor_p(kernel.flavor)
    row_sq = np.diag(kernel.covariance())
    if p == np.inf:
        lhs = float(np.sqrt(row_sq.max()))
    else:
        lhs = float(np.sum(row_sq ** (p / 2.0)) ** (1.0 / p))
    rhs = gamma_norm(kernel, n_samples, seed)
    return FubiniReport(lhs=lhs, rhs=rhs)

