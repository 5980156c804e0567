"""Stochastic integrals against simulated cylindrical martingale truncations.

Integrals are accumulated through the driver (phi sigma dW per cell, left
endpoints) rather than by differencing evaluations of M, which keeps them
free of realized-variation bias.  Brackets of integrals, covariation
operators, the bilinear Cauchy-Schwarz check, optional stopping and the local
property live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import prefix_sums
from .martingales import (
    MartEnsemble,
    NoiseSpec,
    OperatorProcess,
    grid_stop_indices,
    operator_rate,
    stop_ensemble,
)
from .measures import GridMeasure, TimeGrid

__all__ = [
    "IntegrandProcess",
    "IntegralPaths",
    "ElementaryPiece",
    "ElementaryIntegrand",
    "elementary_integral",
    "integrand_increments",
    "integrate",
    "bracket_of_integral",
    "realized_bracket",
    "covariation_operator",
    "covariation_norm_increments",
    "kunita_watanabe_check",
    "first_passage_time",
    "stop_integral",
    "StoppedIntegral",
    "local_property_check",
    "CheckReport",
]


@dataclass(frozen=True)
class IntegrandProcess:
    """Operator-valued integrand at cell left endpoints.

    ``matrices`` is (K, m, d_cyl) for deterministic integrands or
    (n_paths, K, m, d_cyl) per path; adapted integrands must only read
    information strictly before their cell.
    """

    grid: TimeGrid
    matrices: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim not in (3, 4) or m.shape[-3] != self.grid.n_cells:
            raise ValueError(f"integrand shape {m.shape} does not fit the grid")
        if not np.isfinite(m).all():
            raise ValueError("integrand matrices are not all finite")
        object.__setattr__(self, "matrices", m)

    @property
    def target_dim(self) -> int:
        return self.matrices.shape[-2]

    @classmethod
    def constant(cls, grid: TimeGrid, matrix: np.ndarray) -> "IntegrandProcess":
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        return cls(grid, np.broadcast_to(matrix, (grid.n_cells,) + matrix.shape).copy())

    def for_paths(self, n: int) -> np.ndarray:
        """(n, K, m, d_cyl) matrices for an n-path ensemble: a deterministic
        integrand as a read-only broadcast view, a per-path one as stored."""
        if self.matrices.ndim == 3:
            return np.broadcast_to(self.matrices, (n,) + self.matrices.shape)
        if self.matrices.shape[0] != n:
            raise ValueError("per-path integrand does not match path count")
        return self.matrices


@dataclass(frozen=True)
class IntegralPaths:
    """Vector-valued integral paths zeta(t_j), zeta(0) = 0."""

    grid: TimeGrid
    values: np.ndarray  # (n, K+1, m)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1] != self.grid.n_cells + 1:
            raise ValueError(f"path array shape {v.shape} does not fit the grid")
        object.__setattr__(self, "values", v)

    def terminal(self) -> np.ndarray:
        return self.values[:, -1, :]


def integrand_increments(
    phi: IntegrandProcess, ens: MartEnsemble, at: tuple = np.s_[:, :]
) -> np.ndarray:
    """phi(t_i) dM_i per path and cell, shape (n, K, m), from the ensemble's
    increments sigma(t_i) dW_i.  ``at`` slices the path and cell axes, so
    that a block of paths or cells is contracted without the rest."""
    if phi.grid != ens.grid:
        raise ValueError("integrand and ensemble grids differ")
    # single contraction spelling; see martingales._driven for why
    return np.einsum(
        "nkmc,nkc->nkm", phi.for_paths(ens.n_paths)[at], ens.driven_increments()[at]
    )


def integrate(phi: IntegrandProcess, ens: MartEnsemble) -> IntegralPaths:
    """Left-point integral: zeta(t_j) = sum_{i<j} phi(t_i) sigma(t_i) dW_{i+1}."""
    inc = integrand_increments(phi, ens)
    return IntegralPaths(ens.grid, prefix_sums(inc, axis=1))


def _event_mask(mask, n_paths: int) -> np.ndarray:
    """``mask`` as n_paths bools, one per path."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_paths,):
        raise ValueError(f"event mask needs one entry per path, {n_paths} in all")
    return mask


@dataclass(frozen=True)
class ElementaryPiece:
    """One time slab (t_{i0}, t_{i1}] with an event mask and rank-one terms."""

    i0: int
    i1: int
    terms: tuple  # ((h, x), ...)
    mask: np.ndarray | None = None  # per-path bools; None = all paths


@dataclass(frozen=True)
class ElementaryIntegrand:
    """Normal form of a simple integrand: slabs x events x sum of h (x) x.

    The h vectors used within a slab must be pairwise orthogonal.
    """

    grid: TimeGrid
    pieces: tuple

    def __post_init__(self):
        for piece in self.pieces:
            if not 0 <= piece.i0 < piece.i1 <= self.grid.n_cells:
                raise ValueError(f"slab ({piece.i0}, {piece.i1}] is out of range")
            hs = [np.asarray(h, dtype=float) for h, _ in piece.terms]
            for a in range(len(hs)):
                for b in range(a + 1, len(hs)):
                    denom = np.linalg.norm(hs[a]) * np.linalg.norm(hs[b])
                    if denom > 0 and abs(hs[a] @ hs[b]) > 1e-10 * denom:
                        raise ValueError("h vectors within a slab must be orthogonal")

    def target_dim(self) -> int:
        for piece in self.pieces:
            for _, x in piece.terms:
                return np.asarray(x).size
        return 1

    def as_process(self, n_paths: int) -> IntegrandProcess:
        """Materialize the per-cell (per-path if events are used) matrices."""
        k = self.grid.n_cells
        m = self.target_dim()
        d = None
        for piece in self.pieces:
            for h, _ in piece.terms:
                d = np.asarray(h).size
        per_path = any(p.mask is not None for p in self.pieces)
        shape = (n_paths, k, m, d) if per_path else (k, m, d)
        mats = np.zeros(shape)
        for piece in self.pieces:
            block = sum(
                np.outer(np.asarray(x, dtype=float), np.asarray(h, dtype=float))
                for h, x in piece.terms
            )
            if per_path:
                sel = np.ones(n_paths, bool) if piece.mask is None else piece.mask
                mats[_event_mask(sel, n_paths), piece.i0 : piece.i1] += block
            else:
                mats[piece.i0 : piece.i1] += block
        return IntegrandProcess(self.grid, mats)


def elementary_integral(elem: ElementaryIntegrand, ens: MartEnsemble) -> IntegralPaths:
    """Evaluate a simple integrand from differences of M-evaluations.

    This is the defining formula: per slab and event, each rank-one term
    contributes (M(t_{i1} ^ t) h - M(t_{i0} ^ t) h) x.  It serves as the
    independent reference for :func:`integrate` on simple integrands.
    """
    if elem.grid != ens.grid:
        raise ValueError("integrand and ensemble grids differ")
    k = ens.grid.n_cells
    m = elem.target_dim()
    out = np.zeros((ens.n_paths, k + 1, m))
    idx = np.arange(k + 1)
    for piece in elem.pieces:
        lo = np.minimum(idx, piece.i0)
        hi = np.minimum(idx, piece.i1)
        sel = np.ones(ens.n_paths, bool) if piece.mask is None else piece.mask
        sel = _event_mask(sel, ens.n_paths)
        for h, x in piece.terms:
            evals = ens.m_eval(np.asarray(h, dtype=float))  # (n, K+1)
            contrib = evals[:, hi] - evals[:, lo]
            out[sel] += contrib[sel, :, None] * np.asarray(x, dtype=float)
    return IntegralPaths(ens.grid, out)


def bracket_of_integral(
    phi_row: np.ndarray, spec: NoiseSpec, grid: TimeGrid
) -> GridMeasure:
    """Exact bracket of the scalar integral of a row integrand.

    Increment = phi sigma Q sigma^T phi^T dt, i.e. the normalized operator
    density paired with the bracket measure of the truncation.
    """
    phi_row = np.asarray(phi_row, dtype=float)
    if phi_row.ndim == 1:
        phi_row = np.broadcast_to(phi_row, (grid.n_cells, phi_row.size))
    sig = spec.sigma_on_grid(grid)
    q = spec.q()
    rows = np.einsum("kc,kcd->kd", phi_row, sig)
    vals = np.einsum("kd,de,ke->k", rows, q, rows)
    return GridMeasure(grid, vals * grid.widths)


def realized_bracket(paths: IntegralPaths) -> np.ndarray:
    """Realized squared-increment estimate of a scalar integral's bracket.

    Noisy cross-check (relative error O(sqrt(dt)) per cell aggregate); the
    exact route is :func:`bracket_of_integral`.
    """
    if paths.values.shape[-1] != 1:
        raise ValueError("realized bracket applies to scalar integrals")
    inc = np.diff(paths.values[:, :, 0], axis=1)
    return inc**2


def covariation_operator(
    spec1: NoiseSpec, spec2: NoiseSpec, grid: TimeGrid
) -> OperatorProcess:
    """Cumulative covariation operator of two truncations on a shared driver.

    Entry (y, x) at t_j is sum_{i<j} (sigma_2 Q sigma_1^T)[y, x] dt; for
    spec1 == spec2 this is the operator bracket.
    """
    if spec1.d_drive != spec2.d_drive:
        raise ValueError("specs must share one driver")
    q1, q2 = spec1.q(), spec2.q()
    if not np.array_equal(q1, q2):
        raise ValueError("shared driver requires equal covariances")
    rate = operator_rate(spec2.sigma_on_grid(grid), q1, spec1.sigma_on_grid(grid))
    return OperatorProcess(grid, prefix_sums(rate * grid.widths[:, None, None]))


def covariation_norm_increments(
    spec1: NoiseSpec, spec2: NoiseSpec, grid: TimeGrid
) -> np.ndarray:
    """Per-cell increments of the scalar covariation ||dA_{12}|| (matrix 2-norm)."""
    rate = operator_rate(spec2.sigma_on_grid(grid), spec1.q(), spec1.sigma_on_grid(grid))
    norms = np.linalg.svd(rate, compute_uv=False)[..., 0]
    return norms * grid.widths


@dataclass(frozen=True)
class CheckReport:
    """Slack-style verdict: passes when the worst slack is within tolerance."""

    worst_slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_slack >= -self.tolerance


def kunita_watanabe_check(
    f: np.ndarray,
    g: np.ndarray,
    spec1: NoiseSpec,
    spec2: NoiseSpec,
    grid: TimeGrid,
) -> CheckReport:
    """Bilinear Cauchy-Schwarz for covariation integrals.

    Evaluates |int <dA_{12} f, g>|^2 against the product of the two bracket
    integrals for per-path (or deterministic) grid functions ``f`` (..., K,
    d1) and ``g`` (..., K, d2), and reports the worst slack.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.ndim == 2:
        f = f[None]
    if g.ndim == 2:
        g = g[None]
    s1 = spec1.sigma_on_grid(grid)
    s2 = spec2.sigma_on_grid(grid)
    q = spec1.q()
    if not np.array_equal(q, spec2.q()):
        raise ValueError("shared driver requires equal covariances")
    dt = grid.widths
    u = np.einsum("kcd,nkc->nkd", s1, f)  # sigma_1^T f
    v = np.einsum("kcd,nkc->nkd", s2, g)
    lhs = np.einsum("nkd,de,nke,k->n", u, q, v, dt) ** 2
    r1 = np.einsum("nkd,de,nke,k->n", u, q, u, dt)
    r2 = np.einsum("nkd,de,nke,k->n", v, q, v, dt)
    slack = r1 * r2 - lhs
    scale = max(float(np.max(r1 * r2)), 1e-300)
    worst = float(np.min(slack))
    return CheckReport(worst_slack=worst / scale, tolerance=1e-9)


def first_passage_time(ens: MartEnsemble, level: float) -> np.ndarray:
    """First grid index where the per-path bracket exceeds ``level``; rounds
    up to the next grid point, K if never reached."""
    prefix = ens.bracket.prefix()
    hit = prefix > level
    idx = np.argmax(hit, axis=1)
    idx[~hit.any(axis=1)] = ens.grid.n_cells
    return idx


@dataclass(frozen=True)
class StoppedIntegral:
    """The three equal forms of a stopped integral."""

    stopped_path: IntegralPaths
    indicator_integrand: IntegralPaths
    stopped_driver: IntegralPaths

    def bit_identical(self) -> bool:
        return np.array_equal(
            self.stopped_path.values, self.indicator_integrand.values
        ) and np.array_equal(self.stopped_path.values, self.stopped_driver.values)


def stop_integral(
    phi: IntegrandProcess, ens: MartEnsemble, tau_idx: np.ndarray
) -> StoppedIntegral:
    """Optional stopping along grid stopping times, three ways.

    tau_idx holds per-path grid-point indices.  The stopped integral path,
    the integral of the indicator-cut integrand, and the integral against the
    frozen ensemble agree bit-exactly because all three accumulate the same
    per-cell products, zeroed beyond the stop.
    """
    k = ens.grid.n_cells
    tau_idx = grid_stop_indices(tau_idx, ens.n_paths, k)

    full = integrate(phi, ens)
    clamp = np.minimum(np.arange(k + 1)[None, :], tau_idx[:, None])
    stopped_path = IntegralPaths(
        ens.grid, np.take_along_axis(full.values, clamp[:, :, None], axis=1)
    )

    keep = np.arange(k)[None, :] < tau_idx[:, None]
    cut = phi.for_paths(ens.n_paths) * keep[:, :, None, None]
    indicator = integrate(IntegrandProcess(ens.grid, cut), ens)

    frozen = integrate(phi, stop_ensemble(ens, tau_idx))
    return StoppedIntegral(stopped_path, indicator, frozen)


def local_property_check(
    phi: IntegrandProcess, ens: MartEnsemble, event_mask: np.ndarray
) -> CheckReport:
    """On paths where the integrand vanishes identically, so does the integral.

    ``event_mask`` selects the paths on which phi is claimed to vanish; the
    check first verifies the claim, then asserts the integral is exactly zero
    there.
    """
    event_mask = _event_mask(event_mask, ens.n_paths)
    if np.any(phi.for_paths(ens.n_paths)[event_mask]):
        raise ValueError("integrand does not vanish on the given event")
    zeta = integrate(phi, ens)
    worst = float(np.abs(zeta.values[event_mask]).max()) if event_mask.any() else 0.0
    return CheckReport(worst_slack=-worst, tolerance=0.0)
