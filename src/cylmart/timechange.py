"""Right-continuous inverses of the bracket and the induced substitutions.

The change of clock tau_s = inf{t : bracket(t) > s} turns a truncation into
one whose bracket grows at unit rate.  On the grid, tau maps an s-axis onto
grid points; transported quantities are right-constant between transported
knots.  Two s-axis discretizations are used:

* the exact mass breakpoints (prefix sums), for substitution identities that
  hold to round-off;
* a uniform s-grid with the source cell count, for transport experiments
  whose one-cell error is the object of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import prefix_sums
from .gammanorm import GammaKernel, gamma_norm
from .integration import CheckReport, IntegrandProcess, integrate
from .martingales import BracketPaths, MartEnsemble
from .measures import GridMeasure, TimeGrid

__all__ = [
    "TimeChange",
    "build_time_change",
    "TimeChangedEnsemble",
    "apply_time_change",
    "substitute",
    "DdsReport",
    "dds_integral_check",
    "gamma_timechange_check",
    "TransportPair",
    "plateau_constancy_check",
]

SNAP_RTOL = 1e-12
PLATEAU_RTOL = 1e-14


def _last_at_or_below(sorted_vals: np.ndarray, queries, scale: float, hi: int) -> np.ndarray:
    """Index of the last entry of ``sorted_vals`` at or below each query,
    clipped to [0, hi].

    Queries are snapped up by SNAP_RTOL * max(scale, 1), so that exactly
    aligned breakpoints resolve to the exact inverse; ties resolve to the
    last entry, which is the discrete form of right-continuity.
    """
    snap = SNAP_RTOL * max(scale, 1.0)
    raw = np.searchsorted(sorted_vals, queries + snap, side="right")
    return np.clip(raw - 1, 0, hi)


def _prefix_rows(qv) -> tuple[TimeGrid, np.ndarray]:
    if isinstance(qv, GridMeasure):
        return qv.grid, qv.prefix()[None, :]
    if isinstance(qv, BracketPaths):
        return qv.grid, qv.prefix()
    raise TypeError(f"expected GridMeasure or BracketPaths, got {type(qv)!r}")


@dataclass(frozen=True)
class TimeChange:
    """Grid inverse of per-path bracket prefix sums.

    ``tau_idx[p, k]`` is the source grid-point index of tau at the k-th point
    of path p's uniform s-axis; ``infinite`` marks s at or above the total
    mass (tau = infinity there, transported values frozen at the horizon).
    """

    grid: TimeGrid
    prefix: np.ndarray  # (n, K+1)
    s_points: np.ndarray  # (n, K+1), uniform on [0, total mass]
    tau_idx: np.ndarray  # (n, K+1) ints

    @property
    def n_paths(self) -> int:
        return self.prefix.shape[0]

    @property
    def infinite(self) -> np.ndarray:
        """(n, K+1) bools, true where s is at or above the total mass: only
        there does tau reach the last grid point, as no prefix exceeds it."""
        return self.tau_idx == self.grid.n_cells

    def for_ensemble(self, ens: MartEnsemble) -> "TimeChange":
        """This clock for ``ens``, checked: it must live on the ensemble's grid
        and carry one path per ensemble path, or a single path, which every
        path then shares."""
        if self.grid != ens.grid:
            raise ValueError("time change and ensemble live on different grids")
        n = ens.n_paths
        if self.n_paths == n:
            return self
        if self.n_paths != 1:
            raise ValueError("time change and ensemble have incompatible path counts")
        arrays = (self.prefix, self.s_points, self.tau_idx)
        return TimeChange(self.grid, *(np.broadcast_to(a, (n, a.shape[1])) for a in arrays))

    @property
    def totals(self) -> np.ndarray:
        return self.prefix[:, -1]

    def tau_times(self) -> np.ndarray:
        """tau in time units; inf where the s-point exceeds the total mass."""
        out = self.grid.points[self.tau_idx]
        return np.where(self.infinite, np.inf, out)

    def to_pairs(self, path: int = 0) -> np.ndarray:
        """(s, tau_s) rows for serialization."""
        return np.column_stack([self.s_points[path], self.tau_times()[path]])


def build_time_change(qv) -> TimeChange:
    """Invert bracket prefix sums on a uniform s-axis per path.

    tau(s) is the last grid point whose prefix mass does not exceed s (up to a
    relative snap of 1e-12, so that exactly aligned breakpoints resolve to the
    exact inverse); plateaus therefore collapse to their right endpoint, which
    is the discrete form of right-continuity.
    """
    grid, prefix = _prefix_rows(qv)
    n, kp1 = prefix.shape
    totals = prefix[:, -1]
    s_points = np.linspace(np.zeros(n), totals, kp1, axis=1)
    tau_idx = np.empty((n, kp1), dtype=int)
    for p in range(n):
        tau_idx[p] = _last_at_or_below(prefix[p], s_points[p], totals[p], kp1 - 1)
    return TimeChange(grid, prefix, s_points, tau_idx)


@dataclass(frozen=True)
class TimeChangedEnsemble:
    """Evaluations and bracket of M composed with tau, on the s-axis."""

    tc: TimeChange
    values: np.ndarray  # (n, K+1, n_h): M_{tau_s} h
    bracket_values: np.ndarray  # (n, K+1): bracket at tau_s

    def bracket_gap(self) -> float:
        """Worst |bracket(tau_s) - min(s, total)| over paths and s-points."""
        target = np.minimum(self.tc.s_points, self.tc.totals[:, None])
        return float(np.abs(self.bracket_values - target).max())

    def max_cell_mass(self) -> float:
        return float(np.diff(self.tc.prefix, axis=1).max())


def apply_time_change(ens: MartEnsemble, tc: TimeChange) -> TimeChangedEnsemble:
    """Transport an ensemble through tau: N_s h = M_{tau_s} h per path.

    Beyond the total mass the transported paths are frozen at their terminal
    values.  The transported bracket satisfies bracket(s) = min(s, total)
    within one source-cell mass.
    """
    clock = tc.for_ensemble(ens)
    rows = np.arange(ens.n_paths)[:, None]
    values = ens.m_evals[rows, clock.tau_idx, :]
    bracket_values = clock.prefix[rows, clock.tau_idx]
    return TimeChangedEnsemble(tc, values, bracket_values)


def substitute(f_cells: np.ndarray, qv: GridMeasure) -> tuple[float, float]:
    """Both sides of the clock-change substitution for a cell function f.

    Left: integral of f against the bracket measure on the time axis.  Right:
    integral of f(tau(s)) ds over [0, total mass) using the exact mass
    breakpoints, where tau assigns each mass interval its source cell.  The
    two agree to round-off (exactly on zero-mass plateaus, which drop from
    both sides).
    """
    f_cells = np.asarray(f_cells, dtype=float)
    if f_cells.shape != (qv.grid.n_cells,):
        raise ValueError("f must supply one value per cell")
    lhs = float(f_cells @ qv.increments)
    widths_s = np.diff(qv.prefix())  # breakpoint s-cells, one per source cell
    rhs = float(f_cells @ widths_s)
    return lhs, rhs


@dataclass(frozen=True)
class DdsReport:
    """Pathwise gap between a source integral and its transported form."""

    gaps: np.ndarray  # (n,) sup-norm gap per path
    max_cell_mass: float

    @property
    def max_gap(self) -> float:
        return float(self.gaps.max())


def dds_integral_check(phi: IntegrandProcess, ens: MartEnsemble, tc: TimeChange) -> DdsReport:
    """Pathwise identity between int phi dM and its unit-clock transport.

    The transported side integrates phi(tau(s)) against N = M o tau on the
    uniform s-grid, evaluated back at the source times through the bracket;
    the report carries the per-path sup gap, which is bounded by a multiple
    of sqrt(max cell mass) and vanishes to round-off when the clocks align.
    """
    clock = tc.for_ensemble(ens)
    source = integrate(phi, ens).values  # (n, K+1, m)
    vec = ens.m_evals  # (n, K+1, dc)
    mats = phi.for_paths(ens.n_paths)
    k = ens.grid.n_cells
    gaps = np.empty(ens.n_paths)
    for p in range(ens.n_paths):
        prefix = clock.prefix[p]
        s_pts = clock.s_points[p]
        idx = clock.tau_idx[p]
        cells = np.minimum(idx[:-1], k - 1)  # source cell of each s-cell
        psi = mats[p][cells]  # (K, m, dc)
        dn = vec[p][idx[1:]] - vec[p][idx[:-1]]  # (K, dc)
        transported = prefix_sums(np.einsum("kmc,kc->km", psi, dn))
        back = _last_at_or_below(s_pts, prefix, prefix[-1], k)
        gaps[p] = np.abs(source[p] - transported[back]).max()
    max_mass = float(np.diff(tc.prefix, axis=1).max())
    return DdsReport(gaps=gaps, max_cell_mass=max_mass)


@dataclass(frozen=True)
class TransportPair:
    """gamma-norms of a kernel before and after the clock change."""

    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    rebin_bound: float

    def agree(self) -> bool:
        tol = self.rebin_bound + 3.0 * (self.lhs_stderr + self.rhs_stderr) + 1e-12 * (
            1.0 + abs(self.lhs)
        )
        return abs(self.lhs - self.rhs) <= tol


def gamma_timechange_check(kernel, n_samples: int = 4096, seed: int = 0) -> TransportPair:
    """Invariance of the gamma-norm under the clock change of the weight.

    The kernel's weight measure is replaced by the uniform s-grid of equal
    total mass, with cell values pulled back through tau.  Euclidean flavor
    compares weighted Hilbert-Schmidt sums exactly (up to the re-binning
    bound, the left-point error of a piecewise-constant integrand); p-norm
    flavors compare Monte-Carlo estimates.  A total mass too small for k
    positive clock cells (zero, or a few subnormals such as masses
    [0, 5e-324]) counts as zero mass: every field of the pair is 0.
    """
    if not isinstance(kernel, GammaKernel):
        raise TypeError("expected a GammaKernel")
    qv = kernel.measure
    k = kernel.grid.n_cells
    total = qv.total_mass
    s_pts = np.linspace(0.0, total, k + 1)
    if np.isfinite(total) and not np.all(np.diff(s_pts) > 0):
        # zero or subnormal mass; an overflowing total still fails in TimeGrid
        return TransportPair(0.0, 0.0, 0.0, 0.0, 0.0)
    # the clock of build_time_change, but against the pairwise total mass
    cells = _last_at_or_below(qv.prefix(), s_pts[:-1], total, k - 1)
    s_grid = TimeGrid(s_pts)
    transported = GammaKernel(
        measure=GridMeasure(s_grid, np.diff(s_pts)),
        matrices=kernel.matrices[cells],
        flavor=kernel.flavor,
    )
    hs_cells = np.sum(kernel.matrices**2, axis=(1, 2))
    support = qv.increments > 0
    hs_sup = hs_cells[support]
    tv = float(np.abs(np.diff(hs_sup)).sum()) + (float(hs_sup.max()) if hs_sup.size else 0.0)
    rebin = (total / k) * tv
    est_l = gamma_norm(kernel, n_samples, seed)
    est_r = gamma_norm(transported, n_samples, seed + 1)
    # the bound controls squared norms; convert through the larger root
    denom = max(est_l.value + est_r.value, 1e-300)
    return TransportPair(est_l.value, est_r.value, est_l.stderr, est_r.stderr, rebin / denom)


def plateau_constancy_check(ens: MartEnsemble):
    """On cells where sigma vanishes identically, evaluations are constant.

    Plateau cells are those with bracket increment below ``PLATEAU_RTOL``
    times the total; among them the check restricts to cells whose realized
    sigma is exactly zero (the simulable way plateaus arise) and asserts the
    per-cell evaluation increments are exactly zero there.
    """
    totals = ens.bracket.prefix()[:, -1]
    thresh = PLATEAU_RTOL * np.maximum(totals, 1e-300)
    plateau = ens.bracket.increments <= thresh[:, None]  # (n, K)
    sig = ens.sigma_for_paths()
    sigma_zero = np.all(sig == 0.0, axis=(-2, -1))  # (n, K)
    target = plateau & sigma_zero
    m_inc = np.diff(ens.m_evals, axis=1)  # (n, K, n_h)
    worst = float(np.abs(m_inc[target]).max()) if target.any() else 0.0
    return CheckReport(worst_slack=-worst, tolerance=0.0)
