"""Nonnegative measures on [0, T] represented by their increments on a grid.

Everything here is a finite stand-in for a Lebesgue-Stieltjes measure: a
strictly increasing grid ``0 = t_0 < ... < t_K = T`` splits the horizon into
half-open cells ``(t_{i-1}, t_i]``, and a measure is the vector of its cell
masses (no atom at zero, mass constant-density inside a cell).  The module
provides the least upper bound of a finite family of such measures, the
integrated form of a pointwise density supremum, and backward difference
quotients that invert integration against a base measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._util import prefix_sums

__all__ = [
    "TimeGrid",
    "GridMeasure",
    "IncreasingPath",
    "measure_from_increasing",
    "sup_measures",
    "sup_measures_bruteforce",
    "sup_density_measures",
    "partial_sup",
    "radon_nikodym",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points t_0 = 0 < t_1 < ... < t_K = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = _freeze(np.atleast_1d(self.points))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points (one cell)")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, horizon: float, cells: int) -> "TimeGrid":
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, horizon, cells + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_cells(self) -> int:
        return self.points.size - 1

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """Cell widths t_{i+1} - t_i, computed once and read-only."""
        return _freeze(np.diff(self.points))

    @property
    def left(self) -> np.ndarray:
        """Left endpoints of the cells (the evaluation points of integrands)."""
        return self.points[:-1]

    @property
    def right(self) -> np.ndarray:
        return self.points[1:]

    def refined(self, depth: int) -> "TimeGrid":
        """Split every cell into 2**depth equal subcells."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth == 0:
            return self
        n_sub = 2**depth
        frac = np.arange(n_sub) / n_sub
        pts = (self.points[:-1, None] + np.outer(self.widths, frac)).ravel()
        return TimeGrid(np.append(pts, self.points[-1]))

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeGrid) and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(self.points.tobytes())


def _same_grid(*objs):
    g0 = objs[0].grid
    for ob in objs[1:]:
        if ob.grid != g0:
            raise ValueError("operands live on different grids")
    return g0


@dataclass(frozen=True)
class GridMeasure:
    """Nonnegative mass per grid cell; no atom at zero."""

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        inc = _freeze(np.atleast_1d(self.increments))
        if inc.shape != (self.grid.n_cells,):
            raise ValueError(
                f"expected {self.grid.n_cells} increments, got shape {inc.shape}"
            )
        if not np.isfinite(inc).all():
            bad = int(np.flatnonzero(~np.isfinite(inc))[0])
            raise ValueError(f"non-finite increment at cell {bad}")
        if np.any(inc < 0):
            bad = int(np.flatnonzero(inc < 0)[0])
            raise ValueError(f"negative increment at cell {bad}")
        object.__setattr__(self, "increments", inc)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.increments))

    def prefix(self) -> np.ndarray:
        """Cumulative mass at every grid point, starting from 0."""
        return prefix_sums(self.increments)

    def to_increasing(self) -> "IncreasingPath":
        return IncreasingPath(self.grid, self.prefix())

    def interval_mass(self, i0: int, i1: int) -> float:
        """Mass of (t_{i0}, t_{i1}]."""
        return float(np.sum(self.increments[i0:i1]))


@dataclass(frozen=True)
class IncreasingPath:
    """Nondecreasing values at the grid points, F(0) >= 0."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _freeze(np.atleast_1d(self.values))
        if vals.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"expected {self.grid.n_cells + 1} values, got shape {vals.shape}"
            )
        if vals[0] < 0:
            raise ValueError("initial value must be >= 0")
        diffs = np.diff(vals)
        if np.any(diffs < 0):
            bad = int(np.flatnonzero(diffs < 0)[0]) + 1
            raise ValueError(f"values decrease at index {bad}")
        object.__setattr__(self, "values", vals)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


def measure_from_increasing(path: IncreasingPath) -> GridMeasure:
    """Increments F(t_i) - F(t_{i-1}); inverse of prefix summation up to F(0).

    Decreasing input is rejected already at ``IncreasingPath`` construction,
    naming the first offending index.
    """
    return GridMeasure(path.grid, np.diff(path.values))


def sup_measures(measures: list[GridMeasure], refine: int = 0) -> GridMeasure:
    """Least grid measure dominating every input on the refined partition.

    Each cell is subdivided ``refine`` times (dyadically, mass spread
    uniformly), the atom-wise maximum is taken, and the result is aggregated
    back onto the original cells.  The output dominates the cell-wise max and
    is bounded by the cell-wise sum; it is nondecreasing in ``refine``.
    """
    if not measures:
        raise ValueError("need at least one measure")
    grid = _same_grid(*measures)
    if refine < 0:
        raise ValueError("refine must be >= 0")
    n_sub = 2**refine
    stacked = np.stack([m.increments for m in measures])  # (n_meas, K)
    atoms = np.repeat(stacked / n_sub, n_sub, axis=1)  # (n_meas, K * n_sub)
    atom_max = atoms.max(axis=0)
    out = atom_max.reshape(grid.n_cells, n_sub).sum(axis=1)
    return GridMeasure(grid, out)


def sup_measures_bruteforce(measures: list[GridMeasure], refine: int = 0) -> GridMeasure:
    """Reference evaluation of the least dominating measure by its definition.

    For every cell of the original grid, maximizes over all partitions of its
    refined atoms into consecutive blocks the sum of per-block maxima, by the
    O(n^2) prefix recursion of ``_best_partition_value``.  It shares no code
    with ``sup_measures``; for verification only.
    """
    if not measures:
        raise ValueError("need at least one measure")
    grid = _same_grid(*measures)
    if refine < 0:
        raise ValueError("refine must be >= 0")
    n_sub = 2**refine
    stacked = np.stack([m.increments for m in measures])
    atoms = np.repeat(stacked / n_sub, n_sub, axis=1)
    out = np.empty(grid.n_cells)
    for c in range(grid.n_cells):
        block = atoms[:, c * n_sub : (c + 1) * n_sub]
        out[c] = _best_partition_value(block)
    return GridMeasure(grid, out)


def _best_partition_value(atom_masses: np.ndarray) -> float:
    """sup over consecutive-block partitions of sum of per-block maxima.

    Prefix recursion over the n atoms (columns): ``best[b]`` is the best value
    of a partition of the first b atoms, ``best[b] = max_{a<b} best[a] +
    w(a, b)`` with ``w(a, b)`` the largest row sum of atoms a..b-1, which is
    n(n+1)/2 block evaluations instead of 2^(n-1) partitions.  It is exact in
    floating point, not just in real arithmetic: a partition's value is the
    left-to-right float sum of its block values, which is the sum the
    recursion builds along its chain of cuts, and rounding is monotone
    (x <= y implies fl(x + w) <= fl(y + w)), so by induction ``best[b]`` is
    the largest such float sum over all partitions of the first b atoms.
    """
    n = atom_masses.shape[1]
    if n == 0:
        raise ValueError("empty block: need at least one atom")
    best = [0.0]
    for b in range(1, n + 1):
        best.append(
            max(
                best[a] + float(np.max(np.sum(atom_masses[:, a:b], axis=1)))
                for a in range(b)
            )
        )
    return best[n]


def sup_density_measures(densities: list, base: GridMeasure) -> GridMeasure:
    """Integral of the pointwise maximum of densities against ``base``.

    Densities are cell-constant (scalars broadcast); the increment of cell i
    is ``max_j f_j(cell i) * base_increment_i``.
    """
    if not densities:
        raise ValueError("need at least one density")
    k = base.grid.n_cells
    rows = []
    for j, f in enumerate(densities):
        arr = np.broadcast_to(np.asarray(f, dtype=float), (k,))
        if np.any(arr < 0):
            raise ValueError(f"density {j} is negative on some cell")
        rows.append(arr)
    top = np.max(np.stack(rows), axis=0)
    return GridMeasure(base.grid, top * base.increments)


def partial_sup(measures: list[GridMeasure], n: int) -> GridMeasure:
    """Least dominating measure of the first ``n`` inputs (1-based count)."""
    if not 1 <= n <= len(measures):
        raise ValueError(f"n must be in 1..{len(measures)}, got {n}")
    return sup_measures(measures[:n])


def radon_nikodym(nu: GridMeasure, mu: GridMeasure, eps_window: int = 1) -> np.ndarray:
    """Backward difference quotients nu((t-eps, t]) / mu((t-eps, t]) per cell.

    The window is ``eps_window`` cells ending at the cell's right endpoint
    (clipped at time zero) and 0/0 is read as 0.  Requires nu to vanish on
    every cell where mu does; for nu built as a cell-constant density against
    mu, window 1 recovers that density exactly on the support of mu.
    """
    grid = _same_grid(nu, mu)
    if eps_window < 1:
        raise ValueError("eps_window must be >= 1")
    violations = np.flatnonzero((nu.increments > 0) & (mu.increments == 0))
    if violations.size:
        raise ValueError(
            "nu is not absolutely continuous w.r.t. mu on cells "
            f"{violations.tolist()}"
        )
    num = _window_sums(nu.increments, eps_window)
    den = _window_sums(mu.increments, eps_window)
    out = np.zeros(grid.n_cells)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _window_sums(inc: np.ndarray, w: int) -> np.ndarray:
    pref = prefix_sums(inc)
    idx = np.arange(1, inc.size + 1)
    lo = np.maximum(idx - w, 0)
    return pref[idx] - pref[lo]
