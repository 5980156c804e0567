"""Simulation of finite truncations of cylindrical martingales M = int sigma dW.

The driver W is a d_drive-dimensional Brownian motion with PSD covariance Q
(identity by default).  A truncation is described by a ``NoiseSpec`` whose
``sigma`` maps the driver into the d_cyl-dimensional cylinder space; sigma may
be a constant matrix, a per-cell array, or an adapted callable
``sigma(t, w)`` of the cells' left endpoints and the running driver state
W(t_i) before each cell, called once per ensemble.

For this class every quadratic object of M comes from one density,
sigma Q sigma^T dt (``operator_rate``), and has a closed form:

    bracket increment  = ||sigma Q sigma^T|| dt
    operator bracket   = cumsum sigma Q sigma^T dt
    polar operator     = sigma Q sigma^T / ||sigma Q sigma^T||

The module computes these exactly on the grid and also estimates the bracket
empirically from partition suprema over a unit-sphere sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import cell_apply, path_rngs, prefix_sums, require_int, single_rng
from .measures import GridMeasure, TimeGrid, radon_nikodym
from .operators import psd_sqrt

__all__ = [
    "NoiseSpec",
    "OperatorProcess",
    "BracketPaths",
    "MartEnsemble",
    "simulate",
    "qv_exact",
    "am_operator",
    "qm_operator",
    "qm_empirical",
    "operator_rate",
    "rate_pairing",
    "qv_partition_estimate",
    "sphere_panel",
    "countex_spec",
    "stop_ensemble",
]

SigmaLike = np.ndarray | Callable[..., np.ndarray]
# bytes of driver increments per Q^{1/2} product in ``simulate``: the product
# writes over its own input, which numpy first copies, so a chunk bounds the copy
SCALE_CHUNK_BYTES = 1 << 22


def operator_rate(sig_a: np.ndarray, q: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """sigma_a Q sigma_b^T per cell, batched over leading axes: the operator
    density of the truncation (sigma_a = sigma_b) or a covariation rate.

    The one place this product is formed, so that every bracket, density,
    covariation, energy and trace term built from it shares its bits.  A
    stacked matmul multiplies each cell alone, so a per-path sigma stack
    gives each path the shared sigma's rate bit for bit.
    """
    return sig_a @ q @ np.swapaxes(sig_b, -1, -2)


def rate_pairing(x: np.ndarray, a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """tr(x A y^T) = sum over rows r of <x_r, A y_r>, batched over leading
    axes: the energy, bracket and covariation of an integrand against a rate
    A from :func:`operator_rate`.  Each cell is reduced alone."""
    return np.sum((x @ a) * y, axis=(-2, -1))


def _rate_norms(a: np.ndarray) -> np.ndarray:
    """||A|| per cell of a symmetric rate stack."""
    return np.abs(np.linalg.eigvalsh(a)).max(axis=-1)


def grid_stop_indices(tau_idx, n_paths: int, k: int) -> np.ndarray:
    """Grid stopping indices, one per path or a scalar for all, as an
    (n_paths,) int array in [0, K]."""
    tau = np.asarray(tau_idx)
    if tau.ndim and tau.shape != (n_paths,):
        raise ValueError(f"expected one stopping index per path, {n_paths} in all")
    if not np.issubdtype(tau.dtype, np.integer) or np.any((tau < 0) | (tau > k)):
        raise ValueError(f"stopping indices must be integers in [0, {k}]")
    return np.broadcast_to(tau.astype(int), (n_paths,))


@dataclass(frozen=True)
class NoiseSpec:
    """Driver covariance plus the map from driver to cylinder space.

    ``sigma`` is one of
      * a (d_cyl, d_drive) constant matrix,
      * a (K, d_cyl, d_drive) array of per-cell values (left endpoints),
      * a callable ``sigma(t, w)`` returning (..., K, d_cyl, d_drive), where
        ``t`` is ``grid.left`` (K,) and ``w`` the driver before each cell,
        W(t_i) = dW_0 + ... + dW_{i-1}, of shape (..., K, d_drive); this is
        the adapted case.  sigma at cell i reads only cells < i.
    """

    d_cyl: int
    d_drive: int
    sigma: SigmaLike
    q_drive: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "d_cyl", require_int(self.d_cyl, 1, "d_cyl"))
        object.__setattr__(self, "d_drive", require_int(self.d_drive, 1, "d_drive"))
        if not self.adapted:
            sig = np.asarray(self.sigma, dtype=float)
            if sig.ndim not in (2, 3) or sig.shape[-2:] != (self.d_cyl, self.d_drive):
                raise ValueError(
                    f"sigma shape {sig.shape} is neither (d_cyl, d_drive) = "
                    f"{(self.d_cyl, self.d_drive)} nor (K, d_cyl, d_drive)"
                )
            if not np.isfinite(sig).all():
                raise ValueError("sigma values are not all finite")
        if self.q_drive is not None:
            q = np.asarray(self.q_drive, dtype=float)
            if q.shape != (self.d_drive, self.d_drive):
                raise ValueError("q_drive shape does not match d_drive")
            psd_sqrt(q)  # raises if not finite, symmetric and PSD
            object.__setattr__(self, "q_drive", q)

    @property
    def adapted(self) -> bool:
        return callable(self.sigma)

    def q(self) -> np.ndarray:
        return np.eye(self.d_drive) if self.q_drive is None else self.q_drive

    def sigma_on_grid(self, grid: TimeGrid) -> np.ndarray:
        """Per-cell sigma values (K, d_cyl, d_drive); adapted specs need a path."""
        if self.adapted:
            raise ValueError("sigma is adapted; realized values require a driver path")
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim == 3 and sig.shape[0] != grid.n_cells:
            raise ValueError(f"sigma has {sig.shape[0]} cells, the grid {grid.n_cells}")
        return np.broadcast_to(sig, (grid.n_cells,) + sig.shape[-2:]).copy()

    def sigma_along(self, grid: TimeGrid, w_increments: np.ndarray) -> np.ndarray:
        """Realized per-cell sigma values, batched over leading path axes.

        An adapted sigma is called once, on the driver state before each
        cell: the running sum W(t_i), added left to right.
        """
        if not self.adapted:
            return self.sigma_on_grid(grid)
        w = prefix_sums(w_increments, axis=-2)[..., :-1, :]
        out = np.asarray(self.sigma(grid.left, w), dtype=float)
        want = w.shape[:-1] + (self.d_cyl, self.d_drive)
        if out.shape != want:
            raise ValueError(f"adapted sigma returned shape {out.shape}, expected {want}")
        return out


@dataclass(frozen=True)
class OperatorProcess:
    """Grid-indexed family of matrices; per-point (K+1) or per-cell (K)."""

    grid: TimeGrid
    matrices: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim < 3 or m.shape[-3] not in (self.grid.n_cells, self.grid.n_cells + 1):
            raise ValueError(f"matrix stack shape {m.shape} does not fit the grid")
        object.__setattr__(self, "matrices", m)

    @property
    def per_cell(self) -> bool:
        return self.matrices.shape[-3] == self.grid.n_cells


@dataclass(frozen=True)
class BracketPaths:
    """Per-path bracket increments, one row per sample path.

    When every path shares one bracket (deterministic sigma) ``increments``
    is a read-only (n_paths, K) view of a single row, with stride 0 along
    the path axis, and ``prefix()`` returns the same kind of view.
    """

    grid: TimeGrid
    increments: np.ndarray  # (n_paths, K), possibly a broadcast view

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != self.grid.n_cells:
            raise ValueError(f"increment array shape {inc.shape} does not fit the grid")
        object.__setattr__(self, "increments", inc)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    def prefix(self) -> np.ndarray:
        """Bracket at the grid points, shape (n_paths, K+1), read-only.

        A shared bracket is summed once and broadcast; cumsum adds left to
        right, so the row equals each row of the per-path sum bit for bit.
        """
        if self.increments.strides[0] == 0:  # one row seen n_paths times
            row = prefix_sums(self.increments[0])
            return np.broadcast_to(row, (self.n_paths, row.size))
        out = prefix_sums(self.increments, axis=1)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class MartEnsemble:
    """Simulated paths of one truncation: driver increments, the realized
    sigma, and the exact per-path bracket.

    The ensemble owns one (n, K, d_drive) array, ``driver_increments``; its
    path count and grid are read from it and the bracket.  With
    deterministic sigma, ``sigma_path`` is one C-ordered (K, dc, dd) array
    and ``bracket.increments`` a read-only stride-0 view of one row; with
    adapted or stopped sigma both are stored per path.  Integrals multiply
    phi sigma into dW and never read M itself.  The driven increments
    sigma(t_i) dW_i (``driven``) and the coordinate evaluations ``m_evals``,
    their prefix sums, are formed on first read, kept and read-only.
    """

    spec: NoiseSpec
    seed: int
    driver_increments: np.ndarray  # (n, K, d_drive)
    bracket: BracketPaths
    sigma_path: np.ndarray  # (K, dc, dd) deterministic or (n, K, dc, dd)

    @property
    def n_paths(self) -> int:
        return self.driver_increments.shape[0]

    @property
    def grid(self) -> TimeGrid:
        return self.bracket.grid

    @functools.cached_property
    def driven(self) -> np.ndarray:
        """sigma(t_i) dW_i per path and cell, shape (n, K, d_cyl), read-only."""
        out = cell_apply(self.sigma_path, self.driver_increments)
        out.flags.writeable = False
        return out

    def driven_increments(self) -> np.ndarray:
        """sigma(t_i) dW_i per path and cell, shape (n, K, d_cyl)."""
        return self.driven

    @functools.cached_property
    def m_evals(self) -> np.ndarray:
        """Coordinate evaluations (M_t e_c)_c on the grid, shape
        (n, K+1, d_cyl), read-only."""
        out = prefix_sums(self.driven, axis=1)
        out.flags.writeable = False
        return out

    def direction_bracket_increments(self, directions: np.ndarray) -> np.ndarray:
        """Exact per-direction bracket increments <sigma Q sigma^T x, x> dt.

        ``directions`` is (n_x, d_cyl); the result is (n_x, K) when sigma is
        shared and (n, n_x, K) otherwise.
        """
        a = operator_rate(self.sigma_path, self.spec.q(), self.sigma_path)
        return np.einsum("xc,...kcf,xf->...xk", directions, a, directions) * self.grid.widths


def _bracket_increments(spec: NoiseSpec, grid: TimeGrid, sigma_vals: np.ndarray) -> np.ndarray:
    """||sigma Q sigma^T|| dt per cell; batched over leading axes."""
    return _rate_norms(operator_rate(sigma_vals, spec.q(), sigma_vals)) * grid.widths


def _assemble(
    spec: NoiseSpec,
    grid: TimeGrid,
    seed: int,
    dw: np.ndarray,
    sigma_vals: np.ndarray,
) -> MartEnsemble:
    """The one place an ensemble is built from driver increments and sigma.

    The bracket is exact per path (a read-only broadcast view of one row
    when sigma is shared).  sigma is stored C-ordered, as ``cell_apply``'s
    bits depend on a cell's layout.
    """
    if not np.isfinite(dw).all():
        raise ValueError("driver increments are not all finite")
    if not np.isfinite(sigma_vals).all():
        raise ValueError("sigma values are not all finite")
    n_paths, k = dw.shape[:2]
    sigma_vals = np.ascontiguousarray(sigma_vals)
    bracket_inc = _bracket_increments(spec, grid, sigma_vals)
    if sigma_vals.ndim == 3:
        bracket_inc = np.broadcast_to(bracket_inc, (n_paths, k))
    return MartEnsemble(
        spec=spec,
        seed=seed,
        driver_increments=dw,
        bracket=BracketPaths(grid, bracket_inc),
        sigma_path=sigma_vals,
    )


def simulate(
    spec: NoiseSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> MartEnsemble:
    """Draw ``n_paths`` truncation paths by left-point accumulation.

    Driver increments are sqrt(dt) Q^{1/2} z, where path i's z is the i-th
    (K, d_drive) block of one standard normal stream of ``seed``
    (``_util.path_rngs``): an ensemble is a prefix of any larger one at the
    same seed.  Q^{1/2} is applied in place, a chunk of paths at a time.
    A path count that is no integer >= 1, or a seed that is no integer >= 0,
    is refused by name (``_util.require_int``).
    """
    n_paths = require_int(n_paths, 1, "n_paths")
    root_q = psd_sqrt(spec.q())
    scale = np.sqrt(grid.widths)[:, None]
    dw = path_rngs(seed, n_paths, (grid.n_cells, spec.d_drive))
    # a stacked matmul gives each path's (K, d) @ (d, d) product bit for bit
    # as one path at a time, so chunks keep every bit; a flattened (n K, d)
    # product was several times slower (1e4 x 48 x 5: 0.20 s against 0.03 s)
    chunk = max(1, SCALE_CHUNK_BYTES // max(dw[0].nbytes, 1))
    for lo in range(0, n_paths, chunk):
        np.matmul(dw[lo : lo + chunk], root_q.T, out=dw[lo : lo + chunk])
    dw *= scale

    return _assemble(spec, grid, seed, dw, spec.sigma_along(grid, dw))


def qv_exact(spec: NoiseSpec, grid: TimeGrid) -> GridMeasure:
    """Exact bracket measure ||sigma Q sigma^T|| dt for deterministic sigma.

    For adapted sigma use the per-path brackets stored on the ensemble.
    """
    return GridMeasure(grid, _bracket_increments(spec, grid, spec.sigma_on_grid(grid)))


def am_operator(spec: NoiseSpec, grid: TimeGrid) -> OperatorProcess:
    """Cumulative operator bracket: A(t_j) = sum_{i<j} sigma Q sigma^T dt."""
    sigma_values = spec.sigma_on_grid(grid)
    a_rate = operator_rate(sigma_values, spec.q(), sigma_values)
    return OperatorProcess(grid, prefix_sums(a_rate * grid.widths[:, None, None]))


def qm_operator(spec: NoiseSpec, grid: TimeGrid) -> OperatorProcess:
    """Normalized operator density sigma Q sigma^T / ||sigma Q sigma^T|| per cell.

    Cells where the numerator vanishes return the zero matrix (0/0 -> 0); on
    the bracket's support the result has operator norm one.
    """
    sigma_values = spec.sigma_on_grid(grid)
    a = operator_rate(sigma_values, spec.q(), sigma_values)
    norms = _rate_norms(a)[:, None, None]
    return OperatorProcess(grid, np.divide(a, norms, out=np.zeros_like(a), where=norms > 0))


def qm_empirical(am: OperatorProcess, qv: GridMeasure) -> OperatorProcess:
    """Recover the operator density from A and the bracket by one-cell
    difference quotients, entry-wise through :func:`radon_nikodym`."""
    if am.per_cell:
        raise ValueError("am must be a per-point cumulative process")
    diffs = np.diff(am.matrices, axis=0)  # (K, d, d)
    d = diffs.shape[-1]
    out = np.zeros_like(diffs)
    for r in range(d):
        for c in range(d):
            col = diffs[:, r, c]
            nu_pos = GridMeasure(qv.grid, np.clip(col, 0.0, None))
            nu_neg = GridMeasure(qv.grid, np.clip(-col, 0.0, None))
            out[:, r, c] = radon_nikodym(nu_pos, qv) - radon_nikodym(nu_neg, qv)
    return OperatorProcess(qv.grid, out)


def sphere_panel(d: int, n_samples: int, seed: int) -> np.ndarray:
    """Unit directions: +-coordinates plus seeded Gaussian directions, drawn
    row by row, so a smaller panel is the head of a larger one (same seed)."""
    d = require_int(d, 1, "d")
    n_samples = require_int(n_samples, 0, "n_samples")
    coords = np.vstack([np.eye(d), -np.eye(d)])
    if n_samples == 0 or d == 1:
        return coords
    z = single_rng(seed, stream=61).standard_normal((n_samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([coords, z])


@dataclass(frozen=True)
class QvEstimate:
    """Partition-supremum bracket estimates, one increasing path per depth."""

    grid: TimeGrid
    values: np.ndarray  # (n_paths, n_depths, K+1), a read-only view

    def terminal(self) -> np.ndarray:
        return self.values[:, :, -1]


def qv_partition_estimate(
    ens: MartEnsemble,
    sphere_samples: int,
    depth_schedule: Sequence[int],
    panel_seed: int | None = None,
) -> QvEstimate:
    """Bracket estimate: sum over partition blocks of the best per-direction
    bracket increment.

    Depth d partitions the cells into 2**d contiguous blocks.  Per block the
    supremum runs over the sphere panel of the exact per-direction bracket
    increments, so the estimate is free of sampling noise, nondecreasing in
    depth and panel size, and converges to the exact bracket from below.
    """
    if not depth_schedule:
        raise ValueError("depth schedule is empty")
    depths = [require_int(d, 0, "depths") for d in depth_schedule]
    panel_seed = ens.seed + 1 if panel_seed is None else require_int(panel_seed, 0, "panel_seed")
    dirs = sphere_panel(ens.spec.d_cyl, sphere_samples, panel_seed)
    per_dir = ens.direction_bracket_increments(dirs)  # ([n,] n_x, K): one row if shared

    k = ens.grid.n_cells
    values = np.zeros(per_dir.shape[:-2] + (len(depths), k + 1))
    for di, depth in enumerate(depths):
        # each block starts from the last one's end; running block maxima
        # are nondecreasing cell by cell already
        for block in np.array_split(np.arange(k), min(2**depth, k)):
            partial = np.cumsum(per_dir[..., block], axis=-1)  # ([n,] n_x, len)
            values[..., di, block + 1] = values[..., di, block[:1]] + partial.max(axis=-2)
    return QvEstimate(ens.grid, np.broadcast_to(values, (ens.n_paths, len(depths), k + 1)))


def countex_spec(n: int) -> tuple[NoiseSpec, TimeGrid]:
    """Scalar-driven truncation spreading n orthonormal directions over n
    equal sub-intervals of [0, 1]; its bracket at time 1 equals n while every
    unit direction's own bracket stays at one.

    The amplitude sqrt(n) is carried by the driver covariance instead of the
    matrix entries (same process in law), so that for dyadic n the cell
    masses are integer-exact in floating point.
    """
    n = require_int(n, 1, "n")
    grid = TimeGrid.uniform(1.0, n)
    sig = np.eye(n)[:, :, None]
    q = np.array([[float(n)]])
    return NoiseSpec(d_cyl=n, d_drive=1, sigma=sig, q_drive=q), grid


def stop_ensemble(ens: MartEnsemble, tau_idx: np.ndarray) -> MartEnsemble:
    """Freeze an ensemble at per-path grid stopping times.

    ``tau_idx`` holds grid-point indices; driver increments of cells beyond
    the stop are zeroed, everything downstream (evaluations, bracket) is
    rebuilt from the same frozen values.
    """
    k = ens.grid.n_cells
    tau_idx = grid_stop_indices(tau_idx, ens.n_paths, k)
    keep = (np.arange(k)[None, :] < tau_idx[:, None]).astype(float)
    dw = ens.driver_increments * keep[:, :, None]
    sigma_vals = ens.sigma_path * keep[:, :, None, None]
    return _assemble(ens.spec, ens.grid, ens.seed, dw, sigma_vals)
