"""Simulation of finite truncations of cylindrical martingales M = int sigma dW.

The driver W is a d_drive-dimensional Brownian motion with PSD covariance Q
(identity by default).  A truncation is described by a ``NoiseSpec`` whose
``sigma`` maps the driver into the d_cyl-dimensional cylinder space; sigma may
be a constant matrix, a per-cell array, or an adapted callable
``sigma(t, w)`` of the cells' left endpoints and the running driver state
W(t_i) before each cell, called once per ensemble.

For this class the increasing bracket process, its operator version and the
normalized operator density all have closed forms:

    bracket increment  = ||sigma Qn sigma^T|| * dNu       (Qn = Q/||Q||)
    operator bracket   = cumsum sigma Qn sigma^T * dNu
    polar operator     = sigma Qn sigma^T / ||sigma Qn sigma^T||

with dNu = ||Q|| dt the driver's own bracket measure.  The module computes
these exactly on the grid and also estimates the bracket empirically from
partition suprema over a unit-sphere sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import path_rngs, prefix_sums, single_rng
from .measures import GridMeasure, TimeGrid, radon_nikodym
from .operators import op_norm_sym, psd_sqrt

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
    "qv_partition_estimate",
    "sphere_panel",
    "countex_spec",
    "stacked_spec",
    "stopped_spec",
    "stop_ensemble",
]

SigmaLike = np.ndarray | Callable[..., np.ndarray]


def _driven(sigma_vals: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sigma(t_i) dW_i per path/cell via one fixed einsum spelling.

    Keeping a single contraction path makes stopped/cut variants of the same
    data bit-identical, which the optional-stopping identity relies on.
    """
    if sigma_vals.ndim == 3:
        sigma_vals = np.broadcast_to(sigma_vals, dw.shape[:1] + sigma_vals.shape)
    return np.einsum("nkcd,nkd->nkc", sigma_vals, dw)


def operator_rate(sig_a: np.ndarray, q: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """sigma_a Q sigma_b^T per cell, batched over leading axes: the operator
    density of the truncation (sigma_a = sigma_b) or a covariation rate.

    The one spelling of this contraction, so that every density, bracket and
    covariation built from it shares its bits.
    """
    return np.einsum("...cd,de,...fe->...cf", sig_a, q, sig_b)


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
    name: str = ""

    def __post_init__(self):
        if not self.adapted and not np.isfinite(np.asarray(self.sigma, dtype=float)).all():
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

    def driver_qv_rate(self) -> float:
        """||Q||: the driver bracket grows at this rate per unit time."""
        return op_norm_sym(self.q())

    def q_polar(self) -> np.ndarray:
        """Q normalized to unit operator norm (zero matrix if Q = 0)."""
        rate = self.driver_qv_rate()
        return self.q() / rate if rate > 0 else np.zeros_like(self.q())

    def sigma_on_grid(self, grid: TimeGrid) -> np.ndarray:
        """Per-cell sigma values (K, d_cyl, d_drive); adapted specs need a path."""
        if self.adapted:
            raise ValueError("sigma is adapted; realized values require a driver path")
        sig = np.asarray(self.sigma, dtype=float)
        if sig.shape == (self.d_cyl, self.d_drive):
            return np.broadcast_to(sig, (grid.n_cells, self.d_cyl, self.d_drive)).copy()
        if sig.shape == (grid.n_cells, self.d_cyl, self.d_drive):
            return sig.copy()
        raise ValueError(f"sigma shape {sig.shape} does not fit grid/dimensions")

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
    """Simulated paths of one truncation: driver increments, the driven
    increments sigma(t_i) dW_i, and the exact per-path bracket.

    The ensemble owns two (n, K, d) arrays: ``driver_increments`` and
    ``driven``, which is computed once when the ensemble is built and is
    read-only.  Its path count and grid are read from these.  With
    deterministic sigma, ``sigma_path`` is one (K, dc, dd) array and
    ``bracket.increments`` a read-only stride-0 view of one row; with adapted
    or stopped sigma both are stored per path.  The coordinate evaluations
    ``m_evals`` are prefix sums of ``driven``, computed on first use, kept
    and read-only; ``m_eval(h)`` evaluates any other direction.
    """

    spec: NoiseSpec
    seed: int
    driver_increments: np.ndarray  # (n, K, d_drive)
    driven: np.ndarray  # (n, K, d_cyl), read-only
    bracket: BracketPaths
    sigma_path: np.ndarray  # (K, dc, dd) deterministic or (n, K, dc, dd)

    @property
    def n_paths(self) -> int:
        return self.driver_increments.shape[0]

    @property
    def grid(self) -> TimeGrid:
        return self.bracket.grid

    @property
    def sigma_is_shared(self) -> bool:
        return self.sigma_path.ndim == 3

    def sigma_for_paths(self) -> np.ndarray:
        """(n, K, dc, dd) view regardless of path dependence."""
        if self.sigma_is_shared:
            return np.broadcast_to(
                self.sigma_path, (self.n_paths,) + self.sigma_path.shape
            )
        return self.sigma_path

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

    def m_eval(self, h: np.ndarray) -> np.ndarray:
        """Cylindrical evaluation M_t h on the grid, shape (n, K+1)."""
        return prefix_sums(self.driven @ np.asarray(h, dtype=float), axis=1)

    def direction_bracket_increments(self, directions: np.ndarray) -> np.ndarray:
        """Exact per-direction bracket increments <sigma Q sigma^T x, x> dt.

        ``directions`` is (n_x, d_cyl); the result is (n_x, K) when sigma is
        shared and (n, n_x, K) otherwise.
        """
        a = operator_rate(self.sigma_path, self.spec.q(), self.sigma_path)
        return np.einsum("xc,...kcf,xf->...xk", directions, a, directions) * self.grid.widths


def _bracket_increments(spec: NoiseSpec, grid: TimeGrid, sigma_vals: np.ndarray) -> np.ndarray:
    """||sigma Qn sigma^T|| dNu per cell; batched over leading axes."""
    qn = spec.q_polar()
    rate = spec.driver_qv_rate()
    a = operator_rate(sigma_vals, qn, sigma_vals)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    return norms * grid.widths * rate


def _assemble(
    spec: NoiseSpec,
    grid: TimeGrid,
    seed: int,
    dw: np.ndarray,
    sigma_vals: np.ndarray,
) -> MartEnsemble:
    """The one place an ensemble is built from driver increments and sigma.

    The bracket is exact per path (a read-only broadcast view of one row
    when sigma is shared) and sigma dW is contracted once, here; evaluations
    derive from it.
    """
    if not np.isfinite(dw).all():
        raise ValueError("driver increments are not all finite")
    if not np.isfinite(sigma_vals).all():
        raise ValueError("sigma values are not all finite")
    n_paths, k = dw.shape[:2]
    bracket_inc = _bracket_increments(spec, grid, sigma_vals)
    if sigma_vals.ndim == 3:
        bracket_inc = np.broadcast_to(bracket_inc, (n_paths, k))
    driven = _driven(sigma_vals, dw)
    driven.flags.writeable = False
    return MartEnsemble(
        spec=spec,
        seed=seed,
        driver_increments=dw,
        driven=driven,
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

    Driver increments are sqrt(dt) Q^{1/2} z with z standard normal from a
    per-path substream of ``seed``; the result is identical however path work
    is scheduled.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    k = grid.n_cells
    root_q = psd_sqrt(spec.q())
    scale = np.sqrt(grid.widths)[:, None]
    dw = np.empty((n_paths, k, spec.d_drive))
    # one generator per call, set to each path's own stream in turn
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for j, (state, inc) in enumerate(path_rngs(seed, n_paths)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=dw[j])
    # a stacked matmul gives each path's (K, d) @ (d, d) product bit for bit
    # as one path at a time; a flattened (n K, d) product was several times
    # slower (1e4 x 48 x 5: 0.20 s against 0.03 s)
    np.matmul(dw, root_q.T, out=dw)
    dw *= scale

    return _assemble(spec, grid, seed, dw, spec.sigma_along(grid, dw))


def qv_exact(spec: NoiseSpec, grid: TimeGrid) -> GridMeasure:
    """Exact bracket measure ||sigma Qn sigma^T|| dNu for deterministic sigma.

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
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    out = a / safe[:, None, None]
    out[norms == 0] = 0.0
    return OperatorProcess(grid, out)


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
    coords = np.vstack([np.eye(d), -np.eye(d)])
    if n_samples <= 0 or d == 1:
        return coords
    z = single_rng(seed, stream=61).standard_normal((n_samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([coords, z])


@dataclass(frozen=True)
class QvEstimate:
    """Partition-supremum bracket estimates, one increasing path per depth."""

    grid: TimeGrid
    values: np.ndarray  # (n_paths, n_depths, K+1), read-only; a view if shared

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
    if panel_seed is None:
        panel_seed = ens.seed + 1
    dirs = sphere_panel(ens.spec.d_cyl, sphere_samples, panel_seed)
    if dirs.size == 0:
        raise ValueError("empty sphere sample")
    per_dir = ens.direction_bracket_increments(dirs)
    if per_dir.ndim == 2:  # shared sigma: one pseudo-path
        per_dir = per_dir[None, :, :]
        n_eff = 1
    else:
        n_eff = ens.n_paths

    k = ens.grid.n_cells
    depths = tuple(int(d) for d in depth_schedule)
    values = np.zeros((n_eff, len(depths), k + 1))
    for di, depth in enumerate(depths):
        blocks = np.array_split(np.arange(k), min(2**depth, k))
        for p in range(n_eff):
            cum = 0.0
            row = values[p, di]
            for block in blocks:
                partial = np.cumsum(per_dir[p][:, block], axis=1)  # (n_x, len)
                row[block + 1] = cum + partial.max(axis=0)
                cum = row[block[-1] + 1]
            # running block maxima are nondecreasing cell by cell already
    if ens.sigma_is_shared and ens.n_paths > 1:
        values = np.broadcast_to(values, (ens.n_paths,) + values.shape[1:])
    values.flags.writeable = False
    return QvEstimate(ens.grid, values)


def countex_spec(n: int) -> tuple[NoiseSpec, TimeGrid]:
    """Scalar-driven truncation spreading n orthonormal directions over n
    equal sub-intervals of [0, 1]; its bracket at time 1 equals n while every
    unit direction's own bracket stays at one.

    The amplitude sqrt(n) is carried by the driver covariance instead of the
    matrix entries (same process in law), so that for dyadic n the cell
    masses are integer-exact in floating point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = TimeGrid.uniform(1.0, n)
    sig = np.zeros((n, n, 1))
    for j in range(n):
        sig[j, j, 0] = 1.0
    q = np.array([[float(n)]])
    return NoiseSpec(d_cyl=n, d_drive=1, sigma=sig, q_drive=q, name=f"countex-{n}"), grid


def stacked_spec(spec1: NoiseSpec, spec2: NoiseSpec) -> NoiseSpec:
    """Sum of two truncations with independent drivers, as one spec."""
    if spec1.d_cyl != spec2.d_cyl:
        raise ValueError("cylinder dimensions differ")
    if spec1.adapted or spec2.adapted:
        raise ValueError("stacking supports deterministic sigma only")
    q = np.zeros((spec1.d_drive + spec2.d_drive,) * 2)
    q[: spec1.d_drive, : spec1.d_drive] = spec1.q()
    q[spec1.d_drive :, spec1.d_drive :] = spec2.q()

    s1 = np.asarray(spec1.sigma, dtype=float)
    s2 = np.asarray(spec2.sigma, dtype=float)
    if s1.ndim == 2 and s2.ndim == 2:
        sig = np.concatenate([s1, s2], axis=-1)
    else:
        raise ValueError("stacking supports constant sigma only")
    return NoiseSpec(
        d_cyl=spec1.d_cyl,
        d_drive=spec1.d_drive + spec2.d_drive,
        sigma=sig,
        q_drive=q,
        name=f"({spec1.name}+{spec2.name})",
    )


def stopped_spec(spec: NoiseSpec, grid: TimeGrid, stop_idx: int) -> NoiseSpec:
    """Spec with sigma zeroed on cells at and beyond grid point ``stop_idx``."""
    sig = spec.sigma_on_grid(grid).copy()
    sig[grid_stop_indices(stop_idx, 1, grid.n_cells)[0] :] = 0.0
    return NoiseSpec(spec.d_cyl, spec.d_drive, sig, spec.q_drive, name=spec.name + "-stopped")


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
    sigma_vals = ens.sigma_for_paths() * keep[:, :, None, None]
    return _assemble(ens.spec, ens.grid, ens.seed, dw, sigma_vals)
