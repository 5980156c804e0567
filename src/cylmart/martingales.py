"""Simulation of finite truncations of cylindrical martingales M = int sigma dW.

The driver W is a d_drive-dimensional Brownian motion with PSD covariance Q
(identity by default).  A truncation is described by a ``NoiseSpec`` whose
``sigma`` maps the driver into the d_cyl-dimensional cylinder space; sigma may
be a constant matrix, a per-cell array, or an adapted callable reading the
driver path strictly before the current cell.

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

import csv
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from ._util import canonical_json, config_hash, path_rngs
from .measures import GridMeasure, IncreasingPath, TimeGrid, radon_nikodym
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
    "qv_partition_estimate",
    "sphere_panel",
    "countex_spec",
    "stacked_spec",
    "stopped_spec",
    "stop_ensemble",
    "save_ensemble",
    "load_ensemble",
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


@dataclass(frozen=True)
class NoiseSpec:
    """Driver covariance plus the map from driver to cylinder space.

    ``sigma`` is one of
      * a (d_cyl, d_drive) constant matrix,
      * a (K, d_cyl, d_drive) array of per-cell values (left endpoints),
      * a callable ``sigma(i, t_left, w_prev)`` returning (..., d_cyl, d_drive)
        where ``w_prev`` holds the driver increments of cells < i with shape
        (..., i, d_drive); this is the adapted case.
    """

    d_cyl: int
    d_drive: int
    sigma: SigmaLike
    q_drive: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.q_drive is not None:
            q = np.asarray(self.q_drive, dtype=float)
            if q.shape != (self.d_drive, self.d_drive):
                raise ValueError("q_drive shape does not match d_drive")
            psd_sqrt(q)  # raises if not symmetric PSD
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
        """Realized per-cell sigma values, batched over leading path axes."""
        if not self.adapted:
            return self.sigma_on_grid(grid)
        lead = w_increments.shape[:-2]
        out = np.empty(lead + (grid.n_cells, self.d_cyl, self.d_drive))
        for i, t in enumerate(grid.left):
            out[..., i, :, :] = self.sigma(i, t, w_increments[..., :i, :])
        return out

    def descriptor(self) -> dict:
        sig = self.sigma
        if callable(sig):
            sig_desc = getattr(sig, "__name__", "adapted")
        else:
            sig_desc = np.asarray(sig).tolist()
        return {
            "d_cyl": self.d_cyl,
            "d_drive": self.d_drive,
            "sigma": sig_desc,
            "q_drive": None if self.q_drive is None else self.q_drive.tolist(),
            "name": self.name,
        }


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
    """Per-path bracket increments, one row per sample path."""

    grid: TimeGrid
    increments: np.ndarray  # (n_paths, K)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != self.grid.n_cells:
            raise ValueError(f"increment array shape {inc.shape} does not fit the grid")
        object.__setattr__(self, "increments", inc)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    def prefix(self) -> np.ndarray:
        out = np.zeros((self.n_paths, self.grid.n_cells + 1))
        np.cumsum(self.increments, axis=1, out=out[:, 1:])
        return out

    def measure(self, path: int = 0) -> GridMeasure:
        return GridMeasure(self.grid, self.increments[path])


@dataclass(frozen=True)
class MartEnsemble:
    """Simulated paths of one truncation: driver increments, the driven
    increments sigma(t_i) dW_i, and the exact per-path bracket.

    ``driven`` is computed once when the ensemble is built and is read-only;
    the test-panel evaluations ``m_evals`` are prefix sums of it, computed on
    first use and kept.
    """

    spec: NoiseSpec
    grid: TimeGrid
    n_paths: int
    seed: int
    driver_increments: np.ndarray  # (n, K, d_drive)
    test_panel: np.ndarray  # (n_h, d_cyl)
    driven: np.ndarray  # (n, K, d_cyl), read-only
    bracket: BracketPaths
    sigma_path: np.ndarray  # (K, dc, dd) deterministic or (n, K, dc, dd)

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
        """Evaluations M_t h on the grid for each test direction h, shape
        (n, K+1, n_h)."""
        out = np.zeros((self.n_paths, self.grid.n_cells + 1, self.test_panel.shape[0]))
        np.cumsum(self.driven @ self.test_panel.T, axis=1, out=out[:, 1:, :])
        return out

    def m_eval(self, h: np.ndarray) -> np.ndarray:
        """Cylindrical evaluation M_t h on the grid, shape (n, K+1)."""
        h = np.asarray(h, dtype=float)
        out = np.zeros((self.n_paths, self.grid.n_cells + 1))
        np.cumsum(self.driven @ h, axis=1, out=out[:, 1:])
        return out

    def vector_paths(self) -> np.ndarray:
        """Coordinate martingale paths (M_t e_c)_c, shape (n, K+1, d_cyl)."""
        out = np.zeros((self.n_paths, self.grid.n_cells + 1, self.spec.d_cyl))
        np.cumsum(self.driven, axis=1, out=out[:, 1:, :])
        return out

    def direction_bracket_increments(self, directions: np.ndarray) -> np.ndarray:
        """Exact per-direction bracket increments <sigma Q sigma^T x, x> dt.

        ``directions`` is (n_x, d_cyl); the result is (n_x, K) when sigma is
        shared and (n, n_x, K) otherwise.
        """
        q = self.spec.q()
        dt = self.grid.widths
        if self.sigma_is_shared:
            a = np.einsum("kcd,de,kfe->kcf", self.sigma_path, q, self.sigma_path)
            return np.einsum("xc,kcf,xf->xk", directions, a, directions) * dt
        a = np.einsum("nkcd,de,nkfe->nkcf", self.sigma_path, q, self.sigma_path)
        return np.einsum("xc,nkcf,xf->nxk", directions, a, directions) * dt


def _bracket_increments(spec: NoiseSpec, grid: TimeGrid, sigma_vals: np.ndarray) -> np.ndarray:
    """||sigma Qn sigma^T|| dNu per cell; batched over leading axes."""
    qn = spec.q_polar()
    rate = spec.driver_qv_rate()
    a = np.einsum("...cd,de,...fe->...cf", sigma_vals, qn, sigma_vals)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    return norms * grid.widths * rate


def _assemble(
    spec: NoiseSpec,
    grid: TimeGrid,
    seed: int,
    dw: np.ndarray,
    sigma_vals: np.ndarray,
    test_panel: np.ndarray,
) -> MartEnsemble:
    """The one place an ensemble is built from driver increments and sigma.

    The bracket is exact per path (broadcast when sigma is shared) and
    sigma dW is contracted once, here; panel evaluations derive from it.
    """
    if not np.isfinite(dw).all():
        raise ValueError("driver increments are not all finite")
    if not np.isfinite(sigma_vals).all():
        raise ValueError("sigma values are not all finite")
    n_paths, k = dw.shape[:2]
    test_panel = np.atleast_2d(np.asarray(test_panel, dtype=float))
    bracket_inc = _bracket_increments(spec, grid, sigma_vals)
    if sigma_vals.ndim == 3:
        bracket_inc = np.broadcast_to(bracket_inc, (n_paths, k)).copy()
    driven = _driven(sigma_vals, dw)
    driven.flags.writeable = False
    return MartEnsemble(
        spec=spec,
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        driver_increments=dw,
        test_panel=test_panel,
        driven=driven,
        bracket=BracketPaths(grid, bracket_inc),
        sigma_path=sigma_vals,
    )


def simulate(
    spec: NoiseSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    test_panel: np.ndarray | None = None,
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

    if test_panel is None:
        test_panel = np.eye(spec.d_cyl)
    return _assemble(spec, grid, seed, dw, spec.sigma_along(grid, dw), test_panel)


def qv_exact(
    spec: NoiseSpec, grid: TimeGrid, sigma_values: np.ndarray | None = None
) -> GridMeasure:
    """Exact bracket measure ||sigma Qn sigma^T|| dNu for deterministic sigma.

    For adapted sigma pass the realized ``sigma_values`` of one path, or use
    the per-path brackets stored on the ensemble.
    """
    if sigma_values is None:
        sigma_values = spec.sigma_on_grid(grid)
    if sigma_values.ndim != 3:
        raise ValueError("qv_exact expects a single path of sigma values")
    return GridMeasure(grid, _bracket_increments(spec, grid, sigma_values))


def am_operator(
    spec: NoiseSpec, grid: TimeGrid, sigma_values: np.ndarray | None = None
) -> OperatorProcess:
    """Cumulative operator bracket: A(t_j) = sum_{i<j} sigma Q sigma^T dt."""
    if sigma_values is None:
        sigma_values = spec.sigma_on_grid(grid)
    q = spec.q()
    a_rate = np.einsum("kcd,de,kfe->kcf", sigma_values, q, sigma_values)
    inc = a_rate * grid.widths[:, None, None]
    out = np.zeros((grid.n_cells + 1, spec.d_cyl, spec.d_cyl))
    np.cumsum(inc, axis=0, out=out[1:])
    return OperatorProcess(grid, out)


def qm_operator(
    spec: NoiseSpec, grid: TimeGrid, sigma_values: np.ndarray | None = None
) -> OperatorProcess:
    """Normalized operator density sigma Q sigma^T / ||sigma Q sigma^T|| per cell.

    Cells where the numerator vanishes return the zero matrix (0/0 -> 0); on
    the bracket's support the result has operator norm one.
    """
    if sigma_values is None:
        sigma_values = spec.sigma_on_grid(grid)
    q = spec.q()
    a = np.einsum("kcd,de,kfe->kcf", sigma_values, q, sigma_values)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    out = a / safe[:, None, None]
    out[norms == 0] = 0.0
    return OperatorProcess(grid, out)


def qm_empirical(am: OperatorProcess, qv: GridMeasure, window: int = 1) -> OperatorProcess:
    """Recover the operator density from A and the bracket by difference
    quotients, entry-wise through :func:`radon_nikodym`."""
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
            out[:, r, c] = radon_nikodym(nu_pos, qv, window) - radon_nikodym(
                nu_neg, qv, window
            )
    return OperatorProcess(qv.grid, out)


def sphere_panel(d: int, n_samples: int, seed: int) -> np.ndarray:
    """Unit directions: +-coordinates plus a low-discrepancy sphere sample."""
    coords = np.vstack([np.eye(d), -np.eye(d)])
    if n_samples <= 0:
        return coords
    if d == 1:
        return coords
    import warnings

    eng = qmc.Sobol(d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non-dyadic sample counts
        u = eng.random(n_samples)
    # inverse-normal map sends the low-discrepancy cube sample to the sphere
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([coords, z])


@dataclass(frozen=True)
class QvEstimate:
    """Partition-supremum bracket estimates, one increasing path per depth."""

    grid: TimeGrid
    depths: tuple
    values: np.ndarray  # (n_paths, n_depths, K+1)
    n_directions: int

    def path(self, path_idx: int, depth_idx: int) -> IncreasingPath:
        return IncreasingPath(self.grid, self.values[path_idx, depth_idx])

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
        values = np.broadcast_to(values, (ens.n_paths,) + values.shape[1:]).copy()
    return QvEstimate(ens.grid, depths, values, dirs.shape[0])


def countex_spec(n: int, cells_per_block: int = 1) -> tuple[NoiseSpec, TimeGrid]:
    """Scalar-driven truncation spreading n orthonormal directions over n
    equal sub-intervals of [0, 1]; its bracket at time 1 equals n while every
    unit direction's own bracket stays at one.

    The amplitude sqrt(n) is carried by the driver covariance instead of the
    matrix entries (same process in law), so that for dyadic n the cell
    masses are integer-exact in floating point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n * cells_per_block
    grid = TimeGrid.uniform(1.0, k)
    sig = np.zeros((k, n, 1))
    for j in range(k):
        block = j // cells_per_block
        sig[j, block, 0] = 1.0
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
    sig[stop_idx:] = 0.0
    return NoiseSpec(spec.d_cyl, spec.d_drive, sig, spec.q_drive, name=spec.name + "-stopped")


def stop_ensemble(ens: MartEnsemble, tau_idx: np.ndarray) -> MartEnsemble:
    """Freeze an ensemble at per-path grid stopping times.

    ``tau_idx`` holds grid-point indices; driver increments of cells beyond
    the stop are zeroed, everything downstream (evaluations, bracket) is
    rebuilt from the same frozen values.
    """
    tau_idx = np.broadcast_to(np.asarray(tau_idx, dtype=int), (ens.n_paths,))
    k = ens.grid.n_cells
    keep = (np.arange(k)[None, :] < tau_idx[:, None]).astype(float)
    dw = ens.driver_increments * keep[:, :, None]
    if ens.sigma_is_shared:
        sigma_vals = ens.sigma_path[None, :, :, :] * keep[:, :, None, None]
    else:
        sigma_vals = ens.sigma_path * keep[:, :, None, None]
    return _assemble(ens.spec, ens.grid, ens.seed, dw, sigma_vals, ens.test_panel)


def save_ensemble(ens: MartEnsemble, directory: str | Path) -> Path:
    """Persist an ensemble as manifest JSON plus one CSV per path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    desc = ens.spec.descriptor()
    manifest = {
        "seed": ens.seed,
        "n_paths": ens.n_paths,
        "grid": ens.grid.points.tolist(),
        "spec": desc,
        "spec_hash": config_hash(desc),
        "test_panel": ens.test_panel.tolist(),
    }
    (directory / "manifest.json").write_text(canonical_json(manifest))
    for p in range(ens.n_paths):
        with open(directory / f"path_{p:05d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"dw_{d}" for d in range(ens.spec.d_drive)])
            writer.writerows(ens.driver_increments[p].tolist())
    return directory


def load_ensemble(directory: str | Path, spec: NoiseSpec | None = None) -> MartEnsemble:
    """Rebuild an ensemble from a saved bundle.

    Adapted sigma callables are not serializable; pass the original ``spec``
    to rehydrate such bundles.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {directory}")
    manifest = json.loads(manifest_path.read_text())
    grid = TimeGrid(np.asarray(manifest["grid"]))
    if spec is None:
        desc = manifest["spec"]
        if isinstance(desc["sigma"], str):
            raise ValueError("bundle has adapted sigma; pass the spec explicitly")
        spec = NoiseSpec(
            d_cyl=desc["d_cyl"],
            d_drive=desc["d_drive"],
            sigma=np.asarray(desc["sigma"]),
            q_drive=None if desc["q_drive"] is None else np.asarray(desc["q_drive"]),
            name=desc["name"],
        )
    n_paths = manifest["n_paths"]
    dw = np.empty((n_paths, grid.n_cells, spec.d_drive))
    for p in range(n_paths):
        path_file = directory / f"path_{p:05d}.csv"
        if not path_file.exists():
            raise FileNotFoundError(f"bundle is missing {path_file.name}")
        dw[p] = np.loadtxt(path_file, delimiter=",", skiprows=1).reshape(
            grid.n_cells, spec.d_drive
        )
    return _assemble(
        spec, grid, manifest["seed"], dw, spec.sigma_along(grid, dw), manifest["test_panel"]
    )
