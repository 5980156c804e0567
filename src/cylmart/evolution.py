"""Mild-solution solver for du = (Au + F(t,u)) dt + G(t,u) dM.

The generator is a symmetric negative-semidefinite matrix (possibly zero), so
the semigroup is contractive and self-adjoint.  Each problem validates its
generator, constants and initial value and builds its semigroup once, when
it is made; the semigroup applies through a cached eigendecomposition, with
exp(tA) built once per distinct t, and as a scalar multiply in one
dimension.  The mild map, both convolutions of the mild residual and
Picard's initial flow run the left-point recursion
acc <- exp(dt A)(acc + increment) cell by cell over grid points held in
whatever layout the caller holds.  The increments are formed a tile of
cells at a time (``_increments``), all from the old points: each cell's
F(t_j, x_j) dt_j, then one ``cell_apply`` for sigma dW over the tile and one
for G (sigma dW), bit for bit the per-cell products, so no (paths, cells)
array of sigma dW is formed.  A tile holds about TILE_ELEMENTS numbers of
noise matrices, so its length falls as the path count grows.
Solutions are produced by fixed-point iteration of the variation-of-constants
map on a dyadic block schedule, with distances measured in the V norm
(L2-in-time moment plus bracket-weighted kernel moment).  The iteration
overwrites one iterate in place, stored time-major as (grid points, paths,
dim) so that each point it reads or writes is one contiguous block.  Every
V norm and distance is accumulated cell by cell into two per-path sums
(``_VSums``), so no (paths, cells) array of squared changes is formed; the
mild residual streams its gap point by point.
Per-block stopping times cap the bracket mass a block can carry, and
localization checks compare runs against stopped drivers pathwise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from ._util import (
    cell_apply,
    finite_above_zero,
    first_exceeding,
    require_int,
    require_window,
    single_rng,
)
from .martingales import BracketPaths, MartEnsemble, grid_stop_indices, stop_ensemble
from .operators import check_symmetric

__all__ = [
    "SEEProblem",
    "Semigroup",
    "fixed_point_map",
    "vp_norm",
    "rho_stopping_times",
    "PicardDiagnostics",
    "PicardError",
    "picard_solve",
    "mild_residual",
    "ResidualStats",
    "lipschitz_quotient",
    "localization_consistency",
    "LocalizationReport",
]

GENERATOR_EIG_RTOL = 1e-10
LIPSCHITZ_SLACK = 1e-9
# mild-map applications per Picard block before it is refused.  Each sweep
# fixes one more point of a block for good, so a block of L cells reaches its
# discrete fixed point bit for bit within L + 1 sweeps: a finite distance can
# be refused only on a block of more than 59 cells
PICARD_SWEEPS = 60
# numbers a tile of cells' noise matrices G (cells, paths, dim, d_cyl) may
# hold, 128 KiB: the tile length falls as the path count grows, so the
# increments' tiles stay small next to the iterate (one cell a tile at
# 10^4 paths of dimension 1); a tile has at least one cell
TILE_ELEMENTS = 2**14


@dataclass(frozen=True)
class SEEProblem:
    """Problem data with declared Lipschitz/growth constants.

    ``drift`` maps (t, states (n, m)) -> (n, m); ``noise_map`` maps
    (t, states) -> (n, m, d_cyl) (a constant (m, d_cyl) return broadcasts).
    Declared constants are validated by two-point sampling before solving.
    The generator (``None`` for A = 0) is validated when the problem is made,
    which builds ``semigroup`` once; every solver function applies that one
    semigroup, so exp(dt A) stays cached across calls.  The driver M and the
    time grid are not problem data: every solver function reads both from
    the ensemble it is given.
    """

    generator: np.ndarray | None
    drift: Callable
    lip_drift: float
    growth_drift: float
    noise_map: Callable
    lip_noise: float
    u0: np.ndarray
    semigroup: Semigroup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lip_drift", "growth_drift", "lip_noise"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and 0 <= value < np.inf
            ):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.ndim not in (1, 2) or u0.size == 0:
            raise ValueError(
                f"u0 must be a non-empty (dim,) or (paths, dim) array, got shape {u0.shape}"
            )
        if not np.isfinite(u0).all():
            raise ValueError("u0 must be finite")
        object.__setattr__(self, "semigroup", Semigroup(self.generator, self.dim))

    @property
    def dim(self) -> int:
        return np.atleast_1d(np.asarray(self.u0)).shape[-1]

    def initial_states(self, n_paths: int) -> np.ndarray:
        u0 = np.asarray(self.u0, dtype=float)
        if u0.ndim == 1:
            return np.broadcast_to(u0, (n_paths, u0.size)).copy()
        if u0.shape[0] != n_paths:
            raise ValueError("per-path initial values do not match path count")
        return u0.copy()


class Semigroup:
    """exp(tA) for symmetric negative-semidefinite A, cached eigenbasis.

    ``matrix(t)`` and ``apply(t, x)`` cache one read-only matrix per distinct
    t; the recursions call them with cell widths only, so a uniform grid
    builds exp(dt A) once.  ``flow(t, x)`` takes any t and caches nothing.  In one
    dimension both multiply by the 1 x 1 matrix's entry, bit for bit the
    product ``x @ exp(tA).T``, which adds it to +0.0 (so -0.0 becomes +0.0).
    """

    def __init__(self, generator: np.ndarray | None, dim: int):
        self.dim = dim
        self._matrices: dict[float, np.ndarray] = {}
        if generator is None:
            self.identity = True
            return
        a = np.asarray(generator, dtype=float)
        if a.shape != (dim, dim):
            raise ValueError(f"generator shape {a.shape} does not match dim {dim}")
        a = check_symmetric(a)  # finite and symmetric
        scale = max(np.abs(a).max(), 1.0)
        vals, vecs = np.linalg.eigh(a)
        if np.any(vals > GENERATOR_EIG_RTOL * scale):
            raise ValueError(f"generator has a positive eigenvalue ({vals.max():.3e})")
        self.identity = False
        self.vals = np.minimum(vals, 0.0)
        self.vecs = vecs

    def _exp(self, t: float) -> np.ndarray:
        if self.identity:
            return np.eye(self.dim)
        return (self.vecs * np.exp(t * self.vals)) @ self.vecs.T

    def matrix(self, t: float) -> np.ndarray:
        mat = self._matrices.get(t)
        if mat is None:
            mat = self._exp(t)
            mat.setflags(write=False)
            self._matrices[t] = mat
        return mat

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """exp(tA) x along the last axis; contraction for t >= 0."""
        return x if self.identity else self._times(x, self.matrix(t))

    def flow(self, t: float, x: np.ndarray) -> np.ndarray:
        """``apply(t, x)`` without caching exp(tA), for one-off times t."""
        return x if self.identity else self._times(x, self._exp(t))

    def _times(self, x: np.ndarray, mat: np.ndarray) -> np.ndarray:
        if self.dim > 1:
            return x @ mat.T
        out = x * mat[0, 0]
        out += 0.0  # the matmul's zero start: -0.0 rows become +0.0
        return out


def _path_shape(
    problem: SEEProblem, ens: MartEnsemble, u: np.ndarray | None = None
) -> tuple[int, int, int]:
    """(paths, grid points, dim), the shape of a solution; ``u``, if given,
    must have it."""
    shape = (ens.n_paths, ens.grid.n_cells + 1, problem.dim)
    if u is not None and np.shape(u) != shape:
        raise ValueError(f"u must have shape {shape}, got {np.shape(u)}")
    return shape


def _eval_drift(problem: SEEProblem, t: float, states: np.ndarray) -> np.ndarray:
    """F(t, states), which must have the states' (n, m) shape."""
    f = np.asarray(problem.drift(t, states), dtype=float)
    if f.shape != states.shape:
        raise ValueError(f"drift returned shape {f.shape} for states of shape {states.shape}")
    return f


def _eval_noise(problem: SEEProblem, t: float, states: np.ndarray, d_cyl: int) -> np.ndarray:
    """G(t, states) as (n, m, d_cyl), C-ordered (``cell_apply``'s bits depend
    on the layout); a constant (m, d_cyl) result is broadcast, and any other
    shape refused: ``cell_apply`` would broadcast a size-1 axis silently."""
    g = np.ascontiguousarray(problem.noise_map(t, states), dtype=float)
    n, m = states.shape
    if g.shape == (m, d_cyl):
        g = np.broadcast_to(g, (n, m, d_cyl))
    if g.shape != (n, m, d_cyl):
        raise ValueError(
            f"noise_map returned shape {g.shape}; need ({n}, {m}, {d_cyl}) or ({m}, {d_cyl})"
        )
    return g


def _increments(
    problem: SEEProblem, ens: MartEnsemble, points: np.ndarray, i0: int, i1: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The drift and noise increments of cells i0 <= j < i1 at the states
    ``points[j]``, a tile of cells at a time.

    ``points[j]`` is the (paths, dim) state at t_j, in whatever layout the
    caller holds.  Yields (lo, drift, noise) for consecutive tiles of cells
    lo <= j < lo + len(drift), where drift[j - lo] = F(t_j, x_j) dt_j and
    noise[j - lo] = G(t_j, x_j) (sigma_j dW_j).  A tile's points are all read
    before it is yielded, so the caller may overwrite them then; the arrays
    yielded are overwritten by the next tile.  The driver increments are
    copied time-major, and sigma dW and G (sigma dW) are one ``cell_apply``
    each over the tile, bit for bit the per-cell products: sigma_j dW_j is
    cell j of ``ens.driven``, which stays unformed.
    """
    grid, sigma, dw = ens.grid, ens.sigma_path, ens.driver_increments
    n, m, d_cyl = ens.n_paths, problem.dim, sigma.shape[-2]
    tile = max(1, min(i1 - i0, TILE_ELEMENTS // (n * m * d_cyl)))
    dw_tile = np.empty((tile, n, dw.shape[2]))
    g_tile = np.empty((tile, n, m, d_cyl))
    drift = np.empty((tile, n, m))
    for lo in range(i0, i1, tile):
        hi = min(lo + tile, i1)
        c = hi - lo
        np.copyto(dw_tile[:c], dw[:, lo:hi].swapaxes(0, 1))
        # sigma_j is read in place: shared (cells, d_cyl, d_drive) or per path
        sig = sigma[lo:hi, None] if sigma.ndim == 3 else sigma[:, lo:hi].swapaxes(0, 1)
        for j in range(lo, hi):
            x, t = points[j], grid.points[j]
            np.multiply(_eval_drift(problem, t, x), grid.widths[j], out=drift[j - lo])
            g_tile[j - lo] = _eval_noise(problem, t, x, d_cyl)
        yield lo, drift[:c], cell_apply(g_tile[:c], cell_apply(sig, dw_tile[:c]))


def _mild_map(
    problem: SEEProblem,
    ens: MartEnsemble,
    u: np.ndarray,
    i0: int,
    i1: int,
    base: np.ndarray,
    change: _VSums | None = None,
) -> np.ndarray:
    """Overwrite the iterate ``u``, indexed time-major as (K+1, n, m), on
    [t_{i0}, t_{i1}] with its image under the mild map started from ``base``
    at t_{i0}.  ``u`` may be a time-major array or a swapped view of a
    path-major one.

    Drift and noise read each point of ``u`` before it is overwritten.
    Given ``change``, the change new - old of each point i0 <= j < i1 is
    added to it.
    """
    sg, widths = problem.semigroup, ens.grid.widths
    acc = base
    for lo, inc, noise in _increments(problem, ens, u, i0, i1):
        inc += noise
        for j, inc_j in enumerate(inc, lo):
            nxt = sg.apply(widths[j], acc + inc_j)
            if change is not None:
                change.add(j, acc, u[j])
            u[j] = acc
            acc = nxt
    u[i1] = acc
    return u


def fixed_point_map(
    problem: SEEProblem,
    ens: MartEnsemble,
    u: np.ndarray,
    i0: int = 0,
    i1: int | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """One application of the variation-of-constants map on [t_{i0}, t_{i1}].

    ``base`` is the state at t_{i0} (defaults to the problem's initial
    states); grid points outside the window are returned untouched from
    ``u``.  The result is a fresh C-ordered (paths, K+1, dim) array, which
    the map overwrites through its time-major view.
    """
    n, kp1, _ = _path_shape(problem, ens, u)
    if i1 is None:
        i1 = kp1 - 1
    require_window(i0, i1, kp1 - 1)
    if base is None:
        base = problem.initial_states(n)
    out = u.copy()
    _mild_map(problem, ens, out.swapaxes(0, 1), i0, i1, base)
    return out


def vp_norm(u: np.ndarray, ens: MartEnsemble) -> float:
    """Moment norm on [0, T]: (E ||u||_{L2}^2)^{1/2} + (E ||u||_{bracket}^2)^{1/2}.

    The second summand weighs the path kernel by the per-path bracket (the
    Euclidean-flavor kernel norm, exact per path).  Cell values are the path
    values at left endpoints, so the value at T is not read.  ``u`` is
    (paths, K+1, dim) on the ensemble's grid, in any layout: the two
    per-path sums are added cell by cell (``_VSums``), in the same bits for
    every layout and path count.
    """
    grid = ens.grid
    if np.ndim(u) != 3 or np.shape(u)[:2] != (ens.n_paths, grid.n_cells + 1):
        raise ValueError(
            f"u must have shape ({ens.n_paths}, {grid.n_cells + 1}, dim), got {np.shape(u)}"
        )
    return _window_distance(u, None, ens, 0, grid.n_cells)


class _VSums:
    """The V norm's two per-path sums over a window's cells: sum_j sq_j dt_j
    and sum_j sq_j d[[M]]_j, where sq_j is the squared norm of cell j's
    left-endpoint value, added left to right as each cell is added.

    The one spelling of the V norm: ``vp_norm``, the Lipschitz quotient's
    distances and Picard's sweep distances all read it.  A cell's square is
    formed in a C-ordered buffer, so its bits do not depend on the layout
    of the values, nor a path's on the path count.
    """

    def __init__(self, ens: MartEnsemble, dim: int):
        n = ens.n_paths
        self._widths = ens.grid.widths
        self._bracket = ens.bracket.increments
        self._cell = np.empty((n, dim))
        self._sq = np.empty(n)
        self._term = np.empty(n)
        self.l2 = np.zeros(n)
        self.gam = np.zeros(n)

    def add(self, j: int, x: np.ndarray, y: np.ndarray | None = None) -> None:
        """Add cell j, whose (n, dim) value is ``x``, or ``x - y`` if given."""
        if y is None:
            np.square(x, out=self._cell)
        else:
            np.square(np.subtract(x, y, out=self._cell), out=self._cell)
        sq = np.add.reduce(self._cell, axis=1, out=self._sq)
        self.l2 += np.multiply(sq, self._widths[j], out=self._term)
        self.gam += np.multiply(sq, self._bracket[:, j], out=self._term)

    def norm(self) -> float:
        return float(np.mean(self.l2) ** 0.5 + np.mean(self.gam) ** 0.5)


def _window_distance(
    u: np.ndarray, v: np.ndarray | None, ens: MartEnsemble, i0: int, i1: int
) -> float:
    """``vp_norm`` of u - v (of u if v is None) on cells i0..i1-1, added a
    cell at a time."""
    sums = _VSums(ens, np.shape(u)[2])
    for j in range(i0, i1):
        sums.add(j, u[:, j], None if v is None else v[:, j])
    return sums.norm()


def rho_stopping_times(bracket: BracketPaths, n: int) -> np.ndarray:
    """Per dyadic block, the first grid time its bracket mass exceeds T/2^n.

    T is the horizon of the bracket's grid.  The search stays inside the
    block: a block whose own mass never exceeds the cap reports inf.  Stopped
    at these times, each block carries at most T/2^n plus one cell of mass;
    a mass that reaches the cap exactly (``_util.first_exceeding``) stops none.
    """
    n_blocks = 2 ** require_int(n, 0, "n")
    grid = bracket.grid
    prefix = bracket.prefix()
    cap = grid.horizon / n_blocks
    bounds = np.arange(n_blocks + 1) * cap
    edges = first_exceeding(grid.points, bounds, grid.horizon) - 1
    # the last grid point at or below each block edge must reach it
    short = first_exceeding(bounds[:, None], grid.points[edges], grid.horizon) == 0
    if short.any():
        raise ValueError(f"block start {bounds[np.argmax(short)]} is not a grid point")
    out = np.full((prefix.shape[0], n_blocks), np.inf)
    for k, (j0, j1) in enumerate(zip(edges[:-1], edges[1:])):
        first = j0 + first_exceeding(prefix[:, j0 : j1 + 1], prefix[:, j0] + cap, prefix[:, -1])
        hit = first <= j1
        out[hit, k] = grid.points[first[hit]]
    return out


@dataclass
class PicardDiagnostics:
    blocks: list
    distances: list = field(default_factory=list, init=False)  # per block: V distances
    contractions: list = field(default_factory=list, init=False)  # per block: measured ratio
    block_mass: list = field(default_factory=list, init=False)  # per block: worst path mass

    def worst_contraction(self) -> float:
        vals = [c for c in self.contractions if np.isfinite(c)]
        return max(vals) if vals else 0.0


class PicardError(RuntimeError):
    def __init__(self, message: str, diagnostics: PicardDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _default_blocks(problem: SEEProblem, ens: MartEnsemble) -> list[tuple[int, int]]:
    """Dyadic split until (L_F + L_G) max(sqrt(len), sqrt(mass)) < 0.45."""
    grid = ens.grid
    lip = problem.lip_drift + problem.lip_noise
    prefix = ens.bracket.prefix()
    for n in range(0, int(np.log2(max(grid.n_cells, 2))) + 1):
        pieces = np.array_split(np.arange(grid.n_cells), 2**n)
        bounds = [(int(p[0]), int(p[-1]) + 1) for p in pieces if p.size]
        crit = 0.0
        for i0, i1 in bounds:
            span = grid.points[i1] - grid.points[i0]
            mass = float((prefix[:, i1] - prefix[:, i0]).max())
            crit = max(crit, lip * max(np.sqrt(span), np.sqrt(mass)))
        if crit < 0.45 or 2**n >= grid.n_cells:
            return bounds
    return bounds


def _validate_constants(problem: SEEProblem, ens: MartEnsemble) -> None:
    """Two-point checks of the declared constants, at 1000 pairs of states
    and times drawn from the ensemble's seed over its horizon."""
    rng = single_rng(ens.seed, stream=17)
    m = problem.dim
    xs = rng.standard_normal((1000, m)) * 3.0
    ys = rng.standard_normal((1000, m)) * 3.0
    ts = rng.uniform(0.0, ens.grid.horizon, 1000)
    d_cyl = ens.sigma_path.shape[-2]
    for t in np.unique(np.round(ts[:5], 3)):
        fx = _eval_drift(problem, t, xs)
        fy = _eval_drift(problem, t, ys)
        dx = np.linalg.norm(xs - ys, axis=1)
        df = np.linalg.norm(fx - fy, axis=1)
        if np.any(df > problem.lip_drift * dx * (1 + LIPSCHITZ_SLACK) + LIPSCHITZ_SLACK):
            raise ValueError("declared drift Lipschitz constant is violated")
        growth = np.linalg.norm(fx, axis=1)
        if np.any(
            growth
            > problem.growth_drift * (1 + np.linalg.norm(xs, axis=1)) * (1 + LIPSCHITZ_SLACK)
            + LIPSCHITZ_SLACK
        ):
            raise ValueError("declared drift growth constant is violated")
        gx = _eval_noise(problem, t, xs, d_cyl)
        gy = _eval_noise(problem, t, ys, d_cyl)
        dg = np.sqrt(np.sum((gx - gy) ** 2, axis=(1, 2)))
        if np.any(dg > problem.lip_noise * dx * (1 + LIPSCHITZ_SLACK) + LIPSCHITZ_SLACK):
            raise ValueError("declared noise Lipschitz constant is violated")


def picard_solve(
    problem: SEEProblem,
    ens: MartEnsemble,
    tol: float = 1e-8,
    validate: bool = True,
) -> tuple[np.ndarray, PicardDiagnostics]:
    """Fixed-point iteration of the mild map over a dyadic block schedule.

    Starting from the frozen continuation exp(tA) u0, each block iterates
    until the successive V-distance drops below ``tol``.  A block whose
    distance is not below ``tol`` after PICARD_SWEEPS sweeps, or is NaN,
    raises :class:`PicardError` carrying the last distance and the measured
    contraction.  The solve overwrites one iterate of its own in place,
    stored time-major as (K+1, paths, dim) so that each grid point the map
    reads or overwrites is one contiguous block.  A sweep's distance is
    accumulated as each point is overwritten, into two per-path sums
    (``_VSums``), so next to the iterate a solve holds one tile of
    increments and a few per-path rows, no (paths, cells) array.  The
    solution returned is that iterate's (paths, K+1, dim) view, not a copy:
    ``u[:, j]`` is contiguous and ``u[i]`` is strided.
    """
    grid = ens.grid
    if not finite_above_zero(tol):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if validate:
        _validate_constants(problem, ens)
    diag = PicardDiagnostics(blocks=_default_blocks(problem, ens))

    n, kp1, m = _path_shape(problem, ens)
    # the recursion with a zero increment, so a drift- and noise-free problem
    # is an exact fixed point of the discrete map
    u = np.empty((kp1, n, m))
    u[0] = problem.initial_states(n)
    for j in range(kp1 - 1):
        u[j + 1] = problem.semigroup.apply(grid.widths[j], u[j] + 0.0)

    prefix = ens.bracket.prefix()
    for i0, i1 in diag.blocks:
        diag.block_mass.append(float((prefix[:, i1] - prefix[:, i0]).max()))
        block_base = u[i0].copy()
        dists = []
        ratio = np.nan
        for _ in range(PICARD_SWEEPS):
            change = _VSums(ens, m)
            _mild_map(problem, ens, u, i0, i1, block_base, change)
            dist = change.norm()
            dists.append(dist)
            if len(dists) >= 2 and dists[-2] > 0:
                ratio = dists[-1] / dists[-2]
            if not dist >= tol:  # below tol, or NaN, which no further sweep mends
                break
        diag.distances.append(dists)
        diag.contractions.append(ratio)
        if not dists[-1] < tol:
            raise PicardError(
                f"block [{i0}, {i1}) did not contract below tol: last distance "
                f"{dists[-1]:.3g}, measured contraction {ratio:.3g}",
                diag,
            )
    return u.swapaxes(0, 1), diag


@dataclass(frozen=True)
class ResidualStats:
    sup_gaps: np.ndarray  # per path

    @property
    def max(self) -> float:
        return float(self.sup_gaps.max())


def mild_residual(u: np.ndarray, problem: SEEProblem, ens: MartEnsemble) -> ResidualStats:
    """Pathwise sup distance between u and its variation-of-constants image.

    The image (flow + deterministic convolution) + stochastic convolution is
    formed a grid point at a time, both convolutions run from the same tiles
    of increments, and each path keeps a running maximum of its squared
    gap.  ``u``
    may be in any layout, such as ``picard_solve``'s time-major view.
    """
    _path_shape(problem, ens, u)
    grid = ens.grid
    sg = problem.semigroup
    base = problem.initial_states(ens.n_paths)
    points = np.swapaxes(u, 0, 1)
    # at t_0 the image is the initial state itself
    gap = np.subtract(points[0], base)
    sup = np.add.reduce(np.square(gap, out=gap), axis=1)
    row = np.empty_like(sup)
    det = stoch = np.zeros_like(base)  # the two convolutions at t_j
    for lo, drift, noise in _increments(problem, ens, points, 0, grid.n_cells):
        for j in range(lo, lo + len(drift)):
            det = sg.apply(grid.widths[j], det + drift[j - lo])
            stoch = sg.apply(grid.widths[j], stoch + noise[j - lo])
            np.add(sg.flow(grid.points[j + 1], base), det, out=gap)
            gap += stoch
            np.subtract(points[j + 1], gap, out=gap)
            np.add.reduce(np.square(gap, out=gap), axis=1, out=row)
            np.maximum(sup, row, out=sup)  # propagates NaN, as max does
    return ResidualStats(sup_gaps=np.sqrt(sup, out=sup))  # sqrt is monotone


def lipschitz_quotient(
    problem: SEEProblem,
    ens: MartEnsemble,
    u_a: np.ndarray,
    u_b: np.ndarray,
    i0: int = 0,
    i1: int | None = None,
) -> float:
    """Measured V-norm quotient (p = 2) of the mild map between two probe
    inputs on the window of cells i0..i1-1, checked as ``fixed_point_map``
    checks it."""
    if i1 is None:
        i1 = ens.grid.n_cells
    base = problem.initial_states(ens.n_paths)
    fa = fixed_point_map(problem, ens, u_a, i0=i0, i1=i1, base=base)
    fb = fixed_point_map(problem, ens, u_b, i0=i0, i1=i1, base=base)
    num = _window_distance(fa, fb, ens, i0, i1)
    den = _window_distance(u_a, u_b, ens, i0, i1)
    return num / den if den > 0 else np.nan


@dataclass(frozen=True)
class LocalizationReport:
    stop_gaps: np.ndarray | None  # per path, sup over [0, tau]
    event_gaps: np.ndarray | None  # per agreeing path, sup over [0, T]

    def max_stop_gap(self) -> float:
        return float(self.stop_gaps.max()) if self.stop_gaps is not None else 0.0

    def max_event_gap(self) -> float:
        return float(self.event_gaps.max()) if self.event_gaps is not None else 0.0


def localization_consistency(
    problem: SEEProblem,
    ens: MartEnsemble,
    tau_idx: np.ndarray | None = None,
    u0_alt: np.ndarray | None = None,
    agree_mask: np.ndarray | None = None,
    tol: float = 1e-8,
) -> LocalizationReport:
    """Stopped-driver and agreeing-initial-value consistency of the solver.

    With ``tau_idx``: solving against the driver frozen at tau agrees with
    the full solve pathwise on [0, tau].  With ``u0_alt``/``agree_mask``:
    solutions from initial values that coincide on the masked paths coincide
    there for all times.
    """
    if u0_alt is not None:
        if agree_mask is None:
            raise ValueError("u0_alt needs the mask of agreeing paths")
        agree_mask = np.asarray(agree_mask, dtype=bool)
        if agree_mask.shape != (ens.n_paths,):
            raise ValueError(f"agree_mask needs one entry per path, {ens.n_paths} in all")
    u_full, _ = picard_solve(problem, ens, tol=tol, validate=False)
    stop_gaps = None
    event_gaps = None
    if tau_idx is not None:
        tau_idx = grid_stop_indices(tau_idx, ens.n_paths, ens.grid.n_cells)
        stopped = stop_ensemble(ens, tau_idx)
        u_stop, _ = picard_solve(problem, stopped, tol=tol, validate=False)
        diffs = np.linalg.norm(u_full - u_stop, axis=2)  # (n, K+1)
        mask = np.arange(ens.grid.n_cells + 1)[None, :] <= tau_idx[:, None]
        stop_gaps = np.where(mask, diffs, 0.0).max(axis=1)
    if u0_alt is not None:
        u_alt, _ = picard_solve(replace(problem, u0=u0_alt), ens, tol=tol, validate=False)
        diffs = np.linalg.norm(u_full - u_alt, axis=2).max(axis=1)
        event_gaps = diffs[agree_mask]
    return LocalizationReport(stop_gaps=stop_gaps, event_gaps=event_gaps)
