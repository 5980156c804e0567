"""Mild-solution solver for du = (Au + F(t,u)) dt + G(t,u) dM.

The generator is a symmetric negative-semidefinite matrix (possibly zero), so
the semigroup is contractive and self-adjoint.  Each problem validates its
generator and builds its semigroup once, when it is made; the semigroup
applies through a cached eigendecomposition, with exp(tA) built once per
distinct t, and as a scalar multiply in one dimension.  Every left-point
convolution, the mild map, the mild residual and Picard's initial flow run
one scan, acc <- exp(dt A)(acc + increment), cell by cell, over a sequence
of grid points in whatever layout the caller holds, and hand each point's
state to the caller once that point's increment has been taken.  Each
cell's noise increment G (sigma dW) is formed from sigma and the driver
increments of that cell alone, the increments copied time-major SCAN_TILE
cells at a time, so no (paths, cells) array of sigma dW is formed.
Solutions are produced by fixed-point iteration of the variation-of-constants
map on a dyadic block schedule, with distances measured in the V norm
(L2-in-time moment plus bracket-weighted kernel moment).  The iteration
overwrites one iterate in place, stored time-major as (grid points, paths,
dim) so that each point it reads or writes is one contiguous block, and
keeps one (paths, cells) buffer of squared changes per block; the mild
residual streams its gap point by point.
Per-block stopping times cap the bracket mass a block can carry, and
localization checks compare runs against stopped drivers pathwise.
"""

from __future__ import annotations

import itertools
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
from .measures import TimeGrid
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
# cells per time-major tile of the driver increments that the noise step
# reads, and per tile of a block's squared changes
SCAN_TILE = 4


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
    t; the scans call them with cell widths only, so a uniform grid builds
    exp(dt A) once.  ``flow(t, x)`` takes any t and caches nothing.  In one
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


def _eval_noise(problem: SEEProblem, t: float, states: np.ndarray) -> np.ndarray:
    """G(t, states), C-ordered (``cell_apply``'s bits depend on the layout)."""
    g = np.ascontiguousarray(problem.noise_map(t, states), dtype=float)
    if g.ndim == 2:
        g = np.broadcast_to(g, (states.shape[0],) + g.shape)
    return g


def _scan(
    sg: Semigroup,
    grid: TimeGrid,
    step: Callable,
    acc: np.ndarray,
    points: np.ndarray,
    i0: int,
    i1: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The left-point variation-of-constants recursion from ``acc``, the state
    at t_{i0}: acc <- exp(dt_j A)(acc + step(j, points[j])) for cells
    i0 <= j < i1.

    ``points[j]`` is the (paths, dim) state at t_j, in whatever layout the
    caller holds: a time-major array or a swapped view of a path-major one.
    Yields (j, points[j], state at t_j) for i0 <= j <= i1, each once step(j)
    has been taken, so a caller may overwrite point j then.  With the
    identity semigroup the sums run left to right, bit for bit as
    ``_util.prefix_sums`` adds them.
    """
    for j in range(i0, i1 + 1):
        x = points[j]
        nxt = sg.apply(grid.widths[j], acc + step(j, x)) if j < i1 else None
        yield j, x, acc
        acc = nxt


def _drift_step(problem: SEEProblem, grid: TimeGrid) -> Callable:
    """Cell j's drift increment F(t_j, x) dt_j at the state x."""
    return lambda j, x: np.asarray(problem.drift(grid.points[j], x), dtype=float) * grid.widths[j]


def _noise_step(problem: SEEProblem, ens: MartEnsemble) -> Callable:
    """Cell j's noise increment G(t_j, x) sigma_j dW_j at the state x.

    The driver increments are copied time-major into one tile of SCAN_TILE
    cells, refilled from cell j when a step falls outside it, so dW_j is a
    contiguous block; sigma_j dW_j is bit for bit cell j of ``ens.driven``,
    which stays unformed.
    """
    sigma, dw = ens.sigma_path, ens.driver_increments
    k = ens.grid.n_cells
    dw_tile = np.empty((min(SCAN_TILE, k),) + dw[:, 0].shape)
    lo = hi = 0  # the cells the tile holds

    def step(j, x):
        nonlocal lo, hi
        if not lo <= j < hi:
            lo, hi = j, min(j + len(dw_tile), k)
            np.copyto(dw_tile[: hi - lo], dw[:, lo:hi].swapaxes(0, 1))
        return cell_apply(
            _eval_noise(problem, ens.grid.points[j], x),
            cell_apply(sigma[..., j, :, :], dw_tile[j - lo]),
        )

    return step


def _mild_map(
    problem: SEEProblem,
    ens: MartEnsemble,
    u: np.ndarray,
    i0: int,
    i1: int,
    base: np.ndarray,
    sq: np.ndarray | None = None,
) -> np.ndarray:
    """Overwrite the iterate ``u``, indexed time-major as (K+1, n, m), on
    [t_{i0}, t_{i1}] with its image under the mild map started from ``base``
    at t_{i0}.  ``u`` may be a time-major array or a swapped view of a
    path-major one.

    Drift and noise read each point of ``u`` before it is overwritten.
    Given ``sq`` of shape (n, i1 - i0), the change of each point
    i0 <= j < i1, sum over m of (new - old)^2, is written to column j - i0.
    """
    _, n, m = u.shape
    drift = _drift_step(problem, ens.grid)
    noise = _noise_step(problem, ens)
    gap = np.empty((n, m))
    # squared changes gathered a tile of cells at a time before one
    # transposed write into the (paths, cells) buffer: written a column at a
    # time, its dyadic row strides map every path to a few cache sets
    sq_tile = np.empty((min(SCAN_TILE, i1 - i0), n))
    states = _scan(
        problem.semigroup, ens.grid, lambda j, x: drift(j, x) + noise(j, x), base, u, i0, i1
    )
    for j, old, new in states:
        c = j - i0
        if sq is not None and j < i1:
            np.subtract(new, old, out=gap)
            np.add.reduce(np.square(gap, out=gap), axis=1, out=sq_tile[c % len(sq_tile)])
            if c % len(sq_tile) == len(sq_tile) - 1 or j == i1 - 1:
                lo = c - c % len(sq_tile)
                sq[:, lo : c + 1] = sq_tile[: c + 1 - lo].T
        u[j] = new
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
    (paths, K+1, dim) on the ensemble's grid.
    """
    grid = ens.grid
    if np.ndim(u) != 3 or np.shape(u)[:2] != (ens.n_paths, grid.n_cells + 1):
        raise ValueError(
            f"u must have shape ({ens.n_paths}, {grid.n_cells + 1}, dim), got {np.shape(u)}"
        )
    # squared C-ordered whatever u's layout: _window_norm's sums and matmul
    # take another path, in other bits, on a transposed array
    k = grid.n_cells
    return _window_norm(np.sum(np.square(u[:, :k, :], order="C"), axis=2), ens, 0, k)


def _window_norm(sq: np.ndarray, ens: MartEnsemble, i0: int, i1: int) -> float:
    """``vp_norm`` from the squared path norms on the window alone: ``sq`` is
    (n, i1 - i0), at the left endpoints of cells i0..i1-1, and is overwritten."""
    l2 = np.sqrt(sq @ ens.grid.widths[i0:i1])
    # sq is not read again: weigh it by the bracket in place
    gam = np.sqrt(np.sum(np.multiply(sq, ens.bracket.increments[:, i0:i1], out=sq), axis=1))
    return float(np.mean(l2**2) ** 0.5 + np.mean(gam**2) ** 0.5)


def _window_distance(u: np.ndarray, v: np.ndarray, ens: MartEnsemble, i0: int, i1: int) -> float:
    """``vp_norm`` of u - v on cells i0..i1-1, with the difference formed
    (C-ordered, as in ``vp_norm``) and squared on the window alone."""
    gap = np.subtract(u[:, i0:i1], v[:, i0:i1], order="C")
    return _window_norm(np.sum(np.square(gap, out=gap), axis=2), ens, i0, i1)


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
    for t in np.unique(np.round(ts[:5], 3)):
        fx = np.asarray(problem.drift(t, xs), dtype=float)
        fy = np.asarray(problem.drift(t, ys), dtype=float)
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
        gx = _eval_noise(problem, t, xs)
        gy = _eval_noise(problem, t, ys)
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
    stored time-major as (K+1, paths, dim) so that each grid point the scan
    reads or overwrites is one contiguous block.  The solution returned is
    that iterate's (paths, K+1, dim) view, not a copy: ``u[:, j]`` is
    contiguous and ``u[i]`` is strided.
    """
    grid = ens.grid
    if not finite_above_zero(tol):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if validate:
        _validate_constants(problem, ens)
    diag = PicardDiagnostics(blocks=_default_blocks(problem, ens))

    n, kp1, m = _path_shape(problem, ens)
    # the scan with a zero step, so a drift- and noise-free problem is an
    # exact fixed point of the discrete map
    u = np.zeros((kp1, n, m))
    base = problem.initial_states(n)
    for j, _, state in _scan(problem.semigroup, grid, lambda j, x: 0.0, base, u, 0, kp1 - 1):
        u[j] = state

    prefix = ens.bracket.prefix()
    for i0, i1 in diag.blocks:
        diag.block_mass.append(float((prefix[:, i1] - prefix[:, i0]).max()))
        block_base = u[i0].copy()
        sq = np.empty((n, i1 - i0))
        dists = []
        ratio = np.nan
        for _ in range(PICARD_SWEEPS):
            _mild_map(problem, ens, u, i0, i1, block_base, sq)
            dist = _window_norm(sq, ens, i0, i1)
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
    formed a grid point at a time, both convolutions streamed from their
    scans, and each path keeps a running maximum of its squared gap.  ``u``
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
    zero = np.zeros_like(base)
    det = _scan(sg, grid, _drift_step(problem, grid), zero, points, 0, grid.n_cells)
    stoch = _scan(sg, grid, _noise_step(problem, ens), zero, points, 0, grid.n_cells)
    for (j, point, d), (_, _, s) in itertools.islice(zip(det, stoch), 1, None):
        np.add(sg.flow(grid.points[j], base), d, out=gap)
        gap += s
        np.subtract(point, gap, out=gap)
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
