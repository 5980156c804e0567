"""Mild-solution solver for du = (Au + F(t,u)) dt + G(t,u) dM.

The generator is a symmetric negative-semidefinite matrix (possibly zero), so
the semigroup is contractive and self-adjoint.  Each problem validates its
generator and builds its semigroup once, when it is made; the semigroup
applies through a cached eigendecomposition, with exp(tA) built once per
distinct t.  Every left-point convolution, the mild map and the mild
residual run one scan, acc <- exp(dt A)(acc + increment), cell by cell,
which hands each grid point's state to its caller once that point's
increment has been taken.
Solutions are produced by fixed-point iteration of the variation-of-constants
map on a dyadic block schedule, with distances measured in the V norm
(L2-in-time moment plus bracket-weighted kernel moment).  The iteration
overwrites one iterate in place and keeps one (paths, cells) buffer of
squared changes per block; the mild residual streams its gap point by point.
Per-block stopping times cap the bracket mass a block can carry, and
localization checks compare runs against stopped drivers pathwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from ._util import finite_above_zero, int_at_least, single_rng
from .martingales import BracketPaths, MartEnsemble, grid_stop_indices, stop_ensemble
from .measures import TimeGrid

__all__ = [
    "SEEProblem",
    "Semigroup",
    "det_convolution",
    "stoch_convolution",
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
# cells of squared changes gathered before one transposed write into a block's
# (paths, cells) buffer: written a column at a time, its dyadic row strides
# map every path to a few cache sets
SQ_TILE = 16


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
    name: str = ""
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

    ``matrix(t)`` caches one read-only matrix per distinct t, so a uniform
    grid builds exp(dt A) once.
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
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > 1e-12 * scale:
            raise ValueError("generator must be symmetric")
        vals, vecs = np.linalg.eigh(a)
        if np.any(vals > GENERATOR_EIG_RTOL * scale):
            raise ValueError(f"generator has a positive eigenvalue ({vals.max():.3e})")
        self.identity = False
        self.vals = np.minimum(vals, 0.0)
        self.vecs = vecs

    def matrix(self, t: float) -> np.ndarray:
        mat = self._matrices.get(t)
        if mat is None:
            if self.identity:
                mat = np.eye(self.dim)
            else:
                mat = (self.vecs * np.exp(t * self.vals)) @ self.vecs.T
            mat.setflags(write=False)
            self._matrices[t] = mat
        return mat

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        """exp(tA) x along the last axis; contraction for t >= 0."""
        return x if self.identity else x @ self.matrix(t).T


def _path_shape(
    problem: SEEProblem, ens: MartEnsemble, u: np.ndarray | None = None, what: str = "u"
) -> tuple[int, int, int]:
    """(paths, grid points, dim), the shape of a solution; ``u``, if given,
    must have it."""
    shape = (ens.n_paths, ens.grid.n_cells + 1, problem.dim)
    if u is not None and np.shape(u) != shape:
        raise ValueError(f"{what} must have shape {shape}, got {np.shape(u)}")
    return shape


def _eval_noise(problem: SEEProblem, t: float, states: np.ndarray) -> np.ndarray:
    g = np.asarray(problem.noise_map(t, states), dtype=float)
    if g.ndim == 2:
        g = np.broadcast_to(g, (states.shape[0],) + g.shape)
    return g


def _scan(
    sg: Semigroup, grid: TimeGrid, step: Callable, acc: np.ndarray, i0: int, i1: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The left-point variation-of-constants recursion from ``acc``, the state
    at t_{i0}: acc <- exp(dt_j A)(acc + step(j)) for cells i0 <= j < i1.

    Yields (j, state at t_j) for i0 <= j <= i1, each once step(j) has been
    taken, so a caller may overwrite point j of the path that ``step`` reads.
    With the identity semigroup the sums run left to right, bit for bit as
    ``_util.prefix_sums`` adds them.
    """
    for j in range(i0, i1):
        nxt = sg.apply(grid.widths[j], acc + step(j))
        yield j, acc
        acc = nxt
    yield i1, acc


def _fill(out: np.ndarray, states: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """Write each state a scan yields to its grid point of ``out``."""
    for j, state in states:
        out[:, j, :] = state
    return out


def _drift_step(problem: SEEProblem, grid: TimeGrid, u: np.ndarray) -> Callable:
    """Cell j's drift increment F(t_j, u_j) dt_j."""
    return lambda j: (
        np.asarray(problem.drift(grid.points[j], u[:, j, :]), dtype=float) * grid.widths[j]
    )


def _noise_step(problem: SEEProblem, ens: MartEnsemble, u: np.ndarray) -> Callable:
    """Cell j's noise increment G(t_j, u_j) sigma dW_j."""
    driven = ens.driven_increments()  # (n, K, dc)
    return lambda j: np.einsum(
        "nmc,nc->nm", _eval_noise(problem, ens.grid.points[j], u[:, j, :]), driven[:, j, :]
    )


def det_convolution(problem: SEEProblem, grid: TimeGrid, u: np.ndarray) -> np.ndarray:
    """Left-point quadrature of int_0^t exp((t-s)A) F(s, u(s)) ds.

    Runs the stable recursion c_{j+1} = exp(dt A)(c_j + F_j dt), which is the
    exact left-point sum thanks to the semigroup property.  ``u`` is
    (paths, K+1, dim) on ``grid``.
    """
    if np.ndim(u) != 3 or np.shape(u)[1:] != (grid.n_cells + 1, problem.dim):
        raise ValueError(
            f"u must have shape (paths, {grid.n_cells + 1}, {problem.dim}), got {np.shape(u)}"
        )
    step = _drift_step(problem, grid, u)
    out = np.zeros_like(u)
    return _fill(out, _scan(problem.semigroup, grid, step, out[:, 0], 0, grid.n_cells))


def stoch_convolution(
    problem: SEEProblem, ens: MartEnsemble, u: np.ndarray
) -> np.ndarray:
    """Left-point sum of int_0^t exp((t-s)A) G(s, u(s)) dM_s.

    With a zero generator this reduces to plain accumulation of G sigma dW,
    bit-identical to the integral of the same integrand.
    """
    _path_shape(problem, ens, u)
    step = _noise_step(problem, ens, u)
    out = np.zeros_like(u)
    return _fill(out, _scan(problem.semigroup, ens.grid, step, out[:, 0], 0, ens.grid.n_cells))


def _mild_map(
    problem: SEEProblem,
    ens: MartEnsemble,
    u: np.ndarray,
    i0: int,
    i1: int,
    base: np.ndarray,
    sq: np.ndarray | None = None,
) -> np.ndarray:
    """Overwrite ``u`` on [t_{i0}, t_{i1}] with its image under the mild map
    started from ``base`` at t_{i0}.

    Drift and noise read each point of ``u`` before it is overwritten.  Given
    ``sq`` of shape (n, i1 - i0), the change of each point i0 <= j < i1,
    sum over m of (new - old)^2, is written to column j - i0.
    """
    n, _, m = u.shape
    drift = _drift_step(problem, ens.grid, u)
    noise = _noise_step(problem, ens, u)
    sg = problem.semigroup
    gap = np.empty((n, m))
    tile = np.empty((min(SQ_TILE, i1 - i0), n))
    for j, new in _scan(sg, ens.grid, lambda j: drift(j) + noise(j), base, i0, i1):
        c = j - i0
        if sq is not None and j < i1:
            np.subtract(new, u[:, j, :], out=gap)
            np.add.reduce(np.square(gap, out=gap), axis=1, out=tile[c % len(tile)])
            if c % len(tile) == len(tile) - 1 or j == i1 - 1:
                lo = c - c % len(tile)
                sq[:, lo : c + 1] = tile[: c + 1 - lo].T
        u[:, j, :] = new
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
    ``u``.
    """
    n, kp1, _ = _path_shape(problem, ens, u)
    if i1 is None:
        i1 = kp1 - 1
    if base is None:
        base = problem.initial_states(n)
    return _mild_map(problem, ens, u.copy(), i0, i1, base)


def vp_norm(
    u: np.ndarray,
    ens: MartEnsemble,
    a: float = 0.0,
    b: float | None = None,
    p: float = 2.0,
) -> float:
    """Moment norm: (E ||u||_{L2(a,b)}^p)^{1/p} + (E ||u||_{bracket}^p)^{1/p}.

    The second summand weighs the path kernel by the per-path bracket (the
    Euclidean-flavor kernel norm, exact per path).  Cell values are the path
    values at left endpoints.
    """
    grid = ens.grid
    i0 = int(np.searchsorted(grid.points, a - 1e-12 * max(grid.horizon, 1.0)))
    i1 = grid.n_cells if b is None else int(
        np.searchsorted(grid.points, b - 1e-12 * max(grid.horizon, 1.0))
    )
    return _window_norm(np.sum(u[:, i0:i1, :] ** 2, axis=2), ens, p, i0, i1)


def _window_norm(sq: np.ndarray, ens: MartEnsemble, p: float, i0: int, i1: int) -> float:
    """``vp_norm`` from the squared path norms on the window alone: ``sq`` is
    (n, i1 - i0), at the left endpoints of cells i0..i1-1, and is overwritten."""
    l2 = np.sqrt(sq @ ens.grid.widths[i0:i1])
    # sq is not read again: weigh it by the bracket in place
    gam = np.sqrt(np.sum(np.multiply(sq, ens.bracket.increments[:, i0:i1], out=sq), axis=1))
    return float(np.mean(l2**p) ** (1.0 / p) + np.mean(gam**p) ** (1.0 / p))


def _window_distance(
    u: np.ndarray, v: np.ndarray, ens: MartEnsemble, p: float, i0: int, i1: int
) -> float:
    """``vp_norm`` of u - v on cells i0..i1-1, with the difference formed and
    squared on the window alone."""
    gap = u[:, i0:i1] - v[:, i0:i1]
    return _window_norm(np.sum(np.square(gap, out=gap), axis=2), ens, p, i0, i1)


def rho_stopping_times(bracket: BracketPaths, n: int) -> np.ndarray:
    """Per dyadic block, the first grid time its bracket mass exceeds T/2^n.

    T is the horizon of the bracket's grid.  The search stays inside the
    block: a block whose own mass never exceeds the cap reports inf.  Stopped
    at these times, each block carries at most T/2^n plus one cell of mass.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    grid = bracket.grid
    prefix = bracket.prefix()
    n_blocks = 2**n
    cap = grid.horizon / n_blocks
    snap = 1e-9 * max(grid.horizon, 1.0)
    out = np.full((prefix.shape[0], n_blocks), np.inf)
    for k in range(n_blocks):
        start = k * cap
        j0 = int(np.searchsorted(grid.points, start - snap))
        if abs(grid.points[j0] - start) > snap:
            raise ValueError(f"block start {start} is not a grid point")
        j1 = int(np.searchsorted(grid.points, start + cap - snap))
        excess = prefix[:, j0 + 1 : j1 + 1] - prefix[:, [j0]] > cap
        hit = excess.any(axis=1)
        first = np.argmax(excess, axis=1) + j0 + 1
        out[hit, k] = grid.points[first[hit]]
    return out


@dataclass
class PicardDiagnostics:
    blocks: list
    distances: list = field(default_factory=list)  # per block: list of V distances
    contractions: list = field(default_factory=list)  # per block: measured ratio
    block_mass: list = field(default_factory=list)  # per block: worst path mass

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


def _tiles(blocks, n_cells: int) -> bool:
    """Whether ``blocks`` are integer pairs (i0, i1), i0 < i1, each starting
    where the last ended, from 0 to ``n_cells``."""
    edge = 0
    for block in blocks:
        if np.shape(block) != (2,):
            return False
        i0, i1 = block
        if not (int_at_least(i0, edge) and i0 == edge and int_at_least(i1, edge + 1)):
            return False
        edge = i1
    return edge == n_cells


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
    p: float = 2.0,
    tol: float = 1e-8,
    max_iter: int = 60,
    blocks: list[tuple[int, int]] | None = None,
    validate: bool = True,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, PicardDiagnostics]:
    """Fixed-point iteration of the mild map over a dyadic block schedule.

    Starting from the frozen continuation exp(tA) u0 (or ``initial``), each
    block iterates until the successive V-distance drops below ``tol``.  A
    block that fails to contract raises :class:`PicardError` carrying the
    measured contraction and the advice to halve the block length.  The
    solve overwrites one iterate of its own in place (``initial`` is copied);
    ``blocks``, if given, must tile the grid's cells in order.
    """
    grid = ens.grid
    if not finite_above_zero(p) or p < 1:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    if not finite_above_zero(tol):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if not int_at_least(max_iter, 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if blocks is not None and not _tiles(blocks, grid.n_cells):
        raise ValueError(
            f"blocks must be an increasing, contiguous cover of [0, {grid.n_cells}] "
            f"by (i0, i1) pairs with i0 < i1, got {blocks!r}"
        )
    shape = _path_shape(problem, ens, initial, "initial")
    if validate:
        _validate_constants(problem, ens)
    if blocks is None:
        blocks = _default_blocks(problem, ens)
    diag = PicardDiagnostics(blocks=list(blocks))

    n = shape[0]
    base = problem.initial_states(n)
    if initial is None:
        # the scan with a zero step, so a drift- and noise-free problem is an
        # exact fixed point of the discrete map
        sg = problem.semigroup
        u = _fill(np.zeros(shape), _scan(sg, grid, lambda j: 0.0, base, 0, grid.n_cells))
    else:
        u = np.array(initial, dtype=float, order="C")
        u[:, 0, :] = base  # iterates may start anywhere; the anchor may not

    prefix = ens.bracket.prefix()
    for i0, i1 in blocks:
        diag.block_mass.append(float((prefix[:, i1] - prefix[:, i0]).max()))
        block_base = u[:, i0, :].copy()
        sq = np.empty((n, i1 - i0))
        dists = []
        ratio = np.nan
        for it in range(max_iter):
            _mild_map(problem, ens, u, i0, i1, block_base, sq)
            dist = _window_norm(sq, ens, p, i0, i1)
            dists.append(dist)
            if len(dists) >= 2 and dists[-2] > 0:
                ratio = dists[-1] / dists[-2]
            if dist < tol:
                break
        diag.distances.append(dists)
        diag.contractions.append(ratio)
        if dists[-1] >= tol:
            raise PicardError(
                "block did not contract below tol; halve the block length "
                f"(measured contraction {ratio:.3g})",
                diag,
            )
    return u, diag


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
    scans, and each path keeps a running maximum of its squared gap.
    """
    _path_shape(problem, ens, u)
    grid = ens.grid
    sg = problem.semigroup
    base = problem.initial_states(ens.n_paths)
    # at t_0 the image is the initial state itself
    gap = np.subtract(u[:, 0, :], base)
    sup = np.add.reduce(np.square(gap, out=gap), axis=1)
    row = np.empty_like(sup)
    zero = np.zeros_like(base)
    det = _scan(sg, grid, _drift_step(problem, grid, u), zero, 0, grid.n_cells)
    stoch = _scan(sg, grid, _noise_step(problem, ens, u), zero, 0, grid.n_cells)
    for (j, d), (_, s) in itertools.islice(zip(det, stoch), 1, None):
        np.add(sg.apply(grid.points[j], base), d, out=gap)
        gap += s
        np.subtract(u[:, j, :], gap, out=gap)
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
    """Measured V-norm quotient (p = 2) of the mild map between two probe inputs."""
    if i1 is None:
        i1 = ens.grid.n_cells
    base = problem.initial_states(ens.n_paths)
    fa = fixed_point_map(problem, ens, u_a, i0=i0, i1=i1, base=base)
    fb = fixed_point_map(problem, ens, u_b, i0=i0, i1=i1, base=base)
    num = _window_distance(fa, fb, ens, 2.0, i0, i1)
    den = _window_distance(u_a, u_b, ens, 2.0, i0, i1)
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
        if agree_mask is None:
            raise ValueError("u0_alt needs the mask of agreeing paths")
        alt = replace(problem, u0=u0_alt, name=problem.name + "-alt")
        u_alt, _ = picard_solve(alt, ens, tol=tol, validate=False)
        diffs = np.linalg.norm(u_full - u_alt, axis=2).max(axis=1)
        event_gaps = diffs[np.asarray(agree_mask, dtype=bool)]
    return LocalizationReport(stop_gaps=stop_gaps, event_gaps=event_gaps)
