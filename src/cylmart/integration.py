"""Stochastic integrals against simulated cylindrical martingale truncations.

Integrals are accumulated through the driver at left endpoints: each cell's
increment is (phi sigma) dW, the fused matrix phi sigma applied to the
driver increment, so an integral forms neither sigma dW nor M and carries no
realized-variation bias.  :func:`integral_steps` is the one walk that forms
these increments and their running sum; every reader of int phi dM goes
through it.  Brackets of integrals, covariation operators, the
bilinear Cauchy-Schwarz check and optional stopping live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import cell_apply, first_exceeding, prefix_sums
from .martingales import (
    MartEnsemble,
    NoiseSpec,
    OperatorProcess,
    grid_stop_indices,
    operator_rate,
    rate_pairing,
    stop_ensemble,
)
from .measures import GridMeasure, TimeGrid

__all__ = [
    "IntegrandProcess",
    "IntegralPaths",
    "integral_steps",
    "integrate",
    "bracket_of_integral",
    "covariation_operator",
    "kunita_watanabe_check",
    "first_passage_time",
    "stop_integral",
    "StoppedIntegral",
    "CheckReport",
]


@dataclass(frozen=True)
class IntegrandProcess:
    """Operator-valued integrand at cell left endpoints.

    ``matrices`` is (K, m, d_cyl) for deterministic integrands or
    (n_paths, K, m, d_cyl) per path, stored C-ordered; adapted integrands
    must only read information strictly before their cell.
    """

    grid: TimeGrid
    matrices: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrices, dtype=float)
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


def _check_integrand(phi: IntegrandProcess, ens: MartEnsemble) -> None:
    """Raise unless phi lives on the ensemble's grid, reads its cylinder
    space and, if it is per path, has one path per ensemble path."""
    if phi.grid != ens.grid:
        raise ValueError("integrand and ensemble grids differ")
    if (d := phi.matrices.shape[-1]) != ens.spec.d_cyl:
        raise ValueError(f"integrand input dimension {d} differs from d_cyl {ens.spec.d_cyl}")
    if phi.matrices.ndim == 4 and phi.matrices.shape[0] != ens.n_paths:
        raise ValueError("per-path integrand does not match path count")


def integral_steps(phi: IntegrandProcess, ens: MartEnsemble) -> Iterator[tuple]:
    """Walk int phi dM cell by cell, the one spelling of phi dM and of its
    running sum: cell j yields phi_j sigma_j (a per-cell matmul), the
    increment (phi_j sigma_j) dW_j and zeta(t_{j+1}), both (n, m).  zeta
    starts as cell 0's increment, as cumsum does (a -0.0 keeps its sign),
    and adds later cells left to right into fresh arrays.  phi is checked
    at the call, before the first step."""
    _check_integrand(phi, ens)
    mats, sig, dw = phi.matrices, ens.sigma_path, ens.driver_increments

    def walk():
        zeta = None
        for j in range(dw.shape[1]):
            phi_sig = mats[..., j, :, :] @ sig[..., j, :, :]
            inc = cell_apply(phi_sig, dw[:, j])
            zeta = inc.copy() if zeta is None else zeta + inc
            yield phi_sig, inc, zeta

    return walk()


def integrate(phi: IntegrandProcess, ens: MartEnsemble) -> IntegralPaths:
    """Left-point integral: zeta(t_j) = sum_{i<j} phi(t_i) sigma(t_i) dW_{i+1}."""
    out = np.zeros((ens.n_paths, ens.grid.n_cells + 1, phi.target_dim))
    for j, (_, _, zeta) in enumerate(integral_steps(phi, ens), 1):
        out[:, j] = zeta
    return IntegralPaths(ens.grid, out)


def bracket_of_integral(
    phi_row: np.ndarray, spec: NoiseSpec, grid: TimeGrid
) -> GridMeasure:
    """Exact bracket of the scalar integral of a row integrand.

    Increment = <phi, sigma Q sigma^T phi> dt, the operator density paired
    with the row at each cell.
    """
    phi_row = np.asarray(phi_row, dtype=float)
    rows = np.broadcast_to(phi_row, (grid.n_cells, phi_row.shape[-1]))[:, None, :]
    sig = spec.sigma_on_grid(grid)
    vals = rate_pairing(rows, operator_rate(sig, spec.q(), sig), rows)
    return GridMeasure(grid, vals * grid.widths)


def _covariation_rate(spec1: NoiseSpec, spec2: NoiseSpec, grid: TimeGrid) -> np.ndarray:
    """sigma_2 Q sigma_1^T per cell, shape (K, d_cyl2, d_cyl1); raises unless
    the two specs share one driver (the same d_drive and covariance Q)."""
    if spec1.d_drive != spec2.d_drive or not np.array_equal(spec1.q(), spec2.q()):
        raise ValueError("specs must share one driver: the same d_drive and covariance Q")
    return operator_rate(spec2.sigma_on_grid(grid), spec1.q(), spec1.sigma_on_grid(grid))


def covariation_operator(
    spec1: NoiseSpec, spec2: NoiseSpec, grid: TimeGrid
) -> OperatorProcess:
    """Cumulative covariation operator of two truncations on a shared driver.

    Entry (y, x) at t_j is sum_{i<j} (sigma_2 Q sigma_1^T)[y, x] dt; for
    spec1 == spec2 this is the operator bracket.
    """
    rate = _covariation_rate(spec1, spec2, grid)
    return OperatorProcess(grid, prefix_sums(rate * grid.widths[:, None, None]))


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
    d1) and ``g`` (..., K, d2), and reports the worst slack.  Either is
    refused by name if it has another shape or is not all finite, and so are
    path axes that do not broadcast.
    """
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    for name, x, spec in (("f", f, spec1), ("g", g, spec2)):
        if x.shape[-2:] != (grid.n_cells, spec.d_cyl):
            raise ValueError(f"{name} must be (..., {grid.n_cells}, {spec.d_cyl}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"{name} is not all finite")
    try:
        np.broadcast_shapes(f.shape[:-2], g.shape[:-2])
    except ValueError:
        raise ValueError(f"f and g path axes differ, {f.shape[:-2]} and {g.shape[:-2]}") from None
    # one-row matrices per (path, cell), so that a deterministic f or g
    # (K, d) pairs with every path
    f, g = f[..., None, :], g[..., None, :]
    dt = grid.widths
    lhs = (rate_pairing(g, _covariation_rate(spec1, spec2, grid), f) @ dt) ** 2
    r1 = rate_pairing(f, _covariation_rate(spec1, spec1, grid), f) @ dt
    r2 = rate_pairing(g, _covariation_rate(spec2, spec2, grid), g) @ dt
    slack = r1 * r2 - lhs
    scale = max(float(np.max(r1 * r2)), 1e-300)
    worst = float(np.min(slack))
    return CheckReport(worst_slack=worst / scale, tolerance=1e-9)


def first_passage_time(ens: MartEnsemble, level: float) -> np.ndarray:
    """First grid index where the bracket exceeds ``level``, one past the clock's
    tau (``_util.first_exceeding``), K if never reached; ``level`` must be finite."""
    if not np.isfinite(level):
        raise ValueError(f"passage level must be finite, got {level!r}")
    prefix = ens.bracket.prefix()
    return np.minimum(first_exceeding(prefix, level, prefix[:, -1]), ens.grid.n_cells)


@dataclass(frozen=True)
class StoppedIntegral:
    """The three equal forms of a stopped integral."""

    stopped_path: IntegralPaths
    indicator_integrand: IntegralPaths
    stopped_driver: IntegralPaths

    @property
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
    cut = phi.matrices * keep[:, :, None, None]
    indicator = integrate(IntegrandProcess(ens.grid, cut), ens)

    frozen = integrate(phi, stop_ensemble(ens, tau_idx))
    return StoppedIntegral(stopped_path, indicator, frozen)

