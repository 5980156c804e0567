"""Moment checks for stochastic integrals: isometry, two-sided sup/kernel
moment ratios across instance panels, and a pathwise second-order chain-rule
(Ito-type) residual.

The two-sided comparison has no universal numeric constants; what is testable
at desk scale is that the ratio of E sup ||integral||^p to the p-th power of
the kernel's Gaussian-series norm stays inside a stable bracket per (p, norm
flavor), reproducible across master seeds.  That bracket is fitted and
recorded, never asserted a priori.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._util import flavor_norm, prefix_sums
from .gammanorm import GammaKernel, gamma_norm
from .integration import IntegrandProcess, integral_steps
from .martingales import MartEnsemble, NoiseSpec, operator_rate, rate_pairing, simulate
from .measures import GridMeasure, IncreasingPath
from .operators import psd_sqrt

__all__ = [
    "IsometryReport",
    "ito_isometry",
    "integral_kernel",
    "BDGInstance",
    "BDGReport",
    "bdg_ratio_panel",
    "fit_bracket",
    "trace_term",
    "validate_derivatives",
    "ItoReport",
    "ito_residual",
]


@dataclass(frozen=True)
class IsometryReport:
    lhs: float
    rhs: float
    z: float
    n_paths: int

    @property
    def passed(self) -> bool:
        return abs(self.z) <= 3.0


def integral_kernel(phi: IntegrandProcess, spec: NoiseSpec) -> GammaKernel:
    """Hilbert kernel phi sigma Q^{1/2} against dt on phi's grid, shape (K,
    m, d_drive); ``dataclasses.replace`` gives it another norm flavor.

    It has the covariance sum phi sigma Q sigma^T phi^T dt of the paper's
    kernel phi q_M^{1/2} against d[M], and a gamma-norm reads a kernel only
    through its covariance, so no per-cell square root of q_M is needed."""
    if phi.matrices.ndim != 3:
        raise ValueError("kernel construction needs a deterministic integrand")
    mats = phi.matrices @ spec.sigma_on_grid(phi.grid) @ psd_sqrt(spec.q())
    return GammaKernel(GridMeasure(phi.grid, phi.grid.widths), mats, "hilbert")


def _path_energy(phi: IntegrandProcess, ens: MartEnsemble) -> np.ndarray:
    """Each path's exact kernel energy, the sum over cells of
    tr(phi sigma Q sigma^T phi^T) dt, shape (n,).

    The rate and phi broadcast over whichever operand is per path, so a
    shared ensemble computes one row for all paths; each path is summed
    alone, so its energy does not depend on the ensemble's size.
    """
    sig = ens.sigma_path
    energy = rate_pairing(phi.matrices, operator_rate(sig, ens.spec.q(), sig), phi.matrices)
    return np.broadcast_to(np.sum(energy * ens.grid.widths, axis=-1), (ens.n_paths,))


def ito_isometry(phi: IntegrandProcess, ens: MartEnsemble) -> IsometryReport:
    """E ||integral(T)||^2 against the exact per-path kernel energy.

    The right side integrates the squared Hilbert-Schmidt size of
    phi (density)^{1/2} against the bracket, evaluated exactly per path; the
    z-score is the paired-difference mean over its standard error.  The
    walk keeps only the integral's terminal value, bit for bit
    ``integrate(phi, ens).terminal()``.
    """
    if ens.n_paths < 2:
        raise ValueError("ito_isometry needs n_paths >= 2 for a standard error")
    for _, _, terminal in integral_steps(phi, ens):
        pass
    lhs_paths = np.sum(terminal**2, axis=1)

    rhs_paths = _path_energy(phi, ens)
    diff = lhs_paths - rhs_paths
    se = float(np.std(diff, ddof=1) / np.sqrt(ens.n_paths))
    z = float(np.mean(diff) / se) if se > 0 else 0.0
    return IsometryReport(
        lhs=float(np.mean(lhs_paths)),
        rhs=float(np.mean(rhs_paths)),
        z=z,
        n_paths=ens.n_paths,
    )


@dataclass(frozen=True)
class BDGInstance:
    """One panel entry: the truncation and a deterministic integrand; the
    ensemble is simulated on the integrand's grid."""

    name: str
    spec: NoiseSpec
    phi: IntegrandProcess


@dataclass(frozen=True)
class BDGReport:
    instance: str
    p: float
    flavor: object
    n_paths: int
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    degenerate: bool = False

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else np.nan

    CSV_HEADER = (
        "instance,p,flavor,n_paths,lhs,lhs_stderr,rhs,rhs_stderr,ratio,degenerate"
    )


def _sup_norms(phi: IntegrandProcess, ens: MartEnsemble, flavors: Sequence) -> list:
    """Per flavor, each path's sup over the grid of ||zeta(t_j)||, a running
    np.maximum over the walk from ||zeta(0)|| = 0 that keeps a NaN."""
    sups = [np.zeros(ens.n_paths) for _ in flavors]
    for _, _, zeta in integral_steps(phi, ens):
        for flavor, sup in zip(flavors, sups):
            np.maximum(sup, flavor_norm(zeta, flavor), out=sup)
    return sups


def _panel_one(
    inst: BDGInstance,
    p_list: Sequence[float],
    flavors: Sequence,
    n_paths: int,
    seed: int,
    gamma_samples: int,
) -> list[BDGReport]:
    # the ensemble is the walk's argument alone, freed before the gamma-norms
    sup_norms = _sup_norms(inst.phi, simulate(inst.spec, inst.phi.grid, n_paths, seed), flavors)
    # the kernel's matrices and measure do not depend on the flavor
    kernel = integral_kernel(inst.phi, inst.spec)
    reports = []
    for flavor, sups in zip(flavors, sup_norms):
        est = gamma_norm(replace(kernel, flavor=flavor), n_samples=gamma_samples, seed=seed + 101)
        degenerate = est.value <= 1e-12
        for p in p_list:
            lhs_samples = sups**p
            lhs = float(np.mean(lhs_samples))
            lhs_se = float(np.std(lhs_samples, ddof=1) / np.sqrt(n_paths))
            rhs = est.value**p
            rhs_se = p * est.value ** (p - 1) * est.stderr if est.value > 0 else 0.0
            reports.append(
                BDGReport(inst.name, p, flavor, n_paths, lhs, lhs_se, rhs, rhs_se, degenerate)
            )
    return reports


def bdg_ratio_panel(
    instances: Sequence[BDGInstance],
    p_list: Sequence[float],
    flavors: Sequence,
    n_paths: int,
    seed: int,
    gamma_samples: int = 4096,
) -> list[BDGReport]:
    """Sup-moment versus kernel-norm moment across an instance panel.

    Instance i runs at seed ``seed + 1000 * i``, so each instance's reports
    depend on the master seed and its index alone.
    """
    if n_paths < 2:
        raise ValueError("bdg_ratio_panel needs n_paths >= 2 for a standard error")
    return [
        r
        for i, inst in enumerate(instances)
        for r in _panel_one(inst, p_list, flavors, n_paths, seed + 1000 * i, gamma_samples)
    ]


def fit_bracket(reports: Sequence[BDGReport]) -> dict:
    """Per (p, flavor): the smallest symmetric bracket [1/C, C] holding every
    non-degenerate ratio, with the ratio extremes recorded."""
    out = {}
    for rep in reports:
        if rep.degenerate or not np.isfinite(rep.ratio):
            continue
        key = (rep.p, str(rep.flavor))
        lo, hi = out.get(key, (np.inf, 0.0))
        out[key] = (min(lo, rep.ratio), max(hi, rep.ratio))
    return {
        key: {"min_ratio": lo, "max_ratio": hi, "C": max(hi, 1.0 / lo)}
        for key, (lo, hi) in out.items()
    }


def trace_term(r: np.ndarray, hess) -> float:
    """Sum over input directions of the bilinear form at (R e_j, R e_j).

    ``hess`` may be a symmetric matrix or a callable bilinear form; the value
    is basis-invariant in the input space.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if callable(hess):
        return float(sum(hess(r[:, j], r[:, j]) for j in range(r.shape[1])))
    hess = np.asarray(hess, dtype=float)
    return float(np.einsum("md,mf,fd->", r, hess, r))


def validate_derivatives(
    f: Callable,
    d1f: Callable,
    d2f: Callable,
    d22f: Callable,
    points: Sequence[tuple[float, np.ndarray]],
) -> None:
    """Cross-check supplied derivatives by central differences of step 1e-5;
    raises on a non-finite value of f or a derivative at a point, and on
    disagreement beyond 1e-4 relative to the local scale."""
    step, rtol = 1e-5, 1e-4

    def central(g, t, x, dt, dx):
        return (np.asarray(g(t + dt, x + dx))[0] - np.asarray(g(t - dt, x - dx))[0]) / (2 * step)

    for t, x in points:
        x = np.asarray(x, dtype=float)[None, :]
        for name, g in (("f", f), ("d1f", d1f), ("d2f", d2f), ("d22f", d22f)):
            if not np.isfinite(np.asarray(g(t, x), dtype=float)[0]).all():
                raise ValueError(f"{name} is not finite at t={t}")
        d1 = central(f, t, x, step, 0.0)
        if abs(d1 - np.asarray(d1f(t, x))[0]) > rtol * (1.0 + abs(d1)):
            raise ValueError(f"time derivative mismatch at t={t}")
        grad = np.asarray(d2f(t, x))[0]
        hess = np.asarray(d22f(t, x))[0]
        for j, e in enumerate(step * np.eye(x.shape[1])):
            if abs(central(f, t, x, 0.0, e) - grad[j]) > rtol * (1.0 + abs(grad[j])):
                raise ValueError(f"gradient mismatch in coordinate {j}")
            h_num = central(d2f, t, x, 0.0, e)
            if np.abs(h_num - hess[:, j]).max() > rtol * (1.0 + np.abs(hess[:, j]).max()):
                raise ValueError(f"hessian mismatch in coordinate {j}")


@dataclass(frozen=True)
class ItoReport:
    mean_terminal: float
    se_terminal: float
    max_abs: float
    n_paths: int

    @property
    def z(self) -> float:
        return self.mean_terminal / self.se_terminal if self.se_terminal > 0 else 0.0


def ito_residual(
    f: Callable,
    d1f: Callable,
    d2f: Callable,
    d22f: Callable,
    xi: np.ndarray,
    psi: np.ndarray | None,
    a_path: IncreasingPath | None,
    phi: IntegrandProcess,
    ens: MartEnsemble,
) -> ItoReport:
    """Residual of the second-order chain rule along simulated paths.

    The state is zeta = xi + int psi dA + int phi dM, built by left-point
    accumulation.  The residual subtracts the time term, the dA term, the
    stochastic term and the trace correction 1/2 tr(H phi A phi^T) dt, with
    H the second derivative and A = sigma Q sigma^T, from f(t, zeta(t)) -
    f(0, zeta(0)).  sigma is the ensemble's own, per path when it is adapted
    or stopped, and phi may be per path.  All derivative callables take (t,
    states) with states batched over paths; ``validate_derivatives`` checks
    them at t = 0, t_{K/2} and T on states the walk reaches.
    """
    grid, n, m, q = ens.grid, ens.n_paths, phi.target_dim, ens.spec.q()
    k = grid.n_cells

    xi = np.broadcast_to(np.asarray(xi, dtype=float), (n, m))

    if psi is None:
        psi_vals, da = np.zeros((k, m)), np.zeros(k)
    else:
        psi_vals = np.asarray(psi, dtype=float)
        if psi_vals.shape != (k, m):
            raise ValueError("psi must supply one target vector per cell")
        if a_path is None:
            raise ValueError("psi needs its driving increasing path")
        da = np.diff(a_path.values)
    drift = prefix_sums(psi_vals * da[:, None])

    # the walk checks phi before f is first called.  state_j = zeta_j +
    # (xi + drift_j), zeta read from the walk; the residual is a running max
    # |r| per path (np.maximum keeps a NaN) and the last values.  The
    # derivative check reads states the walk reaches.
    steps = integral_steps(phi, ens)
    state = start = mid = xi + drift[0]
    f0 = np.asarray(f(grid.points[0], state), dtype=float)
    residual, max_abs, correction = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, (phi_sig, stoch, zeta) in enumerate(steps):
        t = grid.points[i]
        grad = np.asarray(d2f(t, state), dtype=float)  # (n, m)
        hess = np.asarray(d22f(t, state), dtype=float)  # (n, m, m)
        # (phi sigma) Q (phi sigma)^T, with the ensemble's own (stopped or
        # adapted) sigma: the density of int phi dM in this cell
        phi_rate = operator_rate(phi_sig, q, phi_sig)
        tr = np.einsum("...mf,...fm->...", hess, phi_rate)  # tr(H phi A phi^T)
        correction = correction + (
            np.asarray(d1f(t, state), dtype=float) * grid.widths[i]
            + grad @ (psi_vals[i] * da[i])
            + np.einsum("nm,nm->n", grad, stoch)
            + 0.5 * tr * grid.widths[i]
        )
        state = zeta + (xi + drift[i + 1])
        if i + 1 == k // 2:
            mid = state
        f_next = np.asarray(f(grid.points[i + 1], state), dtype=float)
        residual = f_next - f0 - correction
        np.maximum(max_abs, np.abs(residual), out=max_abs)

    pts = [(grid.points[0], start[0]), (grid.points[k // 2], mid[0])]
    if n > 1:
        pts.append((grid.points[k], state[n - 1]))
    validate_derivatives(f, d1f, d2f, d22f, pts)

    se = float(np.std(residual, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ItoReport(
        mean_terminal=float(np.mean(residual)),
        se_terminal=se,
        max_abs=float(max_abs.max()),
        n_paths=n,
    )
