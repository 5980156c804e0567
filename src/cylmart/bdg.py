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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._util import flavor_norm, prefix_sums
from .gammanorm import GammaKernel, gamma_norm
from .integration import IntegrandProcess, integrand_increments, integrate
from .martingales import MartEnsemble, NoiseSpec, qm_operator, qv_exact, simulate
from .measures import IncreasingPath
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

    def passed(self) -> bool:
        return abs(self.z) <= 3.0


def _kernel_matrices(phi: IntegrandProcess, spec: NoiseSpec) -> np.ndarray:
    """phi * (operator density)^{1/2} per cell of phi's grid, shape (K, m, dc)."""
    if phi.matrices.ndim != 3:
        raise ValueError("kernel construction needs a deterministic integrand")
    roots = np.stack([psd_sqrt(q) for q in qm_operator(spec, phi.grid).matrices])
    return np.einsum("kmc,kcd->kmd", phi.matrices, roots)


def integral_kernel(phi: IntegrandProcess, spec: NoiseSpec, flavor="hilbert") -> GammaKernel:
    """Kernel phi * (operator density)^{1/2} against the bracket measure, on
    phi's grid."""
    mats = _kernel_matrices(phi, spec)
    return GammaKernel(qv_exact(spec, phi.grid), mats, flavor)


def _shared_cell_energy(mats: np.ndarray, sig: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-cell ||phi sigma Q^{1/2}||_HS^2 for shared sigma, shape (K,): the
    per-path einsums of ``ito_isometry`` for one path, bit for bit."""
    rows = np.einsum("kmc,kcd->kmd", mats, sig)
    _, m, dd = rows.shape
    energy = np.zeros(rows.shape[0])
    for i in range(m):
        for d in range(dd):
            for e in range(dd):
                energy = energy + rows[:, i, d] * q[d, e] * rows[:, i, e]
    return energy


def ito_isometry(phi: IntegrandProcess, ens: MartEnsemble) -> IsometryReport:
    """E ||integral(T)||^2 against the exact per-path kernel energy.

    The right side integrates the squared Hilbert-Schmidt size of
    phi (density)^{1/2} against the bracket, evaluated exactly per path; the
    z-score is the paired-difference mean over its standard error.
    """
    if ens.n_paths < 2:
        raise ValueError("ito_isometry needs n_paths >= 2 for a standard error")
    zeta = integrate(phi, ens)
    lhs_paths = np.sum(zeta.terminal() ** 2, axis=1)

    q = ens.spec.q()
    mats = phi.matrices
    # Shared sigma and deterministic phi give every path the same energy.
    # With C-ordered inputs and more than two paths the per-path einsum
    # below adds each output's terms one at a time in (m, d, e) order, as
    # _shared_cell_energy does once; for two paths numpy groups them otherwise.
    shared = mats.ndim == 3 and ens.sigma_is_shared and ens.n_paths > 2
    if shared and all(a.flags.c_contiguous for a in (mats, ens.sigma_path, q)):
        energy = _shared_cell_energy(mats, ens.sigma_path, q)
        # a contiguous (n, K) copy: a broadcast view takes another BLAS path
        energy = np.broadcast_to(energy, (ens.n_paths, energy.size)).copy()
    else:
        rows = np.einsum("nkmc,nkcd->nkmd", phi.for_paths(ens.n_paths), ens.sigma_for_paths())
        energy = np.einsum("nkmd,de,nkme->nk", rows, q, rows)
    rhs_paths = energy @ ens.grid.widths

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


def _panel_one(
    inst: BDGInstance,
    p_list: Sequence[float],
    flavors: Sequence,
    n_paths: int,
    seed: int,
    gamma_samples: int,
) -> list[BDGReport]:
    # the ensemble is integrate's argument alone, freed before the norm loop
    zeta = integrate(inst.phi, simulate(inst.spec, inst.phi.grid, n_paths, seed))
    reports = []
    for flavor in flavors:
        sups = flavor_norm(zeta.values, flavor).max(axis=1)
        kernel = integral_kernel(inst.phi, inst.spec, flavor)
        est = gamma_norm(kernel, n_samples=gamma_samples, seed=seed + 101)
        degenerate = est.value <= 1e-12
        for p in p_list:
            lhs_samples = sups**p
            lhs = float(np.mean(lhs_samples))
            lhs_se = float(np.std(lhs_samples, ddof=1) / np.sqrt(n_paths))
            rhs = est.value**p
            rhs_se = p * est.value ** (p - 1) * est.stderr if est.value > 0 else 0.0
            reports.append(
                BDGReport(
                    instance=inst.name,
                    p=p,
                    flavor=flavor,
                    n_paths=n_paths,
                    lhs=lhs,
                    lhs_stderr=lhs_se,
                    rhs=rhs,
                    rhs_stderr=rhs_se,
                    degenerate=degenerate,
                )
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
    raises on disagreement beyond 1e-4 relative to the local scale."""
    step, rtol = 1e-5, 1e-4
    for t, x in points:
        x = np.asarray(x, dtype=float)[None, :]
        m = x.shape[1]
        d1 = (np.asarray(f(t + step, x))[0] - np.asarray(f(t - step, x))[0]) / (2 * step)
        if abs(d1 - np.asarray(d1f(t, x))[0]) > rtol * (1.0 + abs(d1)):
            raise ValueError(f"time derivative mismatch at t={t}")
        grad = np.asarray(d2f(t, x))[0]
        hess = np.asarray(d22f(t, x))[0]
        for j in range(m):
            e = np.zeros((1, m))
            e[0, j] = step
            g_num = (np.asarray(f(t, x + e))[0] - np.asarray(f(t, x - e))[0]) / (2 * step)
            if abs(g_num - grad[j]) > rtol * (1.0 + abs(grad[j])):
                raise ValueError(f"gradient mismatch in coordinate {j}")
            h_num = (np.asarray(d2f(t, x + e))[0] - np.asarray(d2f(t, x - e))[0]) / (
                2 * step
            )
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
    validate: bool = True,
) -> ItoReport:
    """Residual of the second-order chain rule along simulated paths.

    The state is zeta = xi + int psi dA + int phi dM, built by left-point
    accumulation.  The residual subtracts the time term, the dA term, the
    stochastic term and half the trace correction (the bilinear form of the
    second derivative evaluated through phi (density)^{1/2}, against the
    bracket) from f(t, zeta(t)) - f(0, zeta(0)).  All derivative callables
    take (t, states) with states batched over paths.
    """
    grid = ens.grid
    k = grid.n_cells
    n = ens.n_paths
    m = phi.target_dim
    if ens.spec.adapted:
        raise ValueError("residual checking needs a deterministic spec")
    # phi dM is contracted a cell (or a path) at a time, never held as an
    # (n, K, m) array; cell 0 first, which checks the grids
    stoch = integrand_increments(phi, ens, np.s_[:, :1])[:, 0]
    kernels = _kernel_matrices(phi, ens.spec)  # (K, m, dc); rejects a per-path phi
    dqv = qv_exact(ens.spec, grid).increments

    xi = np.broadcast_to(np.asarray(xi, dtype=float), (n, m))

    if psi is None:
        psi_vals = np.zeros((k, m))
        da = np.zeros(k)
    else:
        psi_vals = np.asarray(psi, dtype=float)
        if psi_vals.shape != (k, m):
            raise ValueError("psi must supply one target vector per cell")
        if a_path is None:
            raise ValueError("psi needs its driving increasing path")
        da = np.diff(a_path.values)
    drift = prefix_sums(psi_vals * da[:, None])

    if validate:
        cells = [(0, 0), (0, k // 2)] + ([(n - 1, k)] if n > 1 else [])
        pts = []
        for p, j in cells:
            run_p = prefix_sums(integrand_increments(phi, ens, np.s_[p : p + 1])[0])
            pts.append((grid.points[j], run_p[j] + (xi[p] + drift[j])))
        validate_derivatives(f, d1f, d2f, d22f, pts)

    # zeta_j = run_j + (xi + drift_j) a cell at a time, run summing phi dM from
    # a copy of cell 0 as cumsum does (a -0.0 keeps its sign); the residual is
    # a running max |r| per path (np.maximum keeps a NaN) and the last values
    run = np.zeros((n, m))
    state = run + (xi + drift[0])
    f0 = np.asarray(f(grid.points[0], state), dtype=float)
    residual = np.zeros(n)
    max_abs = np.zeros(n)
    correction = np.zeros(n)
    for i in range(k):
        t = grid.points[i]
        if i:
            stoch = integrand_increments(phi, ens, np.s_[:, i : i + 1])[:, 0]
        grad = np.asarray(d2f(t, state), dtype=float)  # (n, m)
        hess = np.asarray(d22f(t, state), dtype=float)  # (n, m, m)
        tr = np.einsum("md,nmf,fd->n", kernels[i], hess, kernels[i])
        correction = correction + (
            np.asarray(d1f(t, state), dtype=float) * grid.widths[i]
            + grad @ (psi_vals[i] * da[i])
            + np.einsum("nm,nm->n", grad, stoch)
            + 0.5 * tr * dqv[i]
        )
        if i == 0:
            run[...] = stoch
        else:
            run += stoch
        state = run + (xi + drift[i + 1])
        f_next = np.asarray(f(grid.points[i + 1], state), dtype=float)
        residual = f_next - f0 - correction
        np.maximum(max_abs, np.abs(residual), out=max_abs)

    se = float(np.std(residual, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ItoReport(
        mean_terminal=float(np.mean(residual)),
        se_terminal=se,
        max_abs=float(max_abs.max()),
        n_paths=n,
    )
