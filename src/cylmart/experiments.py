"""Verification experiments behind the CLI and the acceptance suite.

Every experiment consumes a validated parameter dict and returns criteria
(named pass/fail verdicts with values), flat metrics (bit-compared on
replay), and optional CSV-able series.  All randomness flows through the
config seed; re-running a config reproduces every number bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import prefix_sums, single_rng
from .bdg import (
    BDGInstance,
    BDGReport,
    bdg_ratio_panel,
    fit_bracket,
    ito_isometry,
    ito_residual,
)
from .evolution import (
    SEEProblem,
    lipschitz_quotient,
    localization_consistency,
    mild_residual,
    picard_solve,
    rho_stopping_times,
)
from .gammanorm import (
    GammaKernel,
    gamma_fubini_check,
    gamma_norm_exact_hilbert,
    gamma_norm_mc,
    ideal_check,
    kernel_operator_norm,
    primitive_gamma_bound_check,
)
from .integration import (
    IntegrandProcess,
    first_passage_time,
    kunita_watanabe_check,
)
from .martingales import (
    NoiseSpec,
    am_operator,
    countex_spec,
    qm_empirical,
    qm_operator,
    qv_exact,
    qv_partition_estimate,
    simulate,
)
from .measures import (
    GridMeasure,
    IncreasingPath,
    TimeGrid,
    measure_from_increasing,
    partial_sup,
    sup_density_measures,
    sup_measures,
    sup_measures_bruteforce,
    _best_partition_value,
)
from .operators import projection_selection
from .timechange import (
    apply_time_change,
    build_time_change,
    dds_integral_check,
    gamma_timechange_check,
    plateau_constancy_check,
    substitute,
)

__all__ = [
    "Criterion",
    "ExperimentResult",
    "EXPERIMENTS",
    "PARAMS",
    "Param",
]


@dataclass(frozen=True)
class Param:
    """A ``PARAMS`` entry: the default, and the range a config may set.

    An integer param (or each entry of a tuple default's list) must be at
    least ``least`` and a multiple of ``step``; a ``real`` one a finite
    number > 0.
    """

    default: object
    least: int = 1
    step: int = 1
    real: bool = False

    @classmethod
    def of(cls, entry) -> "Param":
        """The ``PARAMS`` entry as a Param: a plain value is its default."""
        return entry if isinstance(entry, cls) else cls(entry)


@dataclass(frozen=True)
class Criterion:
    name: str
    passed: bool
    value: float
    target: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "value": self.value,
            "target": self.target,
        }


@dataclass
class ExperimentResult:
    criteria: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, value: float, target: str) -> None:
        self.criteria.append(Criterion(name, bool(passed), float(value), target))
        self.metrics[name] = float(value)


def _fit_order(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def _random_psd(rng, d: int, rank: int | None = None) -> np.ndarray:
    a = rng.standard_normal((d, d))
    if rank is not None and rank < d:
        a[:, rank:] = 0.0
    return a @ a.T


# ---------------------------------------------------------------------------
# qv: exact brackets, partition estimates, operator density normalization


def run_qv(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    d = params["d"]
    k = params["grid"]
    grid = TimeGrid.uniform(1.0, k)

    ident = NoiseSpec(d_cyl=d, d_drive=d, sigma=np.eye(d), name="identity")
    qv = qv_exact(ident, grid)
    gap = float(np.abs(qv.prefix() - grid.points).max())
    res.add("qv-identity-exact", gap == 0.0, gap, "bracket(t) == t exactly")

    depths = list(range(params["depth"] + 1))
    terminals = {}
    for name, sigma in [
        ("identity", np.eye(d)),
        ("diag", np.diag(1.0 + np.arange(d, dtype=float))),
    ]:
        spec = NoiseSpec(d_cyl=d, d_drive=d, sigma=sigma, name=name)
        ens = simulate(spec, grid, params["paths"], seed)
        est = qv_partition_estimate(ens, params["sphere"], depths, panel_seed=seed + 3)
        term = est.terminal()[0]  # shared sigma: identical across paths
        exact = qv_exact(spec, grid).total_mass
        terminals[name] = (term, exact)
        mono = bool(np.all(np.diff(term) >= -1e-12 * exact))
        res.add(f"qv-estimate-monotone-{name}", mono, float(term[-1]), "nondecreasing in depth")
    rel_errs = [abs(t[-1] - ex) / ex for t, ex in terminals.values()]
    res.add(
        "qv-partition-2pct",
        max(rel_errs) <= 0.02,
        max(rel_errs),
        f"terminal estimate within 2% of exact at depth {params['depth']}, "
        f"{params['sphere']} sphere samples",
    )
    res.series["qv_depth_ladder"] = {
        "columns": ["depth"] + list(terminals),
        "rows": [
            [float(dep)] + [float(terminals[nm][0][i]) for nm in terminals]
            for i, dep in enumerate(depths)
        ],
    }

    rng = single_rng(seed, stream=23)
    worst_norm_dev = 0.0
    worst_emp = 0.0
    for _ in range(params["instances"]):
        di = int(rng.integers(2, 5))
        sig = rng.standard_normal((di, di))
        if rng.uniform() < 0.3:
            sig[:, rng.integers(0, di)] = 0.0  # rank-deficient branch
        spec = NoiseSpec(d_cyl=di, d_drive=di, sigma=sig)
        g2 = TimeGrid.uniform(1.0, 16)
        qm = qm_operator(spec, g2)
        qvm = qv_exact(spec, g2)
        support = qvm.increments > 0
        norms = np.abs(np.linalg.eigvalsh(qm.matrices[support])).max(axis=-1)
        if norms.size:
            worst_norm_dev = max(worst_norm_dev, float(np.abs(norms - 1.0).max()))
        emp = qm_empirical(am_operator(spec, g2), qvm)
        worst_emp = max(worst_emp, float(np.abs(emp.matrices - qm.matrices).max()))
    res.add(
        "qm-norm-one",
        worst_norm_dev <= 1e-9,
        worst_norm_dev,
        "operator density has unit norm on the bracket support (1e-9)",
    )
    res.add(
        "qm-empirical",
        worst_emp <= 1e-8,
        worst_emp,
        "difference-quotient density matches exact within 1e-8",
    )
    return res


# ---------------------------------------------------------------------------
# supmeas: supremum-of-measures oracle equivalence


def _dyadic_increments(rng, k: int) -> np.ndarray:
    return rng.integers(0, 65, size=k) / 64.0


def run_supmeas(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=29)
    worst = 0.0
    checked = 0
    for k in range(1, params["max_cells"] + 1):
        grids = [TimeGrid.uniform(1.0, k)]
        if k >= 2:
            pts = np.sort(rng.choice(np.arange(1, 32), size=k - 1, replace=False)) / 32.0
            grids.append(TimeGrid(np.concatenate([[0.0], pts, [1.0]])))
        for grid in grids:
            for n_meas in range(1, params["max_measures"] + 1):
                for _ in range(params["instances_per_shape"]):
                    ms = [
                        GridMeasure(grid, _dyadic_increments(rng, k))
                        for _ in range(n_meas)
                    ]
                    for refine in range(params["refine"] + 1):
                        impl = sup_measures(ms, refine=refine)
                        oracle = sup_measures_bruteforce(ms, refine=refine)
                        diff = float(np.abs(impl.increments - oracle.increments).max())
                        worst = max(worst, diff)
                        # interval-level oracle: minimal domination on
                        # every union of cells, not just single cells
                        n_sub = 2**refine
                        atoms = np.stack(
                            [np.repeat(m.increments / n_sub, n_sub) for m in ms]
                        )
                        if atoms.shape[1] <= 12:
                            for i0 in range(k):
                                for i1 in range(i0 + 1, k + 1):
                                    block = atoms[:, i0 * n_sub : i1 * n_sub]
                                    best = _best_partition_value(block)
                                    got = impl.interval_mass(i0, i1)
                                    worst = max(worst, abs(got - best))
                        checked += 1
                    full = sup_measures(ms)
                    prev = None
                    for n_par in range(1, n_meas + 1):
                        part = partial_sup(ms, n_par)
                        if prev is not None and np.any(
                            part.increments < prev.increments
                        ):
                            worst = max(worst, 1.0)
                        prev = part
                    if not np.array_equal(prev.increments, full.increments):
                        worst = max(worst, 1.0)
    res.add(
        "supmeas-oracle-exact",
        worst == 0.0 and checked > 0,
        worst,
        f"partition oracle equals implementation exactly ({checked} instances)",
    )

    rng2 = single_rng(seed, stream=31)
    worst_density = 0.0
    for _ in range(params["density_instances"]):
        k = int(rng2.integers(1, 9))
        grid = TimeGrid.uniform(1.0, k)
        base = GridMeasure(grid, rng2.integers(0, 17, size=k) / 16.0)
        n_f = int(rng2.integers(1, 4))
        densities = [rng2.integers(0, 33, size=k) / 16.0 for _ in range(n_f)]
        lhs = sup_density_measures(densities, base)
        integrated = [GridMeasure(grid, f * base.increments) for f in densities]
        rhs = sup_measures(integrated, refine=1)
        worst_density = max(
            worst_density, float(np.abs(lhs.increments - rhs.increments).max())
        )
    res.add(
        "supmeas-density-identity",
        worst_density == 0.0,
        worst_density,
        "density supremum equals supremum of integrated measures exactly",
    )
    return res


# ---------------------------------------------------------------------------
# countex: bracket divergence under truncation order


def run_countex(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=37)
    worst_total = 0.0
    worst_dir = 0.0
    rows = []
    for n in params["orders"]:
        spec, grid = countex_spec(n)
        total = qv_exact(spec, grid).total_mass
        worst_total = max(worst_total, abs(total - n))
        ens = simulate(spec, grid, 1, seed)
        dirs = np.eye(n)
        extra = rng.standard_normal((8, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        panel = np.vstack([dirs, extra])
        per_dir = ens.direction_bracket_increments(panel).sum(axis=-1)
        worst_dir = max(worst_dir, float(per_dir.max()))
        rows.append([float(n), float(total), float(per_dir.max())])
    res.add(
        "countex-bracket-linear",
        worst_total == 0.0,
        worst_total,
        "total bracket equals the truncation order exactly",
    )
    res.add(
        "countex-directions-bounded",
        worst_dir <= 1.0 + 1e-9,
        worst_dir,
        "every unit direction's own bracket stays <= 1 + 1e-9",
    )
    res.series["countex_orders"] = {
        "columns": ["order", "bracket_total", "max_direction_bracket"],
        "rows": rows,
    }
    return res


# ---------------------------------------------------------------------------
# timechange


def _adapted_sigma(t, w):
    """Bounded driver-dependent volatility: 0.6 + 0.4 sin^2(3 W(t))."""
    return (0.6 + 0.4 * np.sin(3.0 * w[..., 0]) ** 2)[..., None, None]


def run_timechange(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    k = params["grid"]
    grid = TimeGrid.uniform(1.0, k)

    spec = NoiseSpec(d_cyl=1, d_drive=1, sigma=_adapted_sigma, name="adapted-vol")
    ens = simulate(spec, grid, params["paths"], seed)
    tc = build_time_change(ens.bracket)
    moved = apply_time_change(ens, tc)
    gap = moved.bracket_gap()
    cell = moved.max_cell_mass()
    res.add(
        "timechange-unit-bracket",
        gap <= cell + 1e-12,
        gap,
        "bracket(tau_s) = min(s, total) within one cell mass, every path",
    )
    res.series["timechange_pairs"] = {
        "columns": ["s", "tau_s"],
        "rows": [
            [float(s), float(t) if np.isfinite(t) else "inf"]
            for s, t in tc.to_pairs(0)
        ],
    }

    plateau_sig = np.ones((k, 1, 1))
    plateau_sig[k // 3 : k // 2] = 0.0
    pspec = NoiseSpec(d_cyl=1, d_drive=1, sigma=plateau_sig, name="plateau")
    pens = simulate(pspec, grid, 64, seed + 1)
    flat = plateau_constancy_check(pens)
    res.add(
        "timechange-plateau-constant",
        flat.passed,
        -flat.worst_slack,
        "evaluations exactly constant across zero-mass plateaus",
    )

    gaps = []
    masses = []
    ladder_rows = []
    for lvl in range(params["ladder"]):
        kk = k * 2**lvl
        g = TimeGrid.uniform(1.0, kk)
        tvals = 0.5 + np.sin(2.5 * g.left) ** 2
        sig = tvals[:, None, None] * np.ones((kk, 2, 2)) * np.array([[1.0, 0.3], [0.0, 0.7]])
        sp = NoiseSpec(d_cyl=2, d_drive=2, sigma=sig, name=f"tv-{kk}")
        e = simulate(sp, g, params["ladder_paths"], seed + 10 + lvl)
        t = build_time_change(qv_exact(sp, g))
        phi = IntegrandProcess.constant(g, np.array([[1.0, 0.5], [0.2, -0.8]]))
        rep = dds_integral_check(phi, e, t)
        gaps.append(rep.max_gap)
        masses.append(rep.max_cell_mass)
        ladder_rows.append([float(kk), rep.max_cell_mass, rep.max_gap])
    order = _fit_order(masses, gaps)
    res.add(
        "timechange-dds-order",
        order >= 0.4,
        order,
        "transported-integral gap decreases at observed order >= 0.4",
    )
    res.series["dds_ladder"] = {
        "columns": ["cells", "max_cell_mass", "max_gap"],
        "rows": ladder_rows,
    }

    quad = measure_from_increasing(IncreasingPath(grid, grid.points**2))
    lhs, rhs = substitute(grid.right, quad)
    res.add(
        "timechange-substitution",
        abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs)) and abs(lhs - 2.0 / 3.0) <= 2.5 / k,
        abs(lhs - rhs),
        "substitution sides agree to round-off and approach 2/3",
    )

    rng = single_rng(seed, stream=41)
    kernel = GammaKernel(
        GridMeasure(grid, 2.0 * grid.widths),
        rng.standard_normal((k, 2, 2)),
        flavor="hilbert",
    )
    pair = gamma_timechange_check(kernel)
    res.add(
        "timechange-gamma-invariance",
        pair.agree(),
        abs(pair.lhs - pair.rhs),
        "kernel norm invariant under the clock change (within re-bin bound)",
    )
    return res


# ---------------------------------------------------------------------------
# gamma


def run_gamma(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=43)

    fails = 0
    worst_z = 0.0
    for i in range(params["instances"]):
        k = int(rng.integers(4, 17))
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 7))
        grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), k)
        measure = GridMeasure(grid, rng.uniform(0.0, 1.0, size=k))
        kernel = GammaKernel(measure, rng.standard_normal((k, m, d)))
        exact = gamma_norm_exact_hilbert(kernel)
        est = gamma_norm_mc(kernel, params["samples"], seed + 100 + i)
        z = abs(est.value - exact) / est.stderr if est.stderr > 0 else 0.0
        worst_z = max(worst_z, z)
        fails += z > 3.0
        if kernel_operator_norm(kernel) > exact + 1e-9 * (1 + exact):
            fails += 1
    res.add(
        "gamma-mc-matches-exact",
        fails == 0,
        worst_z,
        f"Monte-Carlo estimate within 3 sigma of the exact value, {params['instances']} instances",
    )

    violations = 0
    worst_slack = np.inf
    for i in range(params["ideal_instances"]):
        k = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        grid = TimeGrid.uniform(1.0, k)
        kernel = GammaKernel(
            GridMeasure(grid, rng.uniform(0.0, 1.0, size=k)), rng.standard_normal((k, m, d))
        )
        q = int(rng.integers(1, 5))
        g = int(rng.integers(1, 5))
        t_mat = rng.standard_normal((q, m))
        t_mat /= max(np.linalg.svd(t_mat, compute_uv=False)[0], 1.0)
        s_mat = rng.standard_normal((d, g))
        s_mat /= max(np.linalg.svd(s_mat, compute_uv=False)[0], 1.0)
        rep = ideal_check(t_mat, kernel, s_mat)
        worst_slack = min(worst_slack, rep.slack)
        violations += not rep.passed()
    res.add(
        "gamma-ideal-property",
        violations == 0,
        worst_slack,
        f"no sandwich-bound violations across {params['ideal_instances']} contraction instances",
    )

    bound_fails = 0
    for i in range(params["bound_instances"]):
        k = int(rng.integers(4, 17))
        m = int(rng.integers(1, 5))
        grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), k)
        mu = GridMeasure(grid, rng.uniform(0.0, 1.0, size=k))
        psi = rng.standard_normal((k, m))
        rep = primitive_gamma_bound_check(psi, mu)
        bound_fails += not rep.passed()
    res.add(
        "gamma-primitive-bound",
        bound_fails == 0,
        float(bound_fails),
        f"running-integral bound holds on {params['bound_instances']} instances",
    )

    grid = TimeGrid.uniform(1.0, 8)
    kernel2 = GammaKernel(
        GridMeasure(grid, grid.widths), rng.standard_normal((8, 4, 3)), flavor=2
    )
    # a flavor-2 target is Hilbert, so both sides are exact
    fub2 = gamma_fubini_check(kernel2, n_samples=params["samples"], seed=seed + 5)
    res.add(
        "gamma-fubini-p2",
        abs(fub2.ratio - 1.0) <= 1e-12,
        fub2.ratio,
        "exact index-swap ratio is 1 within 1e-12 at p = 2",
    )
    ratios = []
    for i in range(8):
        kern4 = GammaKernel(
            GridMeasure(grid, rng.uniform(0.0, 1.0, size=8)),
            rng.standard_normal((8, 4, 3)),
            flavor=4,
        )
        ratios.append(gamma_fubini_check(kern4, params["samples"], seed + 20 + i).ratio)
    res.metrics["fubini_p4_ratio_min"] = float(np.min(ratios))
    res.metrics["fubini_p4_ratio_max"] = float(np.max(ratios))
    res.series["fubini_ratios_p4"] = {
        "columns": ["instance", "ratio"],
        "rows": [[float(i), float(r)] for i, r in enumerate(ratios)],
    }
    return res


# ---------------------------------------------------------------------------
# bdg: isometry and two-sided moment panel


def _panel_instances(rng, count: int) -> list[BDGInstance]:
    out = []
    # a scalar driver instance anchors the low-dimensional end of the panel
    g0 = TimeGrid.uniform(1.0, 32)
    out.append(
        BDGInstance(
            "scalar-bm",
            NoiseSpec(1, 1, np.eye(1)),
            IntegrandProcess.constant(g0, np.eye(1)),
        )
    )
    while len(out) < count:
        i = len(out)
        k = int(rng.choice((16, 32, 48)))
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), k)
        kind = i % 3
        if kind == 0:
            sig = rng.standard_normal((d, d))
            phi = rng.standard_normal((m, d))
            inst = BDGInstance(
                f"const-{i}",
                NoiseSpec(d, d, sig),
                IntegrandProcess.constant(grid, phi),
            )
        elif kind == 1:
            base = rng.standard_normal((d, d))
            mod = 0.5 + np.sin(3.0 * grid.left + rng.uniform(0, np.pi)) ** 2
            sig = mod[:, None, None] * base
            phi = rng.standard_normal((grid.n_cells, m, d)) * 0.2 + rng.standard_normal(
                (1, m, d)
            )
            inst = BDGInstance(
                f"timevar-{i}",
                NoiseSpec(d, d, sig),
                IntegrandProcess(grid, phi),
            )
        else:
            sig = rng.standard_normal((d, d))
            sig[:, : max(1, d // 2)] = 0.0  # rank-deficient driver map
            phi = rng.standard_normal((m, d))
            inst = BDGInstance(
                f"rankdef-{i}",
                NoiseSpec(d, d, sig),
                IntegrandProcess.constant(grid, phi),
            )
        out.append(inst)
    return out


def run_bdg(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=47)

    worst_z = 0.0
    for i in range(params["iso_instances"]):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        grid = TimeGrid.uniform(1.0, 24)
        spec = NoiseSpec(d, d, rng.standard_normal((d, d)))
        phi = IntegrandProcess.constant(grid, rng.standard_normal((m, d)))
        rep = ito_isometry(phi, simulate(spec, grid, params["paths"], seed + 200 + i))
        worst_z = max(worst_z, abs(rep.z))
    res.add(
        "bdg-isometry-z3",
        worst_z <= 3.0,
        worst_z,
        f"second-moment identity |z| <= 3 at {params['paths']} paths, "
        f"{params['iso_instances']} instances",
    )

    instances = _panel_instances(rng, params["instances"])
    p_list = params["p_list"]
    flavors = ["hilbert", 4]
    reports = bdg_ratio_panel(
        instances, p_list, flavors, params["paths"], seed, params["gamma_samples"]
    )
    brackets = fit_bracket(reports)
    reports2 = bdg_ratio_panel(
        instances, p_list, flavors, params["paths"], seed + 7777, params["gamma_samples"]
    )
    brackets2 = fit_bracket(reports2)

    width_ok = True
    stable_ok = True
    worst_width = 0.0
    worst_drift = 0.0
    for key, info in brackets.items():
        c = info["C"]
        worst_width = max(worst_width, c * c)
        width_ok &= c * c <= 50.0
        c2 = brackets2[key]["C"]
        drift = abs(c2 - c) / c
        worst_drift = max(worst_drift, drift)
        stable_ok &= drift <= 0.10
        res.metrics[f"bracket_C[p={key[0]},{key[1]}]"] = c
        res.metrics[f"bracket_C2[p={key[0]},{key[1]}]"] = c2
    res.add(
        "bdg-bracket-width",
        width_ok,
        worst_width,
        "every (p, flavor) bracket has width C^2 <= 50",
    )
    res.add(
        "bdg-bracket-cross-seed",
        stable_ok,
        worst_drift,
        "fitted C reproduced within 10% under a different master seed",
    )
    # a ratio with rhs = 0 is not finite; JSON and CSV have no NaN, so it is
    # written as None (JSON null, an empty CSV cell)
    res.series["bdg_panel"] = {
        "columns": BDGReport.CSV_HEADER.split(","),
        "rows": [
            [
                r.instance, float(r.p), str(r.flavor), float(r.n_paths), r.lhs,
                r.lhs_stderr, r.rhs, r.rhs_stderr,
                float(r.ratio) if np.isfinite(r.ratio) else None, float(r.degenerate),
            ]
            for r in reports
        ],
    }
    return res


# ---------------------------------------------------------------------------
# ito: chain-rule residuals


def run_ito(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    k = params["grid"]

    grid = TimeGrid.uniform(1.0, k)
    spec = NoiseSpec(1, 1, np.array([[1.0]]))
    ens = simulate(spec, grid, params["paths"], seed)
    phi = IntegrandProcess.constant(grid, np.eye(1))

    lin = ito_residual(
        f=lambda t, x: x[:, 0],
        d1f=lambda t, x: np.zeros(x.shape[0]),
        d2f=lambda t, x: np.ones_like(x),
        d22f=lambda t, x: np.zeros((x.shape[0], 1, 1)),
        xi=np.zeros(1),
        psi=None,
        a_path=None,
        phi=phi,
        ens=ens,
    )
    res.add(
        "ito-linear-exact",
        lin.max_abs == 0.0,
        lin.max_abs,
        "linear functional leaves zero residual on every path",
    )
    del ens, phi

    maxima = []
    dts = []
    rows = []
    z_mid = None
    for lvl in range(params["ladder"]):
        kk = k * 2**lvl
        g = TimeGrid.uniform(1.0, kk)
        e = simulate(spec, g, params["paths"], seed + 50 + lvl)
        ph = IntegrandProcess.constant(g, np.eye(1))
        rep = ito_residual(
            f=lambda t, x: x[:, 0] ** 2,
            d1f=lambda t, x: np.zeros(x.shape[0]),
            d2f=lambda t, x: 2.0 * x,
            d22f=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
            xi=np.zeros(1),
            psi=None,
            a_path=None,
            phi=ph,
            ens=e,
        )
        maxima.append(rep.max_abs)
        dts.append(1.0 / kk)
        rows.append([float(kk), 1.0 / kk, rep.max_abs, rep.mean_terminal, rep.se_terminal])
        if lvl == 0:
            z_mid = abs(rep.z)
        del e, ph  # the next level's ensemble is twice the size
    res.add(
        "ito-classical-z3",
        z_mid <= 3.0,
        z_mid,
        "squared scalar state: mean residual within 3 SE of zero",
    )
    order = _fit_order(dts, maxima)
    res.add(
        "ito-residual-order",
        order >= 0.4,
        order,
        "max residual decreases at observed order >= 0.4 in dt",
    )
    res.series["ito_ladder"] = {
        "columns": ["cells", "dt", "max_abs_residual", "mean_terminal", "se_terminal"],
        "rows": rows,
    }

    # a full-featured instance exercises drift, state dependence and the
    # trace correction in one go
    grid2 = TimeGrid.uniform(1.0, k)
    spec2 = NoiseSpec(2, 2, np.array([[1.0, 0.2], [0.0, 0.7]]))
    ens2 = simulate(spec2, grid2, params["paths"] // 2, seed + 99)
    phi2 = IntegrandProcess.constant(grid2, np.array([[0.8, 0.1], [-0.3, 0.5]]))
    apath = qv_exact(spec2, grid2).to_increasing()
    psi = np.column_stack([np.sin(grid2.left), np.cos(grid2.left)])
    rep2 = ito_residual(
        f=lambda t, x: np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + 0.1 * t,
        d1f=lambda t, x: np.full(x.shape[0], 0.1),
        d2f=lambda t, x: np.column_stack([np.cos(x[:, 0]), x[:, 1]]),
        d22f=lambda t, x: np.stack(
            [
                np.stack([-np.sin(x[:, 0]), np.zeros(x.shape[0])], axis=1),
                np.stack([np.zeros(x.shape[0]), np.ones(x.shape[0])], axis=1),
            ],
            axis=1,
        ),
        xi=np.array([0.3, -0.2]),
        psi=psi,
        a_path=apath,
        phi=phi2,
        ens=ens2,
    )
    # left-point discretization carries an O(dt) weak bias for generic f,
    # so the gate allows it explicitly on top of the Monte-Carlo band
    allowance = 3.0 * rep2.se_terminal + 0.5 / k
    res.add(
        "ito-general-bias-bounded",
        abs(rep2.mean_terminal) <= allowance,
        abs(rep2.mean_terminal),
        "general smooth functional: mean residual within 3 SE + dt/2",
    )
    res.metrics["ito_general_max_abs"] = rep2.max_abs
    return res


# ---------------------------------------------------------------------------
# kw: bilinear Cauchy-Schwarz


def run_kw(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=53)
    worst = np.inf
    for i in range(params["instances"]):
        k = params["grid"]
        grid = TimeGrid.uniform(1.0, k)
        dd = int(rng.integers(1, 5))
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        q = _random_psd(rng, dd)
        s1 = rng.standard_normal((d1, dd))
        s2 = rng.standard_normal((d2, dd))
        spec1 = NoiseSpec(d1, dd, s1, q_drive=q)
        spec2 = NoiseSpec(d2, dd, s2, q_drive=q)
        ens = simulate(spec1, grid, params["paths"], seed + 300 + i)
        # adapted path functionals: cell i reads W(t_i), the driver before it
        w = prefix_sums(ens.driver_increments, axis=1)[:, :-1]
        f = rng.standard_normal((1, k, d1)) + 0.3 * np.tanh(w[:, :, :1]) * np.ones(d1)
        g = rng.standard_normal((1, k, d2)) + 0.2 * np.cos(w[:, :, :1]) * np.ones(d2)
        rep = kunita_watanabe_check(f, g, spec1, spec2, grid)
        worst = min(worst, rep.worst_slack)
    res.add(
        "kw-no-violation",
        worst >= -1e-9,
        worst,
        "no covariation Cauchy-Schwarz violation beyond -1e-9 of scale",
    )
    return res


# ---------------------------------------------------------------------------
# see: mild-solution solver


def run_see(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    k = params["grid"]
    tol = params["tol"]
    grid = TimeGrid.uniform(1.0, k)
    wiener = NoiseSpec(1, 1, np.array([[1.0]]))

    # (a) pure semigroup flow
    prob_a = SEEProblem(
        generator=np.array([[-1.0, 0.4], [0.4, -2.0]]),
        drift=lambda t, x: np.zeros_like(x),
        lip_drift=0.0,
        growth_drift=0.0,
        noise_map=lambda t, x: np.zeros((x.shape[0], 2, 1)),
        lip_noise=0.0,
        u0=np.array([1.0, -0.5]),
        name="flow",
    )
    ens_a = simulate(wiener, grid, 4, seed)
    u_a, diag_a = picard_solve(prob_a, ens_a, tol=tol)
    sg = prob_a.semigroup
    exact = np.stack([sg.flow(t, prob_a.initial_states(4)) for t in grid.points], axis=1)
    gap_a = float(np.abs(u_a - exact).max())
    res.add(
        "see-flow-exact",
        gap_a <= 1e-12,
        gap_a,
        "drift- and noise-free solve reproduces the semigroup flow",
    )

    # (b) deterministic linear decay against the closed form
    prob_b = SEEProblem(
        generator=None,
        drift=lambda t, x: -x,
        lip_drift=1.0,
        growth_drift=1.0,
        noise_map=lambda t, x: np.zeros((x.shape[0], 1, 1)),
        lip_noise=0.0,
        u0=np.array([1.0]),
        name="decay",
    )
    ens_b = simulate(wiener, grid, 2, seed + 1)
    u_b, _ = picard_solve(prob_b, ens_b, tol=tol)
    gap_b = float(np.abs(u_b[:, :, 0] - np.exp(-grid.points)).max())
    res.add(
        "see-ode-5dt",
        gap_b <= 5.0 / k,
        gap_b,
        "deterministic decay within 5 dt of exp(-t)",
    )

    # (c) mean-reverting additive noise: terminal variance
    prob_c = SEEProblem(
        generator=np.array([[-1.0]]),
        drift=lambda t, x: np.zeros_like(x),
        lip_drift=0.0,
        growth_drift=0.0,
        noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
        lip_noise=0.0,
        u0=np.array([0.0]),
        name="ou",
    )
    ens_c = simulate(wiener, grid, params["paths"], seed + 2)
    u_c, diag_c = picard_solve(prob_c, ens_c, tol=tol)
    res.metrics["picard_blocks"] = float(len(diag_c.blocks))
    res.metrics["picard_worst_contraction"] = float(diag_c.worst_contraction())
    res.series["see_solution_sample"] = {
        "columns": ["t", "u_path0"],
        "rows": [[float(t), float(v)] for t, v in zip(grid.points, u_c[0, :, 0])],
    }
    term = u_c[:, -1, 0]
    var = float(np.var(term, ddof=1))
    target = (1.0 - np.exp(-2.0)) / 2.0
    se = var * np.sqrt(2.0 / (params["paths"] - 1))
    z = abs(var - target) / se
    res.add(
        "see-ou-variance",
        z <= 3.0,
        z,
        f"terminal variance within 3 SE of (1 - e^{{-2T}})/2 at {params['paths']} paths",
    )
    resid_c = mild_residual(u_c, prob_c, ens_c)
    res.add(
        "see-mild-residual",
        resid_c.max <= 10 * tol + 1e-9,
        resid_c.max,
        "converged solutions satisfy the variation-of-constants identity",
    )
    del ens_c, u_c, term  # term is a view of u_c

    # (d) contraction scaling across a block ladder
    prob_d = SEEProblem(
        generator=None,
        drift=lambda t, x: np.zeros_like(x),
        lip_drift=0.0,
        growth_drift=0.0,
        noise_map=lambda t, x: x[:, :, None],
        lip_noise=1.0,
        u0=np.array([1.0]),
        name="mult",
    )
    ens_d = simulate(wiener, grid, params["contraction_paths"], seed + 3)
    lengths = []
    quotients = []
    ladder_rows = []
    for frac in (1, 2, 4):
        i1 = k // frac
        u_zero = np.zeros((ens_d.n_paths, k + 1, 1))
        u_one = np.ones((ens_d.n_paths, k + 1, 1))
        c_hat = lipschitz_quotient(prob_d, ens_d, u_zero, u_one, i0=0, i1=i1)
        lengths.append(grid.points[i1])
        quotients.append(c_hat)
        ladder_rows.append([float(grid.points[i1]), float(c_hat)])
    expo = _fit_order(lengths, quotients)
    res.add(
        "see-contraction-order",
        0.35 <= expo <= 0.65,
        expo,
        "measured block contraction scales like block^(1/2)",
    )
    res.series["contraction_ladder"] = {
        "columns": ["block_length", "contraction"],
        "rows": ladder_rows,
    }

    # (e) localization: stopped driver and agreeing initial values
    aspec = NoiseSpec(d_cyl=1, d_drive=1, sigma=_adapted_sigma, name="adapted-vol")
    prob_e = SEEProblem(
        generator=np.array([[-0.5]]),
        drift=lambda t, x: -0.5 * x,
        lip_drift=0.5,
        growth_drift=0.5,
        noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
        lip_noise=0.0,
        u0=np.array([0.2]),
        name="loc",
    )
    ens_e = simulate(aspec, grid, params["loc_paths"], seed + 4)
    tau_idx = first_passage_time(ens_e, 0.45)
    u0_alt = np.full((ens_e.n_paths, 1), 0.2)
    agree = np.arange(ens_e.n_paths) % 2 == 0
    u0_alt[~agree] = -0.7
    loc = localization_consistency(
        prob_e, ens_e, tau_idx=tau_idx, u0_alt=u0_alt, agree_mask=agree, tol=tol
    )
    bound = 2 * tol + 5.0 / k
    worst_loc = max(loc.max_stop_gap(), loc.max_event_gap())
    res.add(
        "see-localization",
        worst_loc <= bound,
        worst_loc,
        "stopped-driver and agreeing-initial-value gaps within 2 tol + 5 dt",
    )

    rho = rho_stopping_times(ens_e.bracket, n=2)
    prefix = ens_e.bracket.prefix()
    cap = 1.0 / 4.0
    worst_block = 0.0
    for b in range(4):
        j0 = int(round(b * k / 4))
        j1 = int(round((b + 1) * k / 4))
        stop_times = np.minimum(rho[:, b], grid.points[j1])
        j_stop = np.searchsorted(grid.points, stop_times - 1e-12)
        j_stop = np.clip(j_stop, j0, j1)
        mass = prefix[np.arange(ens_e.n_paths), j_stop] - prefix[:, j0]
        worst_block = max(worst_block, float(mass.max()))
    one_cell = float(ens_e.bracket.increments.max())
    res.add(
        "see-rho-block-mass",
        worst_block <= cap + one_cell + 1e-12,
        worst_block,
        "rho-stopped dyadic blocks carry at most T/2^n plus one cell of mass",
    )
    return res


# ---------------------------------------------------------------------------
# projsel: measurable projection selection identities


def run_projsel(params: dict, seed: int) -> ExperimentResult:
    res = ExperimentResult()
    rng = single_rng(seed, stream=59)
    worst = 0.0
    for i in range(params["instances"]):
        d = int(rng.integers(2, params["dim"] + 1))
        rank = int(rng.integers(1, d + 1))
        f = _random_psd(rng, d, rank=rank if rng.uniform() < 0.5 else None)
        k = int(rng.integers(1, d + 1))
        basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T[:k]
        triple = projection_selection(f, basis)
        scale = 1e-8 * (1.0 + np.linalg.norm(f, 2) ** 2)
        defects = triple.residuals(f)
        rel = max(defects.values()) / scale
        worst = max(worst, rel)
    res.add(
        "projsel-identities",
        worst <= 1.0,
        worst,
        f"intertwine/left-inverse/idempotence within 1e-8 (1 + ||F||^2), "
        f"{params['instances']} draws",
    )
    return res


EXPERIMENTS = {
    "qv": run_qv,
    "supmeas": run_supmeas,
    "countex": run_countex,
    "timechange": run_timechange,
    "gamma": run_gamma,
    "bdg": run_bdg,
    "ito": run_ito,
    "kw": run_kw,
    "see": run_see,
    "projsel": run_projsel,
}


# Each experiment's params and their defaults.  A plain value is an integer
# >= 1 (or, as a tuple, a non-empty list of them); a ``Param`` states any
# other range.  A ladder fits a slope through its levels, a Monte Carlo
# standard error needs two samples, and projsel draws dimensions from 2..dim.
# bdg's isometry and see's variance test take standard errors over paths, as
# do ito's residuals (its general instance at half the paths); timechange's
# dds ladder fits logs of gaps that vanish on a one-cell grid; see's
# contraction ladder needs two cells in a quarter of the grid, and its
# rho-stopping blocks start at quarters of the horizon, which are grid points
# only when the grid is a multiple of 4.
PARAMS = {
    "qv": {
        "d": 2,
        "paths": 1000,
        "grid": 64,
        "sphere": 64,
        "depth": Param(4, least=0),
        "instances": 100,
    },
    "supmeas": {
        "max_cells": 6,
        "max_measures": 3,
        "instances_per_shape": 4,
        "density_instances": 100,
        "refine": Param(1, least=0),
    },
    "countex": {"orders": (4, 8, 16, 32)},
    "timechange": {
        "paths": 1000,
        "grid": Param(64, least=2),
        "ladder": Param(3, least=2),
        "ladder_paths": 200,
    },
    "gamma": {
        "instances": 50,
        "ideal_instances": 100,
        "bound_instances": 50,
        "samples": Param(4096, least=2),
    },
    "bdg": {
        "paths": Param(10000, least=2),
        "instances": 20,
        "iso_instances": 20,
        "p_list": Param((1, 2, 4), real=True),
        "gamma_samples": Param(8192, least=2),
    },
    "ito": {"paths": Param(10000, least=4), "grid": 64, "ladder": Param(3, least=2)},
    "kw": {"paths": 1000, "instances": 20, "grid": 32},
    "see": {
        "paths": Param(10000, least=2),
        "grid": Param(256, least=8, step=4),
        "tol": Param(1e-8, real=True),
        "contraction_paths": 2000,
        "loc_paths": 256,
    },
    "projsel": {"instances": 200, "dim": Param(6, least=2)},
}
