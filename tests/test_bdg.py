import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylmart import experiments
from cylmart.bdg import (
    BDGInstance,
    BDGReport,
    IsometryReport,
    ItoReport,
    _path_energy,
    bdg_ratio_panel,
    fit_bracket,
    integral_kernel,
    ito_isometry,
    ito_residual,
    trace_term,
    validate_derivatives,
)
from cylmart._util import canonical_json
from cylmart.experiments import run_bdg
from cylmart.gammanorm import GammaKernel, gamma_norm_exact_hilbert
from cylmart.harness import make_config
from cylmart.integration import IntegrandProcess, integrate
from cylmart.martingales import NoiseSpec, qm_operator, qv_exact, simulate, stop_ensemble
from cylmart.measures import TimeGrid
from cylmart.operators import psd_sqrt


@pytest.fixture
def grid():
    return TimeGrid.uniform(1.0, 32)


class TestIsometry:
    def test_zero_integrand(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 100, seed=1)
        rep = ito_isometry(IntegrandProcess.constant(grid, np.zeros((2, 2))), ens)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_identity_wiener_d2(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 10_000, seed=2)
        rep = ito_isometry(IntegrandProcess.constant(grid, np.eye(2)), ens)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0, rel=0.1)

    def test_random_instances(self, grid):
        rng = np.random.default_rng(3)
        for i in range(5):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            spec = NoiseSpec(d, d, rng.standard_normal((d, d)))
            phi = IntegrandProcess.constant(grid, rng.standard_normal((m, d)))
            ens = simulate(spec, grid, 4000, seed=10 + i)
            assert ito_isometry(phi, ens).passed

    def test_adapted_integrand(self, grid):
        # per-path integrand reading the past keeps the identity exact
        spec = NoiseSpec(1, 1, np.eye(1))
        ens = simulate(spec, grid, 8000, seed=4)
        w = ens.m_evals[:, :-1, :]  # values at left endpoints
        mats = np.tanh(w)[:, :, :, None]  # (n, K, 1, 1)
        rep = ito_isometry(IntegrandProcess(grid, mats), ens)
        assert rep.passed

    def test_kernel_energy_matches_gamma_norm(self, grid):
        rng = np.random.default_rng(5)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        phi = IntegrandProcess.constant(grid, rng.standard_normal((2, 3)))
        ens = simulate(spec, grid, 100, seed=6)
        rep = ito_isometry(phi, ens)
        kernel = integral_kernel(phi, spec)
        assert rep.rhs == pytest.approx(gamma_norm_exact_hilbert(kernel) ** 2, rel=1e-10)

    def test_single_path_raises(self):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), TimeGrid.uniform(1, 8), 1, 3)
        with pytest.raises(ValueError, match="n_paths >= 2"):
            ito_isometry(IntegrandProcess.constant(ens.grid, np.eye(2)), ens)

    @given(
        d_cyl=st.integers(1, 4),
        d_drive=st.integers(1, 4),
        m=st.integers(1, 4),
        cells=st.integers(1, 10),
        n=st.integers(2, 12),
        extra=st.integers(1, 8),
        per_cell_sigma=st.booleans(),
        per_cell_phi=st.booleans(),
        q_layout=st.sampled_from([None, "C", "F"]),
        seed=st.integers(0, 2**32),
    )
    # two paths with one cell, m = d_cyl = 1 and d_drive = 2 is where the
    # earlier per-path einsum summed in another order than for three paths
    @example(1, 2, 1, 1, 2, 1, False, False, "C", 12)
    @example(1, 2, 1, 1, 3, 2, False, False, "F", 1037)
    @example(2, 3, 2, 4, 5, 3, True, True, "F", 7)
    @settings(max_examples=80, deadline=None)
    def test_shared_operands_match_per_path_bit_for_bit(
        self, d_cyl, d_drive, m, cells, n, extra, per_cell_sigma, per_cell_phi, q_layout, seed
    ):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, cells)]))
        sig_shape = (cells, d_cyl, d_drive) if per_cell_sigma else (d_cyl, d_drive)
        q = None
        if q_layout is not None:
            a = rng.standard_normal((d_drive, d_drive))
            q = np.asarray(a @ a.T, order=q_layout)
        spec = NoiseSpec(d_cyl, d_drive, rng.standard_normal(sig_shape), q_drive=q)
        mats = rng.standard_normal((cells, m, d_cyl) if per_cell_phi else (m, d_cyl))
        phi = IntegrandProcess(grid, mats) if per_cell_phi else IntegrandProcess.constant(grid, mats)

        def materialized(ens):
            # the same ensemble and integrand with sigma and phi stored per path
            n = ens.n_paths
            sig = np.broadcast_to(ens.sigma_path, (n,) + ens.sigma_path.shape).copy()
            mats = np.broadcast_to(phi.matrices, (n,) + phi.matrices.shape).copy()
            return IntegrandProcess(grid, mats), dataclasses.replace(ens, sigma_path=sig)

        ens, large = simulate(spec, grid, n, seed), simulate(spec, grid, n + extra, seed)
        shared, per_path = ito_isometry(phi, ens), ito_isometry(*materialized(ens))
        for field in ("lhs", "rhs", "z"):
            assert np.array_equal(getattr(shared, field), getattr(per_path, field)), field
        energy = _path_energy(phi, ens)
        assert np.array_equal(_path_energy(*materialized(ens)), energy)
        # a path's energy does not depend on how many paths the ensemble has
        assert np.array_equal(_path_energy(phi, large)[:n], energy)
        assert np.array_equal(_path_energy(*materialized(large))[:n], energy)


# integral_kernel as it was: the paper's kernel phi (q_M)^{1/2} against the
# bracket d[M], with a square root of the normalized density in every cell.
def paper_form_kernel(phi, spec, flavor="hilbert"):
    if phi.matrices.ndim != 3:
        raise ValueError("kernel construction needs a deterministic integrand")
    roots = np.stack([psd_sqrt(q) for q in qm_operator(spec, phi.grid).matrices])
    mats = np.einsum("kmc,kcd->kmd", phi.matrices, roots)
    return GammaKernel(qv_exact(spec, phi.grid), mats, flavor)


class TestKernelCovariance:
    @given(
        d=st.integers(1, 4),
        m=st.integers(1, 4),
        cells=st.integers(1, 12),
        rank_deficient=st.booleans(),
        per_cell=st.booleans(),
        q_kind=st.sampled_from(["identity", "full", "singular"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(3, 2, 8, True, False, "full", 5)
    @example(1, 1, 4, True, True, "singular", 6)
    @settings(max_examples=100, deadline=None)
    def test_same_covariance_as_paper_form(self, d, m, cells, rank_deficient, per_cell, q_kind, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, cells)]))
        # rank-deficient: d + 1 drivers, the first (d + 1) // 2 unused, as the
        # bdg panel builds them, and one cell with sigma = 0
        d_drive = d + 1 if rank_deficient else d
        sig = rng.standard_normal((cells, d, d_drive))
        if rank_deficient:
            sig[:, :, : (d + 1) // 2] = 0.0
            sig[cells // 2] = 0.0
        if not per_cell:
            sig = sig[0]
        a = rng.standard_normal((d_drive, d_drive - (q_kind == "singular")))
        q = None if q_kind == "identity" else a @ a.T
        spec = NoiseSpec(d, d_drive, sig, q_drive=q)
        phi = IntegrandProcess(grid, rng.standard_normal((cells, m, d)))
        new, paper = integral_kernel(phi, spec), paper_form_kernel(phi, spec)
        assert new.matrices.shape == (cells, m, d_drive)
        # entrywise scale: sum over cells of |phi| |sigma| |Q^{1/2}| |.|^T dt,
        # which bounds every product both kernels sum (worst seen in 5000
        # cases: 2.8 (d + d_drive) eps times the scale)
        row = np.abs(phi.matrices) @ np.abs(spec.sigma_on_grid(grid)) @ np.abs(psd_sqrt(spec.q()))
        scale = np.einsum("kmd,knd,k->mn", row, row, grid.widths)
        bound = 16 * (d + d_drive) * np.finfo(float).eps * scale
        assert np.all(np.abs(new.covariance() - paper.covariance()) <= bound)


class TestPanel:
    def test_small_panel_brackets(self, grid):
        rng = np.random.default_rng(7)
        instances = [
            BDGInstance(
                "a", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1))
            ),
            BDGInstance(
                "b",
                NoiseSpec(2, 2, rng.standard_normal((2, 2))),
                IntegrandProcess.constant(grid, rng.standard_normal((3, 2))),
            ),
        ]
        reports = bdg_ratio_panel(instances, [1, 2], ["hilbert", 4], 2000, seed=8)
        assert len(reports) == 2 * 2 * 2
        brackets = fit_bracket(reports)
        for info in brackets.values():
            assert info["C"] >= 1.0
            assert info["min_ratio"] <= info["max_ratio"]

    def test_ratios_at_least_one_for_deterministic_kernels(self, grid):
        # E sup^p dominates E|terminal|^p which dominates the kernel moment
        rng = np.random.default_rng(9)
        inst = BDGInstance(
            "c",
            NoiseSpec(2, 2, rng.standard_normal((2, 2))),
            IntegrandProcess.constant(grid, rng.standard_normal((2, 2))),
        )
        reports = bdg_ratio_panel([inst], [2, 4], ["hilbert"], 4000, seed=10)
        for rep in reports:
            assert rep.ratio >= 0.95

    def test_degenerate_instances_flagged(self, grid):
        inst = BDGInstance(
            "zero", NoiseSpec(1, 1, np.zeros((1, 1))),
            IntegrandProcess.constant(grid, np.eye(1)),
        )
        reports = bdg_ratio_panel([inst], [2], ["hilbert"], 100, seed=11)
        assert all(r.degenerate for r in reports)
        assert fit_bracket(reports) == {}

    def test_time_rescaling_leaves_ratio(self):
        # stretching the clock scales both sides identically
        rng = np.random.default_rng(12)
        sig = rng.standard_normal((2, 2))
        phi = rng.standard_normal((2, 2))
        out = []
        for horizon in (1.0, 3.0):
            g = TimeGrid.uniform(horizon, 32)
            inst = BDGInstance(
                f"h{horizon}", NoiseSpec(2, 2, sig), IntegrandProcess.constant(g, phi)
            )
            rep = bdg_ratio_panel([inst], [2], ["hilbert"], 20_000, seed=13)[0]
            out.append(rep.ratio)
        assert out[0] == pytest.approx(out[1], rel=0.05)

    def test_single_path_raises(self, grid):
        inst = BDGInstance(
            "one", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1))
        )
        with pytest.raises(ValueError, match="n_paths >= 2"):
            bdg_ratio_panel([inst], [2], ["hilbert"], 1, seed=15)

    def test_csv_row_format(self):
        params = make_config(
            "bdg", paths=100, instances=1, iso_instances=1, p_list=[1], gamma_samples=16
        )["params"]
        panel = run_bdg(params, seed=14).series["bdg_panel"]
        assert panel["columns"] == BDGReport.CSV_HEADER.split(",")
        assert panel["rows"] and all(len(row) == len(panel["columns"]) for row in panel["rows"])
        assert panel["rows"][0][1:4] == [1.0, "hilbert", 100.0]

    def test_zero_sigma_row_written_as_null(self, grid, monkeypatch):
        # M = 0 has no finite ratio: its rows carry None (JSON null) and the
        # degenerate flag, and the fitted brackets skip them
        zero = BDGInstance(
            "zero", NoiseSpec(1, 1, np.zeros((1, 1))), IntegrandProcess.constant(grid, np.eye(1))
        )
        unit = BDGInstance(
            "unit", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1))
        )
        monkeypatch.setattr(experiments, "_panel_instances", lambda rng, count: [zero, unit])
        params = make_config(
            "bdg", paths=100, instances=2, iso_instances=1, p_list=[2], gamma_samples=16
        )["params"]
        res = run_bdg(params, seed=14)
        rows = {row[0]: row for row in res.series["bdg_panel"]["rows"]}
        assert rows["zero"][8:] == [None, 1.0]
        assert rows["unit"][8] is not None and rows["unit"][9] == 0.0
        canonical_json(res.series)  # no NaN reaches the report
        assert "bracket_C[p=2,hilbert]" in res.metrics

    @pytest.mark.parametrize("seed", range(8))
    def test_panel_instances_are_not_zero(self, seed):
        # a rank-deficient instance keeps half its drivers even at d = 1
        for inst in experiments._panel_instances(np.random.default_rng(seed), 30):
            assert np.any(np.asarray(inst.spec.sigma) != 0), inst.name


class TestTraceTerm:
    def test_identity_inner_product(self):
        assert trace_term(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_zero_map(self):
        assert trace_term(np.zeros((3, 2)), np.eye(3)) == 0.0

    def test_matches_matrix_trace(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = rng.standard_normal((m, d))
            a = rng.standard_normal((m, m))
            a = (a + a.T) / 2
            assert trace_term(r, a) == pytest.approx(np.trace(r.T @ a @ r), rel=1e-12)

    def test_basis_invariance(self):
        rng = np.random.default_rng(16)
        r = rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert trace_term(r @ q, a) == pytest.approx(trace_term(r, a), rel=1e-12)

    def test_callable_form(self):
        r = np.array([[1.0, 0.0], [0.0, 2.0]])
        val = trace_term(r, lambda u, v: float(u @ v))
        assert val == pytest.approx(5.0)


class TestDerivativeValidation:
    def test_accepts_consistent_derivatives(self):
        validate_derivatives(
            f=lambda t, x: np.sin(x[:, 0]) + t,
            d1f=lambda t, x: np.ones(x.shape[0]),
            d2f=lambda t, x: np.column_stack([np.cos(x[:, 0])]),
            d22f=lambda t, x: -np.sin(x[:, 0])[:, None, None],
            points=[(0.5, np.array([0.3]))],
        )

    def test_rejects_wrong_gradient(self):
        with pytest.raises(ValueError, match="gradient"):
            validate_derivatives(
                f=lambda t, x: x[:, 0] ** 2,
                d1f=lambda t, x: np.zeros(x.shape[0]),
                d2f=lambda t, x: 3.0 * x,  # wrong
                d22f=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
                points=[(0.0, np.array([1.0]))],
            )

    @pytest.mark.parametrize("name", ["f", "d1f", "d2f", "d22f"])
    def test_rejects_non_finite_values_by_name(self, name):
        # every comparison with NaN is False: all-NaN derivatives used to pass
        funcs = dict(_square_functional())
        exact = funcs[name]
        funcs[name] = lambda t, x: np.full_like(np.asarray(exact(t, x), dtype=float), np.nan)
        with pytest.raises(ValueError, match=rf"^{name} is not finite at t=0.5$"):
            validate_derivatives(**funcs, points=[(0.5, np.array([1.0]))])


def _square_functional():
    """f = |x|^2 with its exact derivatives."""
    return dict(
        f=lambda t, x: np.sum(x**2, axis=1),
        d1f=lambda t, x: np.zeros(x.shape[0]),
        d2f=lambda t, x: 2.0 * x,
        d22f=lambda t, x: np.broadcast_to(2.0 * np.eye(x.shape[1]), x.shape + x.shape[1:]),
    )


def _assert_terminal_residuals(rep, residuals):
    """The report's mean and standard error are those of the given per-path
    terminal residuals, to round-off."""
    n = residuals.size
    assert rep.n_paths == n
    assert rep.mean_terminal == pytest.approx(np.mean(residuals), rel=1e-9, abs=1e-12)
    se = np.std(residuals, ddof=1) / np.sqrt(n)
    assert rep.se_terminal == pytest.approx(se, rel=1e-9, abs=1e-12)
    assert rep.max_abs >= np.abs(residuals).max() - 1e-12


class TestItoResidual:
    # the one refusal left: adapted sigma and per-path phi are the paper's
    # class, accepted (test_accepts_the_papers_class)
    @pytest.mark.parametrize("case", ["other grid"])
    def test_rejects_before_calling_f(self, grid, case):
        calls = []

        def counted(value):
            def fn(t, x):
                calls.append(t)
                return value(x)

            return fn

        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 4, seed=23)
        phi = IntegrandProcess.constant(TimeGrid.uniform(2.0, grid.n_cells), np.eye(1))
        with pytest.raises(ValueError, match="grids differ"):
            ito_residual(
                f=counted(lambda x: x[:, 0]),
                d1f=counted(lambda x: np.zeros(x.shape[0])),
                d2f=counted(np.ones_like),
                d22f=counted(lambda x: np.zeros((x.shape[0], 1, 1))),
                xi=np.zeros(1),
                psi=None,
                a_path=None,
                phi=phi,
                ens=ens,
            )
        assert calls == []

    def test_stopped_square_reads_the_stopped_trace(self, grid):
        # f = x^2, phi = sigma = 1, stopped at a per-path tau: the chain rule
        # holds for the stopped process, and path p's residual is
        # sum_{i < tau_p} (d zeta_i)^2 - t_{tau_p}, with nothing after the stop
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 400, seed=27)
        tau = np.random.default_rng(27).integers(0, grid.n_cells + 1, ens.n_paths)
        stopped = stop_ensemble(ens, tau)
        rep = ito_residual(
            **_square_functional(),
            xi=np.zeros(1),
            psi=None,
            a_path=None,
            phi=IntegrandProcess.constant(grid, np.eye(1)),
            ens=stopped,
        )
        want = np.sum(stopped.driven[:, :, 0] ** 2, axis=1) - grid.points[tau]
        _assert_terminal_residuals(rep, want)
        assert abs(rep.z) <= 3.0

    @pytest.mark.parametrize("case", ["adapted sigma", "per-path phi"])
    def test_accepts_the_papers_class(self, grid, case):
        # f = x^2 in one dimension: path p's residual is the sum over cells of
        # (phi sigma dW)^2 - phi^2 sigma^2 q dt, with the realized sigma and phi
        q = 1.5
        if case == "adapted sigma":
            spec = NoiseSpec(
                1, 1, lambda t, w: (1.0 + 0.5 * np.tanh(w))[..., None], q_drive=np.array([[q]])
            )
        else:
            spec = NoiseSpec(1, 1, np.array([[0.8]]), q_drive=np.array([[q]]))
        ens = simulate(spec, grid, 4000, seed=28)
        phi_vals = np.ones((ens.n_paths, grid.n_cells))
        if case == "per-path phi":
            phi_vals = np.cos(ens.m_evals[:, :-1, 0])  # reads the past only
        phi = IntegrandProcess(grid, phi_vals[:, :, None, None])
        rep = ito_residual(
            **_square_functional(), xi=np.zeros(1), psi=None, a_path=None, phi=phi, ens=ens
        )
        sig = np.broadcast_to(ens.sigma_path[..., 0, 0], phi_vals.shape)
        inc = phi_vals * ens.driven[:, :, 0]
        want = np.sum(inc**2 - (phi_vals * sig) ** 2 * q * grid.widths, axis=1)
        _assert_terminal_residuals(rep, want)
        assert abs(rep.z) <= 3.0

    def test_scalar_identity_exactly_zero(self, grid):
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 200, seed=17)
        rep = ito_residual(
            f=lambda t, x: x[:, 0],
            d1f=lambda t, x: np.zeros(x.shape[0]),
            d2f=lambda t, x: np.ones_like(x),
            d22f=lambda t, x: np.zeros((x.shape[0], 1, 1)),
            xi=np.zeros(1),
            psi=None,
            a_path=None,
            phi=IntegrandProcess.constant(grid, np.eye(1)),
            ens=ens,
        )
        assert rep.max_abs == 0.0

    def test_linear_functional_roundoff(self, grid):
        rng = np.random.default_rng(18)
        a = rng.standard_normal(3)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        ens = simulate(spec, grid, 200, seed=19)
        phi = IntegrandProcess.constant(grid, rng.standard_normal((3, 2)))
        psi = rng.standard_normal((32, 3))
        apath = qv_exact(spec, grid).to_increasing()
        rep = ito_residual(
            f=lambda t, x: x @ a,
            d1f=lambda t, x: np.zeros(x.shape[0]),
            d2f=lambda t, x: np.broadcast_to(a, x.shape),
            d22f=lambda t, x: np.zeros((x.shape[0], 3, 3)),
            xi=rng.standard_normal(3),
            psi=psi,
            a_path=apath,
            phi=phi,
            ens=ens,
        )
        assert rep.max_abs <= 1e-12

    def test_square_reduces_to_isometry(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        ens = simulate(spec, grid, 10_000, seed=20)
        phi = IntegrandProcess.constant(grid, np.eye(2))
        rep = ito_residual(
            f=lambda t, x: np.sum(x**2, axis=1),
            d1f=lambda t, x: np.zeros(x.shape[0]),
            d2f=lambda t, x: 2.0 * x,
            d22f=lambda t, x: np.broadcast_to(2.0 * np.eye(2), (x.shape[0], 2, 2)),
            xi=np.zeros(2),
            psi=None,
            a_path=None,
            phi=phi,
            ens=ens,
        )
        # E f(zeta_T) - trace term = martingale: mean residual within noise
        assert abs(rep.z) <= 3.0

    def test_classical_square_mean_and_order(self):
        maxima = []
        for k in (32, 64, 128):
            g = TimeGrid.uniform(1.0, k)
            ens = simulate(NoiseSpec(1, 1, np.eye(1)), g, 4000, seed=21)
            rep = ito_residual(
                f=lambda t, x: x[:, 0] ** 2,
                d1f=lambda t, x: np.zeros(x.shape[0]),
                d2f=lambda t, x: 2.0 * x,
                d22f=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
                xi=np.zeros(1),
                psi=None,
                a_path=None,
                phi=IntegrandProcess.constant(g, np.eye(1)),
                ens=ens,
            )
            assert abs(rep.z) <= 3.0
            maxima.append(rep.max_abs)
        slope = np.polyfit(np.log([1 / 32, 1 / 64, 1 / 128]), np.log(maxima), 1)[0]
        assert slope >= 0.4

    def test_validation_failure_aborts(self, grid):
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 10, seed=22)
        with pytest.raises(ValueError, match="mismatch"):
            ito_residual(
                f=lambda t, x: x[:, 0] ** 2,
                d1f=lambda t, x: np.zeros(x.shape[0]),
                d2f=lambda t, x: 5.0 * x,  # wrong on purpose
                d22f=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
                xi=np.zeros(1),
                psi=None,
                a_path=None,
                phi=IntegrandProcess.constant(grid, np.eye(1)),
                ens=ens,
            )


# The trace term's kernels phi (density)^{1/2} and bracket increments
# ||sigma Qn sigma^T|| ||Q|| dt (Qn = Q / ||Q||), as ito_residual formed them
# before it read operator_rate.
def reference_trace_kernels(phi, spec):
    if phi.matrices.ndim != 3:
        raise ValueError("kernel construction needs a deterministic integrand")
    sig, q, grid = spec.sigma_on_grid(phi.grid), spec.q(), phi.grid
    a = np.einsum("kcd,de,kfe->kcf", sig, q, sig)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    qm = a / np.where(norms > 0, norms, 1.0)[:, None, None]
    qm[norms == 0] = 0.0
    roots = np.stack([psd_sqrt(x) for x in qm])
    rate = np.abs(np.linalg.eigvalsh(q)).max()
    qn = q / rate if rate > 0 else np.zeros_like(q)
    an = np.einsum("kcd,de,kfe->kcf", sig, qn, sig)
    dqv = np.abs(np.linalg.eigvalsh(an)).max(axis=-1) * grid.widths * rate
    return np.einsum("kmc,kcd->kmd", phi.matrices, roots), dqv


# ito_residual as it was when it stored zeta and the residual for every cell,
# with the trace term read from each path's own sigma (stopped ensembles carry
# it per path).
def reference_ito_residual(
    f, d1f, d2f, d22f, xi, psi, a_path, phi, ens, validate=True
):
    grid = ens.grid
    k = grid.n_cells
    n = ens.n_paths
    m = phi.target_dim

    xi = np.asarray(xi, dtype=float)
    xi = np.broadcast_to(xi, (n, m))
    driven = ens.driven_increments()
    mats = phi.matrices
    if mats.ndim == 3:
        mats = np.broadcast_to(mats, (n,) + mats.shape)
    stoch_inc = np.einsum("nkmc,nkc->nkm", mats, driven)  # (n, K, m)
    driven_phi = np.zeros((n, k + 1, m))
    np.cumsum(stoch_inc, axis=1, out=driven_phi[:, 1:, :])

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
    drift = np.zeros((k + 1, m))
    np.cumsum(psi_vals * da[:, None], axis=0, out=drift[1:])

    zeta = xi[:, None, :] + drift[None, :, :] + driven_phi  # (n, K+1, m)

    if validate:
        mid = k // 2
        pts = [(grid.points[0], zeta[0, 0]), (grid.points[mid], zeta[0, mid])]
        if n > 1:
            pts.append((grid.points[-1], zeta[-1, -1]))
        validate_derivatives(f, d1f, d2f, d22f, pts)

    # the trace kernels of each path's own sigma, as a per-cell spec
    spec = ens.spec
    sig_paths = np.broadcast_to(ens.sigma_path, (n,) + ens.sigma_path.shape[-3:])
    per_path = [
        reference_trace_kernels(phi, NoiseSpec(spec.d_cyl, spec.d_drive, sig, spec.q_drive))
        for sig in sig_paths
    ]
    kernels = np.stack([kern for kern, _ in per_path])  # (n, K, m, dc)
    dqv = np.stack([inc for _, inc in per_path])  # (n, K)

    residual = np.empty((n, k + 1))
    f0 = np.asarray(f(grid.points[0], zeta[:, 0, :]), dtype=float)
    residual[:, 0] = 0.0
    correction = np.zeros(n)
    for i in range(k):
        t = grid.points[i]
        state = zeta[:, i, :]
        grad = np.asarray(d2f(t, state), dtype=float)  # (n, m)
        hess = np.asarray(d22f(t, state), dtype=float)  # (n, m, m)
        tr = np.einsum("nmd,nmf,nfd->n", kernels[:, i], hess, kernels[:, i])
        correction = correction + (
            np.asarray(d1f(t, state), dtype=float) * grid.widths[i]
            + grad @ (psi_vals[i] * da[i])
            + np.einsum("nm,nm->n", grad, stoch_inc[:, i, :])
            + 0.5 * tr * dqv[:, i]
        )
        f_next = np.asarray(f(grid.points[i + 1], zeta[:, i + 1, :]), dtype=float)
        residual[:, i + 1] = f_next - f0 - correction

    terminal = residual[:, -1]
    se = float(np.std(terminal, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ItoReport(
        mean_terminal=float(np.mean(terminal)),
        se_terminal=se,
        max_abs=float(np.abs(residual).max()),
        n_paths=n,
    )


def _smooth_functional(a, b, c, nan_above=None, nan_times=(0.1, 0.3)):
    """f = sin(x) . a + b |x|^2 + c t with exact derivatives; with
    ``nan_above`` f is NaN on paths whose first coordinate exceeds it at
    times strictly inside ``nan_times``, a window that must keep clear of
    the derivative check points (t = 0, t_{K/2} and T, each +- 1e-5)."""

    def f(t, x):
        out = np.sin(x) @ a + b * np.sum(x**2, axis=1) + c * t
        if nan_above is not None and nan_times[0] < t < nan_times[1]:
            out = np.where(x[:, 0] > nan_above, np.nan, out)
        return out

    def d22f(t, x):
        n, m = x.shape
        out = np.zeros((n, m, m))
        idx = np.arange(m)
        out[:, idx, idx] = -np.sin(x) * a + 2.0 * b
        return out

    return dict(
        f=f,
        d1f=lambda t, x: np.full(x.shape[0], c),
        d2f=lambda t, x: np.cos(x) * a + 2.0 * b * x,
        d22f=d22f,
    )


def _outcome(fn, kwargs):
    try:
        return fn(**kwargs)
    except ValueError as exc:
        return str(exc)


class TestItoResidualOracle:
    """The cell-by-cell reduction equals the stored-array form.

    The reference forms the trace term through per-cell square roots of the
    normalized density and the bracket, the new code as tr(H phi A phi^T) dt,
    so the two differ in their last digits: up to 1.3e-13 in mean_terminal
    over 3000 random draws of this strategy.  They must agree to 1e-12
    relative plus 1e-10 absolute; dropping or halving the trace term moves
    the residual by O(dt).
    """

    @given(
        n=st.integers(2, 12),
        k=st.integers(1, 10),
        m=st.integers(1, 3),
        d=st.integers(1, 3),
        shared_xi=st.booleans(),
        with_psi=st.booleans(),
        stopped=st.booleans(),
        nan_above=st.none() | st.floats(-1.0, 1.0),
        shared_sigma=st.booleans(),
        q_layout=st.sampled_from([None, "C", "F"]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_stored_arrays(
        self, n, k, m, d, shared_xi, with_psi, stopped, nan_above, shared_sigma, q_layout, seed
    ):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.05, 0.3, k)]))
        q = None
        if q_layout is not None:
            a = rng.standard_normal((d, d))
            q = np.asarray(a @ a.T, order=q_layout)
        sigma = rng.standard_normal((d, d) if shared_sigma else (k, d, d))
        spec = NoiseSpec(d, d, sigma, q_drive=q)
        ens = simulate(spec, grid, n, seed)
        if stopped:  # per-path sigma and bracket, same deterministic spec
            ens = stop_ensemble(ens, rng.integers(0, k + 1, n))
        # NaN only between the middle and the last check point
        nan_times = (grid.points[k // 2] + 1e-4, grid.horizon - 1e-4)
        kwargs = dict(
            _smooth_functional(
                rng.uniform(-2, 2, m), rng.uniform(-1, 1), rng.uniform(-1, 1), nan_above, nan_times
            ),
            xi=rng.standard_normal(m) if shared_xi else rng.standard_normal((n, m)),
            psi=rng.standard_normal((k, m)) if with_psi else None,
            a_path=qv_exact(spec, grid).to_increasing() if with_psi else None,
            phi=IntegrandProcess(grid, rng.standard_normal((k, m, d))),
            ens=ens,
        )
        got, want = (_outcome(fn, kwargs) for fn in (ito_residual, reference_ito_residual))
        if isinstance(want, str):  # a derivative check failed: it must fail alike
            assert got == want
            return
        assert got.n_paths == want.n_paths
        for field in ("mean_terminal", "se_terminal", "max_abs"):
            g, w = getattr(got, field), getattr(want, field)
            assert np.isclose(g, w, rtol=1e-12, atol=1e-10, equal_nan=True), field

    def test_nan_propagates_to_max_abs(self, grid):
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 20, seed=24)
        funcs = _smooth_functional(np.ones(1), 0.5, 0.0, nan_above=0.0)
        phi = IntegrandProcess.constant(grid, np.eye(1))
        kwargs = dict(funcs, xi=np.zeros(1), psi=None, a_path=None, phi=phi, ens=ens)
        got = ito_residual(**kwargs)
        assert np.isnan(got.max_abs)
        assert np.isnan(reference_ito_residual(**kwargs).max_abs)

    def test_one_call_holds_two_path_arrays(self):
        # zeta and phi sigma dW are the only (n, K+1) arrays a call needs;
        # with zeta built out of place and the residual stored it held five
        n, k = 4000, 64
        grid = TimeGrid.uniform(1.0, k)
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, n, seed=25)
        kwargs = dict(
            f=lambda t, x: x[:, 0] ** 2,
            d1f=lambda t, x: np.zeros(x.shape[0]),
            d2f=lambda t, x: 2.0 * x,
            d22f=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
            xi=np.zeros(1),
            psi=None,
            a_path=None,
            phi=IntegrandProcess.constant(grid, np.eye(1)),
            ens=ens,
        )
        ito_residual(**kwargs)
        tracemalloc.start()
        try:
            ito_residual(**kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * (k + 1) * 8

    def test_zeta_is_streamed(self):
        # a call holds no (n, K) array: phi sigma dW is contracted a cell at a
        # time, and zeta is formed from a running sum, never as an (n, K+1)
        # array (0.22 such arrays now; 1.19 when phi sigma dW was stored)
        n, k = 4000, 64
        grid = TimeGrid.uniform(1.0, k)
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, n, seed=26)
        kwargs = dict(
            _smooth_functional(np.ones(1), 0.5, 0.0, None),
            xi=np.zeros(1),
            psi=None,
            a_path=None,
            phi=IntegrandProcess.constant(grid, np.eye(1)),
            ens=ens,
        )
        ito_residual(**kwargs)
        tracemalloc.start()
        try:
            ito_residual(**kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * (k + 1) * 8
