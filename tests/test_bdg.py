import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylmart.bdg import (
    BDGInstance,
    IsometryReport,
    bdg_ratio_panel,
    fit_bracket,
    integral_kernel,
    ito_isometry,
    ito_residual,
    trace_term,
    validate_derivatives,
)
from cylmart.gammanorm import gamma_norm_exact_hilbert
from cylmart.integration import IntegrandProcess, integrate
from cylmart.martingales import NoiseSpec, qv_exact, simulate
from cylmart.measures import TimeGrid


def _isometry_reference(phi, ens):
    """ito_isometry with the per-path einsums for every ensemble."""
    lhs_paths = np.sum(integrate(phi, ens).terminal() ** 2, axis=1)
    sig = ens.sigma_for_paths()
    q = ens.spec.q()
    mats = phi.matrices
    if mats.ndim == 3:
        rows = np.einsum("kmc,nkcd->nkmd", mats, sig)
    else:
        rows = np.einsum("nkmc,nkcd->nkmd", mats, sig)
    rhs_paths = np.einsum("nkmd,de,nkme->nk", rows, q, rows) @ ens.grid.widths
    diff = lhs_paths - rhs_paths
    se = float(np.std(diff, ddof=1) / np.sqrt(ens.n_paths))
    z = float(np.mean(diff) / se) if se > 0 else 0.0
    return IsometryReport(float(np.mean(lhs_paths)), float(np.mean(rhs_paths)), z, ens.n_paths)


@pytest.fixture
def grid():
    return TimeGrid.uniform(1.0, 32)


class TestIsometry:
    def test_zero_integrand(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 100, seed=1)
        rep = ito_isometry(IntegrandProcess.constant(grid, np.zeros((2, 2))), ens)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed()

    def test_identity_wiener_d2(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 10_000, seed=2)
        rep = ito_isometry(IntegrandProcess.constant(grid, np.eye(2)), ens)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.passed()
        assert rep.lhs == pytest.approx(2.0, rel=0.1)

    def test_random_instances(self, grid):
        rng = np.random.default_rng(3)
        for i in range(5):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            spec = NoiseSpec(d, d, rng.standard_normal((d, d)))
            phi = IntegrandProcess.constant(grid, rng.standard_normal((m, d)))
            ens = simulate(spec, grid, 4000, seed=10 + i)
            assert ito_isometry(phi, ens).passed()

    def test_adapted_integrand(self, grid):
        # per-path integrand reading the past keeps the identity exact
        spec = NoiseSpec(1, 1, np.eye(1))
        ens = simulate(spec, grid, 8000, seed=4)
        w = ens.vector_paths()[:, :-1, :]  # values at left endpoints
        mats = np.tanh(w)[:, :, :, None]  # (n, K, 1, 1)
        rep = ito_isometry(IntegrandProcess(grid, mats, adapted=True), ens)
        assert rep.passed()

    def test_kernel_energy_matches_gamma_norm(self, grid):
        rng = np.random.default_rng(5)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        phi = IntegrandProcess.constant(grid, rng.standard_normal((2, 3)))
        ens = simulate(spec, grid, 100, seed=6)
        rep = ito_isometry(phi, ens)
        kernel = integral_kernel(phi, spec, grid)
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
        n=st.integers(2, 40),
        per_cell_sigma=st.booleans(),
        per_cell_phi=st.booleans(),
        q_layout=st.sampled_from([None, "C", "F"]),
        seed=st.integers(0, 2**32),
    )
    # two paths with one cell, m = d_cyl = 1 and d_drive = 2 is where numpy
    # sums the per-path einsum in another order than for three paths
    @example(1, 2, 1, 1, 2, False, False, "C", 12)
    @example(1, 2, 1, 1, 3, False, False, "C", 1037)
    @settings(max_examples=80, deadline=None)
    def test_shared_sigma_fast_path_is_bit_exact(
        self, d_cyl, d_drive, m, cells, n, per_cell_sigma, per_cell_phi, q_layout, seed
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
        ens = simulate(spec, grid, n, seed)
        fast, reference = ito_isometry(phi, ens), _isometry_reference(phi, ens)
        for field in ("lhs", "rhs", "z"):
            assert np.array_equal(getattr(fast, field), getattr(reference, field)), field


class TestPanel:
    def test_small_panel_brackets(self, grid):
        rng = np.random.default_rng(7)
        instances = [
            BDGInstance(
                "a", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1)), grid
            ),
            BDGInstance(
                "b",
                NoiseSpec(2, 2, rng.standard_normal((2, 2))),
                IntegrandProcess.constant(grid, rng.standard_normal((3, 2))),
                grid,
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
            grid,
        )
        reports = bdg_ratio_panel([inst], [2, 4], ["hilbert"], 4000, seed=10)
        for rep in reports:
            assert rep.ratio >= 0.95

    def test_degenerate_instances_flagged(self, grid):
        inst = BDGInstance(
            "zero", NoiseSpec(1, 1, np.zeros((1, 1))),
            IntegrandProcess.constant(grid, np.eye(1)), grid,
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
                f"h{horizon}", NoiseSpec(2, 2, sig), IntegrandProcess.constant(g, phi), g
            )
            rep = bdg_ratio_panel([inst], [2], ["hilbert"], 20_000, seed=13)[0]
            out.append(rep.ratio)
        assert out[0] == pytest.approx(out[1], rel=0.05)

    def test_single_path_raises(self, grid):
        inst = BDGInstance(
            "one", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1)), grid
        )
        with pytest.raises(ValueError, match="n_paths >= 2"):
            bdg_ratio_panel([inst], [2], ["hilbert"], 1, seed=15)

    def test_csv_row_format(self, grid):
        inst = BDGInstance(
            "r", NoiseSpec(1, 1, np.eye(1)), IntegrandProcess.constant(grid, np.eye(1)), grid
        )
        rep = bdg_ratio_panel([inst], [1], ["hilbert"], 100, seed=14)[0]
        row = rep.to_csv_row()
        assert row.startswith("r,1,hilbert,100,")
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


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


class TestItoResidual:
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
