import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import prefix_sums
from cylmart.integration import IntegrandProcess, integrate
from cylmart.martingales import (
    BracketPaths,
    NoiseSpec,
    _assemble,
    _bracket_increments,
    _driven,
    am_operator,
    countex_spec,
    qm_empirical,
    qm_operator,
    qv_exact,
    qv_partition_estimate,
    simulate,
    sphere_panel,
    stacked_spec,
    stop_ensemble,
    stopped_spec,
)
from cylmart.measures import TimeGrid
from cylmart.operators import op_norm_sym


@pytest.fixture
def grid():
    return TimeGrid.uniform(1.0, 16)


class TestSimulate:
    def test_brownian_variance(self, grid):
        d = 3
        spec = NoiseSpec(d, d, np.eye(d))
        ens = simulate(spec, grid, 10_000, seed=11)
        term = ens.m_evals[:, -1, :]  # coordinate evaluations
        var = term.var(axis=0, ddof=1)
        se = var * np.sqrt(2.0 / (ens.n_paths - 1))
        assert np.all(np.abs(var - 1.0) <= 3 * se)

    def test_zero_sigma(self, grid):
        spec = NoiseSpec(2, 2, np.zeros((2, 2)))
        ens = simulate(spec, grid, 16, seed=1)
        assert np.abs(ens.m_evals).max() == 0.0
        assert ens.bracket.prefix()[:, -1].max() == 0.0

    def test_scalar_scaled(self, grid):
        spec = NoiseSpec(1, 1, np.array([[2.0]]))
        ens = simulate(spec, grid, 10_000, seed=3)
        var = ens.m_evals[:, -1, 0].var(ddof=1)
        se = var * np.sqrt(2.0 / (ens.n_paths - 1))
        assert abs(var - 4.0) <= 3 * se

    def test_driver_covariance(self, grid):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = NoiseSpec(2, 2, np.eye(2), q_drive=q)
        ens = simulate(spec, grid, 20_000, seed=5)
        inc = ens.driver_increments.reshape(-1, 2)
        emp = inc.T @ inc / inc.shape[0]
        np.testing.assert_allclose(emp, q * grid.widths[0], rtol=0.05)

    def test_deterministic_in_seed_and_path_order(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        a = simulate(spec, grid, 8, seed=42)
        b = simulate(spec, grid, 8, seed=42)
        np.testing.assert_array_equal(a.driver_increments, b.driver_increments)
        # substreams keyed by path index: a smaller ensemble is a prefix
        c = simulate(spec, grid, 4, seed=42)
        np.testing.assert_array_equal(c.driver_increments, a.driver_increments[:4])

    def test_bad_inputs(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        with pytest.raises(ValueError, match="n_paths"):
            simulate(spec, grid, 0, seed=1)
        with pytest.raises(ValueError, match="q_drive"):
            NoiseSpec(2, 2, np.eye(2), q_drive=np.eye(3))


class TestExactBracket:
    def test_identity_is_time(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        qv = qv_exact(spec, grid)
        np.testing.assert_array_equal(qv.prefix(), grid.points)

    def test_zero(self, grid):
        qv = qv_exact(NoiseSpec(2, 2, np.zeros((2, 2))), grid)
        assert qv.total_mass == 0.0

    def test_q_brownian_scaling(self, grid):
        # driver covariance 2I doubles the bracket of the identity map
        spec = NoiseSpec(2, 2, np.eye(2), q_drive=2.0 * np.eye(2))
        qv = qv_exact(spec, grid)
        np.testing.assert_allclose(qv.total_mass, 2.0)

    def test_general_matrix(self, grid):
        sig = np.array([[1.0, 2.0], [0.0, 1.0]])
        qv = qv_exact(NoiseSpec(2, 2, sig), grid)
        np.testing.assert_allclose(qv.total_mass, op_norm_sym(sig @ sig.T))

    def test_triangle_inequality_for_independent_sum(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s1 = NoiseSpec(3, 2, rng.standard_normal((3, 2)))
            s2 = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
            both = stacked_spec(s1, s2)
            t = np.sqrt(qv_exact(both, grid).prefix())
            t1 = np.sqrt(qv_exact(s1, grid).prefix())
            t2 = np.sqrt(qv_exact(s2, grid).prefix())
            assert np.all(t <= t1 + t2 + 1e-12)

    def test_stopping_commutes(self, grid):
        rng = np.random.default_rng(1)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        stop = 7
        stopped = stopped_spec(spec, grid, stop)
        qv_stop = qv_exact(stopped, grid)
        qv_full = qv_exact(spec, grid)
        np.testing.assert_array_equal(
            qv_stop.increments[:stop], qv_full.increments[:stop]
        )
        assert np.abs(qv_stop.increments[stop:]).max() == 0.0

    def test_per_direction_bound(self, grid):
        rng = np.random.default_rng(2)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        ens = simulate(spec, grid, 4, seed=9)
        dirs = rng.standard_normal((32, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        per_dir = ens.direction_bracket_increments(dirs)  # (32, K)
        assert np.all(per_dir <= ens.bracket.increments[0][None, :] + 1e-12)


class TestOperatorBracket:
    def test_identity(self, grid):
        am = am_operator(NoiseSpec(2, 2, np.eye(2)), grid)
        np.testing.assert_allclose(
            am.matrices, grid.points[:, None, None] * np.eye(2), atol=1e-15
        )

    def test_diagonal(self, grid):
        am = am_operator(NoiseSpec(2, 2, np.diag([1.0, 2.0])), grid)
        np.testing.assert_allclose(
            am.matrices[-1], np.diag([1.0, 4.0]), atol=1e-14
        )

    def test_zero(self, grid):
        am = am_operator(NoiseSpec(2, 2, np.zeros((2, 2))), grid)
        assert np.abs(am.matrices).max() == 0.0

    def test_dominated_by_scalar_bracket(self, grid):
        rng = np.random.default_rng(3)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        am = am_operator(spec, grid)
        qv = qv_exact(spec, grid).prefix()
        xs = rng.standard_normal((16, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        quad = np.einsum("xi,kij,xj->kx", xs, am.matrices, xs)
        assert np.all(quad <= qv[:, None] + 1e-12)


class TestOperatorDensity:
    def test_scaling_invariance(self, grid):
        qm1 = qm_operator(NoiseSpec(2, 2, np.eye(2)), grid)
        qm2 = qm_operator(NoiseSpec(2, 2, 5.0 * np.eye(2)), grid)
        np.testing.assert_allclose(qm1.matrices, qm2.matrices, atol=1e-14)
        np.testing.assert_allclose(qm1.matrices[0], np.eye(2), atol=1e-15)

    def test_diagonal_normalization(self, grid):
        qm = qm_operator(NoiseSpec(2, 2, np.diag([1.0, 2.0])), grid)
        np.testing.assert_allclose(qm.matrices[0], np.diag([0.25, 1.0]), atol=1e-15)

    def test_zero_cells_give_zero_matrix(self):
        grid = TimeGrid.uniform(1.0, 4)
        sig = np.zeros((4, 2, 2))
        sig[:2] = np.eye(2)
        qm = qm_operator(NoiseSpec(2, 2, sig), grid)
        assert np.abs(qm.matrices[2:]).max() == 0.0

    def test_unit_norm_on_support(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(25):
            spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
            qm = qm_operator(spec, grid)
            norms = np.abs(np.linalg.eigvalsh(qm.matrices)).max(axis=-1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_empirical_matches_exact(self, grid):
        rng = np.random.default_rng(5)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        exact = qm_operator(spec, grid)
        emp = qm_empirical(am_operator(spec, grid), qv_exact(spec, grid))
        assert np.abs(exact.matrices - emp.matrices).max() < 1e-10


class TestPartitionEstimate:
    def test_scalar_equals_direction_bracket(self, grid):
        spec = NoiseSpec(1, 1, np.array([[1.5]]))
        ens = simulate(spec, grid, 4, seed=1)
        est = qv_partition_estimate(ens, 8, [0, 2, 4])
        exact = qv_exact(spec, grid)
        for d in range(3):
            np.testing.assert_allclose(
                est.values[0, d], exact.prefix(), rtol=1e-12
            )

    def test_constant_diagonal_exact_at_any_depth(self, grid):
        spec = NoiseSpec(2, 2, np.diag([0.5, 1.5]))
        ens = simulate(spec, grid, 2, seed=2)
        est = qv_partition_estimate(ens, 16, [0, 3])
        np.testing.assert_allclose(est.terminal()[0], 2.25, rtol=1e-12)

    def test_piecewise_needs_refinement(self):
        grid = TimeGrid.uniform(1.0, 8)
        sig = np.zeros((8, 2, 2))
        sig[:4, 0, 0] = 1.0
        sig[4:, 1, 1] = 1.0
        ens = simulate(NoiseSpec(2, 2, sig), grid, 2, seed=3)
        est = qv_partition_estimate(ens, 8, [0, 1, 2])
        terms = est.terminal()[0]
        assert terms[0] == pytest.approx(0.5)  # one block underestimates
        assert terms[1] == pytest.approx(1.0)  # split at 1/2 is exact
        assert np.all(np.diff(terms) >= -1e-15)

    def test_monotone_in_panel_size(self, grid):
        rng = np.random.default_rng(6)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        ens = simulate(spec, grid, 2, seed=4)
        small = qv_partition_estimate(ens, 4, [3], panel_seed=77)
        big = qv_partition_estimate(ens, 64, [3], panel_seed=77)
        assert big.terminal()[0, 0] >= small.terminal()[0, 0] - 1e-15

    def test_non_diagonal_shortfall_bounded(self):
        # off the diagonal only the sampled directions approach the
        # supremum: 64 of them leave a median relative shortfall of 2.9e-4
        # (max 0.019) on 200 random constant 2x2 sigma; 32 leave 1.0e-3
        grid = TimeGrid.uniform(1.0, 4)
        rng = np.random.default_rng(2024)
        shortfall = []
        for i in range(200):
            spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
            est = qv_partition_estimate(simulate(spec, grid, 1, seed=i), 64, [0], panel_seed=i)
            exact = qv_exact(spec, grid).total_mass
            shortfall.append((exact - est.terminal()[0, 0]) / exact)
        assert min(shortfall) >= -1e-12
        assert np.median(shortfall) <= 5e-4
        assert max(shortfall) <= 0.03

    def test_increasing_paths(self, grid):
        rng = np.random.default_rng(7)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        ens = simulate(spec, grid, 2, seed=5)
        est = qv_partition_estimate(ens, 16, [0, 1, 2, 3])
        assert np.all(np.diff(est.values, axis=-1) >= -1e-15)

    def test_empty_panel_rejected(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 1, seed=6)
        with pytest.raises(ValueError, match="depth schedule"):
            qv_partition_estimate(ens, 8, [])


class TestSpherePanel:
    def test_contains_coordinates(self):
        panel = sphere_panel(3, 16, seed=0)
        assert panel.shape == (22, 3)
        np.testing.assert_allclose(np.linalg.norm(panel, axis=1), 1.0, rtol=1e-12)

    def test_one_dimensional(self):
        panel = sphere_panel(1, 50, seed=0)
        np.testing.assert_array_equal(np.sort(panel.ravel()), [-1.0, 1.0])


class TestCountex:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_bracket_grows_linearly(self, n):
        spec, grid = countex_spec(n)
        assert qv_exact(spec, grid).total_mass == float(n)

    def test_directions_stay_bounded(self):
        spec, grid = countex_spec(8)
        ens = simulate(spec, grid, 1, seed=0)
        per_dir = ens.direction_bracket_increments(np.eye(8)).sum(axis=-1)
        np.testing.assert_allclose(per_dir, 1.0, atol=1e-12)


class TestAdaptedSigma:
    @staticmethod
    def _vol(t, w):
        return (1.0 + 0.5 * np.tanh(w[..., 0]) ** 2)[..., None, None]

    def test_per_path_bracket(self, grid):
        spec = NoiseSpec(1, 1, self._vol)
        ens = simulate(spec, grid, 8, seed=10)
        assert ens.sigma_path.shape == (8, 16, 1, 1)
        assert not np.allclose(
            ens.bracket.increments[0], ens.bracket.increments[1]
        )
        # bracket rebuilt from the realized sigma matches
        manual = (ens.sigma_path[..., 0, 0] ** 2) * grid.widths
        np.testing.assert_allclose(ens.bracket.increments, manual, rtol=1e-12)

    def test_adapted_reads_only_past(self, grid):
        # two drivers differing only in the last cell share all sigma values
        spec = NoiseSpec(1, 1, self._vol)
        ens = simulate(spec, grid, 2, seed=11)
        dw = ens.driver_increments.copy()
        dw[:, -1, :] *= -1.0
        other = spec.sigma_along(grid, dw)
        np.testing.assert_array_equal(other, ens.sigma_path)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        k=st.integers(1, 10),
        dd=st.integers(1, 3),
        batch=st.sampled_from(["none", "paths", "two axes"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_cell_reads_the_driver_before_it(self, n, k, dd, batch, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, k)]))
        base = rng.standard_normal((2, dd))

        def sigma(t, w):
            return base * np.tanh(w)[..., None, :] + t[:, None, None]

        spec = NoiseSpec(2, dd, sigma)
        lead = {"none": (), "paths": (n,), "two axes": (2, n)}[batch]
        dw = rng.standard_normal(lead + (k, dd))
        got = spec.sigma_along(grid, dw)
        assert got.shape == lead + (k, 2, dd)
        w = prefix_sums(dw, axis=-2)
        for i in range(k):
            # sigma at cell i is the callable at W(t_i) = dW_0 + ... + dW_{i-1}
            want = sigma(grid.left[i : i + 1], w[..., i : i + 1, :])[..., 0, :, :]
            assert np.array_equal(got[..., i, :, :], want), i
            # and no increment at a cell >= i moves it
            later = dw.copy()
            later[..., i:, :] = rng.standard_normal(lead + (k - i, dd))
            assert np.array_equal(spec.sigma_along(grid, later)[..., i, :, :], want), i

    def test_mis_shaped_sigma_is_named(self, grid):
        # a (1, 1) value used to broadcast over all paths, so every path got
        # one sigma summed across paths
        spec = NoiseSpec(1, 1, lambda t, w: np.full((1, 1), 1.0 + w.sum()))
        with pytest.raises(
            ValueError, match=r"returned shape \(1, 1\), expected \(4, 16, 1, 1\)"
        ):
            simulate(spec, grid, 4, seed=1)


class TestScalarVsOperatorBracket:
    def test_bracket_below_trace_bracket(self):
        # the vector path's summed coordinate brackets (trace route) dominate
        # the operator-norm bracket; no sharper relation is asserted
        rng = np.random.default_rng(30)
        grid = TimeGrid.uniform(1.0, 16)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            spec = NoiseSpec(d, d, rng.standard_normal((d, d)))
            a = np.asarray(spec.sigma) @ np.asarray(spec.sigma).T
            trace_total = np.trace(a) * 1.0
            assert qv_exact(spec, grid).total_mass <= trace_total + 1e-12


def _adapted_vol(t, w):
    s = w.sum(axis=-1)
    return (1.0 + 0.5 * np.tanh(s) ** 2)[..., None, None] * np.array([[1.0, -0.5], [0.3, 2.0]])


# Reference copies of the ensemble tails that ``_assemble`` replaced, with
# every array computed eagerly; each returns the expected fields as a dict.
def reference_simulate_tail(spec, grid, n_paths, seed, dw):
    k = grid.n_cells
    sigma_vals = spec.sigma_along(grid, dw) if spec.adapted else spec.sigma_on_grid(grid)

    driven = _driven(sigma_vals, dw)
    if sigma_vals.ndim == 3:
        bracket_inc = np.broadcast_to(
            _bracket_increments(spec, grid, sigma_vals), (n_paths, k)
        ).copy()
    else:
        bracket_inc = _bracket_increments(spec, grid, sigma_vals)

    m_evals = np.zeros((n_paths, k + 1, spec.d_cyl))
    np.cumsum(driven, axis=1, out=m_evals[:, 1:, :])

    return dict(
        n_paths=n_paths,
        seed=seed,
        driver_increments=dw,
        driven=driven,
        m_evals=m_evals,
        bracket=bracket_inc,
        sigma_path=sigma_vals,
    )


def reference_stop_ensemble(ens, tau_idx):
    tau_idx = np.broadcast_to(np.asarray(tau_idx, dtype=int), (ens.n_paths,))
    k = ens.grid.n_cells
    keep = (np.arange(k)[None, :] < tau_idx[:, None]).astype(float)
    dw = ens.driver_increments * keep[:, :, None]
    if ens.sigma_is_shared:
        sigma_vals = ens.sigma_path[None, :, :, :] * keep[:, :, None, None]
    else:
        sigma_vals = ens.sigma_path * keep[:, :, None, None]
    driven = _driven(sigma_vals, dw)
    m_evals = np.zeros((ens.n_paths, k + 1, ens.spec.d_cyl))
    np.cumsum(driven, axis=1, out=m_evals[:, 1:, :])
    bracket_inc = _bracket_increments(ens.spec, ens.grid, sigma_vals)
    return dict(
        n_paths=ens.n_paths,
        seed=ens.seed,
        driver_increments=dw,
        driven=driven,
        m_evals=m_evals,
        bracket=bracket_inc,
        sigma_path=sigma_vals,
    )


def ensemble_arrays(ens):
    """The fields the reference tails return, read off an ensemble."""
    names = ("driver_increments", "driven", "m_evals", "sigma_path")
    out = {name: getattr(ens, name) for name in names}
    out.update(n_paths=ens.n_paths, seed=ens.seed, bracket=ens.bracket.increments)
    return out


def assert_same_ensemble(ens, expected):
    got = ensemble_arrays(ens)
    assert got.keys() == expected.keys()
    for name, y in expected.items():
        x = got[name]
        if isinstance(y, np.ndarray):
            assert x.shape == y.shape, name
            np.testing.assert_array_equal(x, y, err_msg=name)
        else:
            assert x == y, name


CORE_SPECS = {
    "shared": lambda k: NoiseSpec(2, 2, np.array([[1.0, 0.4], [-0.2, 0.7]])),
    "per-cell": lambda k: NoiseSpec(
        2, 2, np.random.default_rng(5).standard_normal((k, 2, 2)),
        q_drive=np.array([[2.0, 0.5], [0.5, 1.0]]),
    ),
    "adapted": lambda k: NoiseSpec(2, 2, _adapted_vol),
}
# directions evaluated through ``m_eval`` on top of the coordinate ``m_evals``
PANELS = {
    "default": np.eye(2),
    "rotated": np.array([[0.6, 0.8], [-0.8, 0.6], [1.0, 1.0]]),
}


def assert_panel_evaluations(ens, expected, panel):
    for h in PANELS[panel]:
        want = np.zeros((ens.n_paths, ens.grid.n_cells + 1))
        np.cumsum(expected["driven"] @ h, axis=1, out=want[:, 1:])
        np.testing.assert_array_equal(ens.m_eval(h), want)


class TestEnsembleCore:
    """simulate/stop_ensemble against the tails they replaced."""

    @pytest.mark.parametrize("panel", sorted(PANELS))
    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_simulate_matches_reference(self, grid, kind, panel):
        spec = CORE_SPECS[kind](grid.n_cells)
        ens = simulate(spec, grid, 7, seed=31)
        ref = reference_simulate_tail(spec, grid, 7, 31, ens.driver_increments)
        assert_same_ensemble(ens, ref)
        assert_panel_evaluations(ens, ref, panel)

    @pytest.mark.parametrize("panel", sorted(PANELS))
    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_stop_matches_reference(self, grid, kind, panel):
        spec = CORE_SPECS[kind](grid.n_cells)
        ens = simulate(spec, grid, 6, seed=32)
        tau = np.array([0, 3, 8, 16, 16, 11])
        stopped, ref = stop_ensemble(ens, tau), reference_stop_ensemble(ens, tau)
        assert_same_ensemble(stopped, ref)
        assert_panel_evaluations(stopped, ref, panel)


# Copies of the evaluations as they were when every call recomputed sigma dW.
def reference_integrate(phi, ens):
    driven = _driven(ens.sigma_path, ens.driver_increments)
    mats = phi.matrices
    if mats.ndim == 3:
        mats = np.broadcast_to(mats, (ens.n_paths,) + mats.shape)
    inc = np.einsum("nkmc,nkc->nkm", mats, driven)
    out = np.zeros((ens.n_paths, ens.grid.n_cells + 1, inc.shape[2]))
    np.cumsum(inc, axis=1, out=out[:, 1:, :])
    return out


def reference_m_evals(ens):
    inc = _driven(ens.sigma_path, ens.driver_increments)
    out = np.zeros((ens.n_paths, ens.grid.n_cells + 1, ens.spec.d_cyl))
    np.cumsum(inc, axis=1, out=out[:, 1:, :])
    return out


def reference_m_eval(ens, h):
    inc = _driven(ens.sigma_path, ens.driver_increments) @ h
    out = np.zeros((ens.n_paths, ens.grid.n_cells + 1))
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def _lean_ensembles(grid, kind):
    spec = CORE_SPECS[kind](grid.n_cells)
    ens = simulate(spec, grid, 6, seed=34)
    stopped = stop_ensemble(ens, np.array([0, 3, 8, 16, 16, 11]))
    return {"simulated": ens, "stopped": stopped}


class TestLeanEnsemble:
    """sigma dW is stored once; every evaluation equals the old recompute."""

    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_driven_is_read_only(self, grid, kind):
        for ens in _lean_ensembles(grid, kind).values():
            with pytest.raises(ValueError, match="read-only"):
                ens.driven[0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                ens.driven_increments()[...] = 0.0
            assert ens.m_evals is ens.m_evals  # computed once, then kept
            with pytest.raises(ValueError, match="read-only"):
                ens.m_evals[0, 1, 0] = 1.0

    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_evaluations_match_recompute(self, grid, kind):
        rng = np.random.default_rng(35)
        h = np.array([0.3, -1.2])
        for label, ens in _lean_ensembles(grid, kind).items():
            shared = IntegrandProcess(grid, rng.standard_normal((grid.n_cells, 3, 2)))
            per_path = IntegrandProcess(
                grid, rng.standard_normal((ens.n_paths, grid.n_cells, 3, 2))
            )
            for phi in (shared, per_path):
                got = integrate(phi, ens).values
                assert np.array_equal(got, reference_integrate(phi, ens)), label
            assert np.array_equal(ens.m_evals, reference_m_evals(ens)), label
            assert np.array_equal(ens.m_eval(h), reference_m_eval(ens, h)), label


# BracketPaths.prefix as it was when every bracket was stored per path.
def reference_prefix(self):
    out = np.zeros((self.n_paths, self.grid.n_cells + 1))
    np.cumsum(self.increments, axis=1, out=out[:, 1:])
    return out


class TestLeanBracket:
    """A shared bracket is one row seen n times; its prefix sums stay a view."""

    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_layout(self, grid, kind):
        for label, ens in _lean_ensembles(grid, kind).items():
            inc = ens.bracket.increments
            shared = kind != "adapted" and label != "stopped"
            assert (inc.strides[0] == 0) == shared, label
            assert inc.flags.writeable != shared, label
            if shared:
                with pytest.raises(ValueError, match="read-only"):
                    inc[0, 0] = 1.0
                assert np.shares_memory(inc[0], inc[-1])

    @pytest.mark.parametrize("kind", sorted(CORE_SPECS))
    def test_prefix_matches_materialized_cumsum(self, grid, kind):
        for label, ens in _lean_ensembles(grid, kind).items():
            got = ens.bracket.prefix()
            assert got.shape == (ens.n_paths, grid.n_cells + 1), label
            assert np.array_equal(got, reference_prefix(ens.bracket)), label
            with pytest.raises(ValueError, match="read-only"):
                got[0, 1] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 12),
        shared=st.booleans(),
        data=st.data(),
    )
    def test_prefix_oracle(self, n, k, shared, data):
        values = st.floats(-1e6, 1e6, allow_subnormal=True) | st.just(np.nan)
        rows = 1 if shared else n
        raw = np.array(data.draw(st.lists(values, min_size=rows * k, max_size=rows * k)))
        inc = raw.reshape(rows, k)
        if shared:
            inc = np.broadcast_to(inc[0], (n, k))
        bracket = BracketPaths(TimeGrid.uniform(1.0, k), inc)
        got, want = bracket.prefix(), reference_prefix(bracket)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    def test_shared_partition_estimate_is_a_view(self, grid):
        spec = NoiseSpec(2, 2, np.array([[1.0, 0.4], [-0.2, 0.7]]))
        ens = simulate(spec, grid, 5, seed=36)
        est = qv_partition_estimate(ens, 8, [0, 2])
        assert est.values.strides[0] == 0 and not est.values.flags.writeable

    def test_partition_estimate_is_always_read_only(self, grid):
        shared = NoiseSpec(2, 2, np.array([[1.0, 0.4], [-0.2, 0.7]]))
        for ens in (
            simulate(shared, grid, 1, seed=36),
            stop_ensemble(simulate(shared, grid, 5, seed=36), np.full(5, grid.n_cells // 2)),
        ):
            est = qv_partition_estimate(ens, 8, [0, 2])
            with pytest.raises(ValueError, match="read-only"):
                est.values[0, 0, 0] = 1.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_q_drive_rejected(self, bad):
        with pytest.raises(ValueError, match="matrix is not all finite"):
            NoiseSpec(1, 1, np.eye(1), q_drive=[[bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constant_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma values are not all finite"):
            NoiseSpec(2, 2, np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_non_finite_per_cell_sigma_rejected(self, grid):
        sigma = np.ones((grid.n_cells, 1, 1))
        sigma[3] = np.nan
        with pytest.raises(ValueError, match="sigma values are not all finite"):
            NoiseSpec(1, 1, sigma)

    def test_nan_sigma_rejected(self, grid):
        with pytest.raises(ValueError, match="sigma values are not all finite"):
            simulate(NoiseSpec(1, 1, np.array([[np.nan]])), grid, 4, seed=1)

    def test_nan_adapted_sigma_rejected(self, grid):
        def vol(t, w):
            return np.where(t == t[5], np.nan, np.ones_like(w[..., 0]))[..., None, None]

        with pytest.raises(ValueError, match="sigma values are not all finite"):
            simulate(NoiseSpec(1, 1, vol), grid, 4, seed=1)

    def test_non_finite_driver_increments_rejected(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        dw = simulate(spec, grid, 3, seed=2).driver_increments.copy()
        dw[1, 3, 0] = np.nan
        with pytest.raises(ValueError, match="driver increments are not all finite"):
            _assemble(spec, grid, 2, dw, spec.sigma_on_grid(grid))


class TestStopIndices:
    """Grid stopping indices are integers in [0, K]; anything else is named."""

    @pytest.mark.parametrize("bad", [-1, 17])
    def test_out_of_range_rejected(self, grid, bad):
        spec = NoiseSpec(2, 2, np.eye(2))
        ens = simulate(spec, grid, 3, seed=40)
        with pytest.raises(ValueError, match=r"stopping indices must be integers in \[0, 16\]"):
            stop_ensemble(ens, np.array([3, bad, 5]))
        with pytest.raises(ValueError, match=r"stopping indices must be integers in \[0, 16\]"):
            stopped_spec(spec, grid, bad)

    def test_wrong_length_rejected(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 5, seed=43)
        for bad in (np.array([3, 4]), np.full(6, 3), np.full((5, 1), 3)):
            with pytest.raises(ValueError, match=r"one stopping index per path, 5 in all"):
                stop_ensemble(ens, bad)

    def test_non_integer_rejected(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 3, seed=41)
        with pytest.raises(ValueError, match="stopping indices must be integers"):
            stop_ensemble(ens, np.array([3.5, 2.0, 1.0]))

    def test_end_points_accepted(self, grid):
        spec = NoiseSpec(2, 2, np.eye(2))
        ens = simulate(spec, grid, 3, seed=42)
        assert not stop_ensemble(ens, 0).driven.any()
        assert np.array_equal(stop_ensemble(ens, 16).driven, ens.driven)
        assert not stopped_spec(spec, grid, 0).sigma.any()
        assert np.array_equal(stopped_spec(spec, grid, 16).sigma, spec.sigma_on_grid(grid))
