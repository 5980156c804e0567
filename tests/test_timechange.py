from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart.gammanorm import GammaKernel, gamma_norm_exact_hilbert, gamma_norm_mc
from cylmart.integration import IntegrandProcess, integrate
from cylmart.martingales import BracketPaths, MartEnsemble, NoiseSpec, qv_exact, simulate
from cylmart.measures import GridMeasure, IncreasingPath, TimeGrid, measure_from_increasing
from cylmart.timechange import (
    SNAP_RTOL,
    DdsReport,
    TimeChangedEnsemble,
    TransportPair,
    _prefix_rows,
    apply_time_change,
    build_time_change,
    dds_integral_check,
    gamma_timechange_check,
    plateau_constancy_check,
    substitute,
)


def linear_measure(k=16, rate=1.0, horizon=1.0):
    grid = TimeGrid.uniform(horizon, k)
    return GridMeasure(grid, rate * grid.widths)


class TestBuildTimeChange:
    def test_unit_rate_is_identity(self):
        tc = build_time_change(linear_measure())
        np.testing.assert_array_equal(tc.tau_idx[0], np.arange(17))
        assert not tc.infinite[0, :-1].any()
        assert tc.infinite[0, -1]

    def test_double_rate_halves_time(self):
        tc = build_time_change(linear_measure(rate=2.0))
        # s grid spans [0, 2]; tau at s = 1 (midpoint) is t = 1/2
        mid = 8
        assert tc.s_points[0, mid] == pytest.approx(1.0)
        assert tc.grid.points[tc.tau_idx[0, mid]] == pytest.approx(0.5)

    def test_quadratic_bracket_gives_sqrt(self):
        grid = TimeGrid.uniform(1.0, 64)
        qv = measure_from_increasing(IncreasingPath(grid, grid.points**2))
        tc = build_time_change(qv)
        tau = tc.grid.points[tc.tau_idx[0]]
        s = tc.s_points[0]
        assert np.abs(tau[:-1] - np.sqrt(s[:-1])).max() <= 1.0 / 32

    def test_zero_measure_all_infinite(self):
        grid = TimeGrid.uniform(1.0, 4)
        tc = build_time_change(GridMeasure(grid, np.zeros(4)))
        assert tc.infinite.all()

    def test_plateau_maps_right_continuously(self):
        grid = TimeGrid.uniform(1.0, 4)
        qv = GridMeasure(grid, np.array([0.5, 0.0, 0.0, 0.5]))
        tc = build_time_change(qv)
        # s = 0.5 sits at the plateau; tau jumps to its right end
        j = np.searchsorted(tc.s_points[0], 0.5)
        assert tc.tau_idx[0, j] == 3

    def test_pairs_serialization(self):
        tc = build_time_change(linear_measure(k=4))
        pairs = tc.to_pairs()
        assert pairs.shape == (5, 2)
        assert np.isinf(pairs[-1, 1])


class TestApplyTimeChange:
    def test_wiener_is_fixed_point(self):
        grid = TimeGrid.uniform(1.0, 16)
        spec = NoiseSpec(2, 2, np.eye(2))
        ens = simulate(spec, grid, 32, seed=1)
        tc = build_time_change(qv_exact(spec, grid))
        moved = apply_time_change(ens, tc)
        np.testing.assert_array_equal(moved.values, ens.m_evals)

    def test_deterministic_rescaling(self):
        grid = TimeGrid.uniform(1.0, 16)
        spec = NoiseSpec(1, 1, np.array([[np.sqrt(2.0)]]))
        ens = simulate(spec, grid, 16, seed=2)
        tc = build_time_change(ens.bracket)
        moved = apply_time_change(ens, tc)
        assert moved.bracket_gap() <= moved.max_cell_mass() + 1e-12

    def test_per_path_bracket_law(self):
        def vol(t, w):
            return (0.5 + np.cos(2 * w[..., 0]) ** 2)[..., None, None]

        grid = TimeGrid.uniform(1.0, 32)
        spec = NoiseSpec(1, 1, vol)
        ens = simulate(spec, grid, 200, seed=3)
        tc = build_time_change(ens.bracket)
        moved = apply_time_change(ens, tc)
        assert moved.bracket_gap() <= moved.max_cell_mass() + 1e-12

    def test_double_application_is_identity(self):
        # exact linear bracket: transporting twice composes to the identity
        grid = TimeGrid.uniform(1.0, 16)
        qv = linear_measure(rate=2.0)
        tc1 = build_time_change(qv)
        transported = GridMeasure(
            TimeGrid(tc1.s_points[0]), np.diff(tc1.prefix[0][tc1.tau_idx[0]])
        )
        tc2 = build_time_change(transported)
        composed = tc1.tau_idx[0][tc2.tau_idx[0]]
        assert np.abs(composed - np.arange(17)).max() <= 1


class TestSubstitute:
    def test_constant_function_total_mass(self):
        qv = linear_measure(k=8, rate=1.5)
        lhs, rhs = substitute(np.ones(8), qv)
        assert lhs == pytest.approx(qv.total_mass, abs=1e-15)
        assert rhs == pytest.approx(lhs, abs=1e-15)

    def test_indicator_recovers_interval_mass(self):
        qv = linear_measure(k=8)
        f = np.zeros(8)
        f[2:5] = 1.0
        lhs, rhs = substitute(f, qv)
        assert lhs == pytest.approx(qv.interval_mass(2, 5), abs=1e-15)
        assert rhs == pytest.approx(lhs, abs=1e-15)

    def test_quadratic_closed_form(self):
        grid = TimeGrid.uniform(1.0, 256)
        qv = measure_from_increasing(IncreasingPath(grid, grid.points**2))
        lhs, rhs = substitute(grid.right, qv)
        assert abs(lhs - rhs) <= 1e-12
        assert lhs == pytest.approx(2.0 / 3.0, abs=1e-2)

    def test_shape_validation(self):
        qv = linear_measure(k=4)
        with pytest.raises(ValueError, match="one value per cell"):
            substitute(np.ones(3), qv)


class TestDds:
    def test_zero_integrand(self):
        grid = TimeGrid.uniform(1.0, 8)
        spec = NoiseSpec(1, 1, np.eye(1))
        ens = simulate(spec, grid, 8, seed=4)
        tc = build_time_change(qv_exact(spec, grid))
        rep = dds_integral_check(IntegrandProcess.constant(grid, np.zeros((1, 1))), ens, tc)
        assert rep.max_gap == 0.0

    def test_wiener_alignment_is_exact(self):
        grid = TimeGrid.uniform(1.0, 16)
        spec = NoiseSpec(2, 2, np.eye(2))
        ens = simulate(spec, grid, 32, seed=5)
        tc = build_time_change(qv_exact(spec, grid))
        phi = IntegrandProcess(grid, np.sin(grid.left)[:, None, None] * np.ones((16, 2, 2)))
        rep = dds_integral_check(phi, ens, tc)
        assert rep.max_gap <= 1e-12

    def test_gap_shrinks_with_refinement(self):
        gaps = []
        masses = []
        for k in (32, 64, 128):
            grid = TimeGrid.uniform(1.0, k)
            mod = (0.6 + 0.8 * grid.left**2)[:, None, None]
            sig = mod * np.array([[1.0, 0.4], [0.0, 0.8]])
            spec = NoiseSpec(2, 2, sig)
            ens = simulate(spec, grid, 100, seed=6)
            tc = build_time_change(qv_exact(spec, grid))
            phi = IntegrandProcess.constant(grid, np.array([[1.0, -0.5]]))
            rep = dds_integral_check(phi, ens, tc)
            gaps.append(rep.max_gap)
            masses.append(rep.max_cell_mass)
        slopes = np.diff(np.log(gaps)) / np.diff(np.log(masses))
        assert slopes.mean() >= 0.4


class TestGammaTransport:
    def test_lebesgue_weight_identity(self):
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(7)
        kernel = GammaKernel(
            GridMeasure(grid, grid.widths), rng.standard_normal((16, 2, 3))
        )
        pair = gamma_timechange_check(kernel)
        assert pair.lhs == pytest.approx(pair.rhs, abs=1e-14)

    def test_constant_density_scaling(self):
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(8)
        mats = rng.standard_normal((16, 2, 2))
        base = GammaKernel(GridMeasure(grid, grid.widths), mats)
        doubled = GammaKernel(GridMeasure(grid, 2 * grid.widths), mats)
        pair = gamma_timechange_check(doubled)
        assert pair.agree()
        assert pair.lhs == pytest.approx(
            np.sqrt(2) * gamma_norm_exact_hilbert(base), rel=1e-12
        )

    def test_random_weight_within_bound(self):
        grid = TimeGrid.uniform(1.0, 64)
        rng = np.random.default_rng(9)
        kernel = GammaKernel(
            GridMeasure(grid, rng.uniform(0, 1, 64)), rng.standard_normal((64, 2, 2))
        )
        pair = gamma_timechange_check(kernel)
        assert pair.agree()

    def test_pnorm_flavor_mc_agreement(self):
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(10)
        kernel = GammaKernel(
            GridMeasure(grid, rng.uniform(0, 1, 16)),
            rng.standard_normal((16, 3, 2)),
            flavor=4,
        )
        pair = gamma_timechange_check(kernel, n_samples=8192, seed=11)
        assert pair.agree()

    def test_zero_mass(self):
        grid = TimeGrid.uniform(1.0, 4)
        kernel = GammaKernel(GridMeasure(grid, np.zeros(4)), np.ones((4, 1, 1)))
        pair = gamma_timechange_check(kernel)
        assert pair.lhs == 0.0 and pair.rhs == 0.0

    @pytest.mark.parametrize(
        "units",
        [
            [0, 1],  # linspace gives [0, 0, 1]: a repeated clock point
            [1, 2, 2, 2, 1, 1],  # total 9 over 6 cells: linspace ends [.., 10, 9]
        ],
    )
    @pytest.mark.parametrize("flavor", ["hilbert", 4])
    def test_subnormal_total_counts_as_zero_mass(self, units, flavor):
        # masses in units of the smallest subnormal, 5e-324, for which
        # linspace gives no strictly increasing clock grid of k cells
        masses = np.array(units) * np.nextafter(0.0, 1.0)
        k = masses.size
        grid = TimeGrid.uniform(1.0, k)
        kernel = GammaKernel(GridMeasure(grid, masses), np.ones((k, 2, 2)), flavor)
        assert kernel.measure.total_mass > 0
        pair = gamma_timechange_check(kernel, n_samples=64)
        assert pair == TransportPair(0.0, 0.0, 0.0, 0.0, 0.0)
        assert pair.agree()


class TestPlateau:
    def test_sigma_gap_freezes_evaluations(self):
        grid = TimeGrid.uniform(1.0, 12)
        sig = np.ones((12, 1, 1))
        sig[4:8] = 0.0
        ens = simulate(NoiseSpec(1, 1, sig), grid, 64, seed=12)
        rep = plateau_constancy_check(ens)
        assert rep.passed and rep.worst_slack == 0.0

    def test_no_plateau_is_vacuous(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 8, seed=13)
        assert plateau_constancy_check(ens).passed


# ---------------------------------------------------------------------------
# Oracles: the clock-change code as it was before the right-continuous
# inverse got one home, kept verbatim apart from the stored ``infinite`` field.


@dataclass(frozen=True)
class OldTimeChange:
    grid: TimeGrid
    prefix: np.ndarray
    s_points: np.ndarray
    tau_idx: np.ndarray
    infinite: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.prefix.shape[0]

    @property
    def totals(self) -> np.ndarray:
        return self.prefix[:, -1]

    def tau_times(self) -> np.ndarray:
        out = self.grid.points[self.tau_idx]
        return np.where(self.infinite, np.inf, out)


def old_build_time_change(qv) -> OldTimeChange:
    grid, prefix = _prefix_rows(qv)
    n, kp1 = prefix.shape
    totals = prefix[:, -1]
    s_points = np.linspace(np.zeros(n), totals, kp1, axis=1)
    tau_idx = np.empty((n, kp1), dtype=int)
    infinite = np.empty((n, kp1), dtype=bool)
    for p in range(n):
        snap = SNAP_RTOL * max(totals[p], 1.0)
        raw = np.searchsorted(prefix[p], s_points[p] + snap, side="right")
        infinite[p] = raw == kp1
        tau_idx[p] = np.clip(raw - 1, 0, kp1 - 1)
    return OldTimeChange(grid, prefix, s_points, tau_idx, infinite)


def old_apply_time_change(ens: MartEnsemble, tc) -> TimeChangedEnsemble:
    if tc.n_paths not in (1, ens.n_paths):
        raise ValueError("time change and ensemble have incompatible path counts")
    idx = tc.tau_idx
    if tc.n_paths == 1 and ens.n_paths > 1:
        idx = np.broadcast_to(idx, (ens.n_paths, idx.shape[1]))
    rows = np.arange(ens.n_paths)[:, None]
    values = ens.m_evals[rows, idx, :]
    prefix = tc.prefix if tc.n_paths == ens.n_paths else np.broadcast_to(
        tc.prefix, (ens.n_paths, tc.prefix.shape[1])
    )
    bracket_values = prefix[rows, idx]
    return TimeChangedEnsemble(tc, values, bracket_values)


def old_dds_integral_check(phi: IntegrandProcess, ens: MartEnsemble, tc) -> DdsReport:
    if tc.n_paths not in (1, ens.n_paths):
        raise ValueError("time change and ensemble have incompatible path counts")
    source = integrate(phi, ens).values  # (n, K+1, m)
    vec = ens.m_evals  # (n, K+1, dc)
    k = ens.grid.n_cells
    m = phi.target_dim
    gaps = np.empty(ens.n_paths)
    for p in range(ens.n_paths):
        tp = 0 if tc.n_paths == 1 else p
        prefix = tc.prefix[tp]
        s_pts = tc.s_points[tp]
        idx = tc.tau_idx[tp]
        snap = SNAP_RTOL * max(prefix[-1], 1.0)
        cells = np.clip(
            np.searchsorted(prefix, s_pts[:-1] + snap, side="right") - 1, 0, k - 1
        )
        mats = phi.matrices if phi.matrices.ndim == 3 else phi.matrices[p]
        psi = mats[cells]  # (K, m, dc)
        dn = vec[p][idx[1:]] - vec[p][idx[:-1]]  # (K, dc)
        transported = np.zeros((k + 1, m))
        np.cumsum(np.einsum("kmc,kc->km", psi, dn), axis=0, out=transported[1:])
        back = np.clip(
            np.searchsorted(s_pts, prefix + snap, side="right") - 1, 0, k
        )
        gaps[p] = np.abs(source[p] - transported[back]).max()
    max_mass = float(np.diff(tc.prefix, axis=1).max())
    return DdsReport(gaps=gaps, max_cell_mass=max_mass)


def old_gamma_timechange_check(kernel, n_samples: int = 4096, seed: int = 0) -> TransportPair:
    qv = kernel.measure
    grid = kernel.grid
    k = grid.n_cells
    total = qv.total_mass
    prefix = qv.prefix()
    snap = SNAP_RTOL * max(total, 1.0)
    if total == 0:
        return TransportPair(0.0, 0.0, 0.0, 0.0, 0.0)
    s_pts = np.linspace(0.0, total, k + 1)
    cells = np.clip(np.searchsorted(prefix, s_pts[:-1] + snap, side="right") - 1, 0, k - 1)
    s_grid = TimeGrid(s_pts)
    transported = GammaKernel(
        measure=GridMeasure(s_grid, np.diff(s_pts)),
        matrices=kernel.matrices[cells],
        flavor=kernel.flavor,
    )
    hs_cells = np.sum(kernel.matrices**2, axis=(1, 2))
    support = qv.increments > 0
    hs_sup = hs_cells[support]
    tv = float(np.abs(np.diff(hs_sup)).sum()) + (float(hs_sup.max()) if hs_sup.size else 0.0)
    rebin = (total / k) * tv
    if kernel.flavor in ("hilbert", 2, 2.0):
        lhs = gamma_norm_exact_hilbert(kernel)
        rhs = gamma_norm_exact_hilbert(transported)
        denom = max(lhs + rhs, 1e-300)
        return TransportPair(lhs, rhs, 0.0, 0.0, rebin / denom)
    est_l = gamma_norm_mc(kernel, n_samples, seed)
    est_r = gamma_norm_mc(transported, n_samples, seed + 1)
    denom = max(est_l.value + est_r.value, 1e-300)
    return TransportPair(est_l.value, est_r.value, est_l.stderr, est_r.stderr, rebin / denom)


# cell masses with plateaus, exact dyadic breakpoints, thirds, tiny cells, and
# totals on both sides of 1 (where the snap switches from absolute to relative)
cell_masses = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, 2.0, 1e-13]),
    st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def clocks(draw):
    """(grid, qv, n_paths): a shared GridMeasure or per-path BracketPaths."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 4))
    grid = TimeGrid.uniform(draw(st.sampled_from([0.5, 1.0, 3.0])), k)
    if draw(st.booleans()):
        qv = GridMeasure(grid, np.array(draw(st.lists(cell_masses, min_size=k, max_size=k))))
    else:
        rows = draw(st.lists(st.lists(cell_masses, min_size=k, max_size=k), min_size=n, max_size=n))
        qv = BracketPaths(grid, np.array(rows))
    return grid, qv, n


def ensemble_on(grid, n, seed):
    sig = np.array([[1.0, 0.4], [0.0, 0.8]]) * np.ones((grid.n_cells, 1, 1))
    sig[::3] = 0.0  # zero-mass plateaus in the driver as well
    return simulate(NoiseSpec(2, 2, sig), grid, n, seed)


class TestClockOracle:
    @given(clocks())
    @settings(max_examples=150, deadline=None)
    def test_build_matches_old(self, case):
        _, qv, _ = case
        new, old = build_time_change(qv), old_build_time_change(qv)
        assert np.array_equal(new.prefix, old.prefix)
        assert np.array_equal(new.s_points, old.s_points)
        assert np.array_equal(new.tau_idx, old.tau_idx)
        assert new.tau_idx.dtype == old.tau_idx.dtype
        assert np.array_equal(new.infinite, old.infinite)
        assert np.array_equal(new.tau_times(), old.tau_times())

    @given(clocks(), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_old(self, case, seed):
        grid, qv, n = case
        ens = ensemble_on(grid, n, seed)
        new = apply_time_change(ens, build_time_change(qv))
        old = old_apply_time_change(ens, old_build_time_change(qv))
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.bracket_values, old.bracket_values)
        assert new.bracket_gap() == old.bracket_gap()

    @given(clocks(), st.integers(0, 2**16), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_dds_matches_old(self, case, seed, per_path_phi):
        grid, qv, n = case
        ens = ensemble_on(grid, n, seed)
        rng = np.random.default_rng(seed)
        shape = (n, grid.n_cells, 2, 2) if per_path_phi else (grid.n_cells, 2, 2)
        phi = IntegrandProcess(grid, rng.standard_normal(shape))
        new = dds_integral_check(phi, ens, build_time_change(qv))
        old = old_dds_integral_check(phi, ens, old_build_time_change(qv))
        assert np.array_equal(new.gaps, old.gaps)
        assert new.max_cell_mass == old.max_cell_mass

    @given(
        st.integers(1, 10).flatmap(
            lambda k: st.tuples(st.lists(cell_masses, min_size=k, max_size=k), st.integers(1, 3))
        ),
        st.sampled_from(["hilbert", 2, 2.0, 1, 4]),
        st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_gamma_transport_matches_old(self, masses_m, flavor, seed):
        masses, m = masses_m
        k = len(masses)
        grid = TimeGrid.uniform(1.0, k)
        mats = np.random.default_rng(seed).standard_normal((k, m, 2))
        kernel = GammaKernel(GridMeasure(grid, np.array(masses)), mats, flavor)
        new = gamma_timechange_check(kernel, n_samples=64, seed=seed)
        try:
            old = old_gamma_timechange_check(kernel, n_samples=64, seed=seed)
        except ValueError:
            # the old copy has no clock grid for a subnormal total; the new
            # one documents such a total as zero mass
            assert 0 < kernel.measure.total_mass < np.finfo(float).tiny
            assert new == TransportPair(0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            assert new == old

    def test_zero_measure_shared_over_paths(self):
        grid = TimeGrid.uniform(1.0, 5)
        qv = GridMeasure(grid, np.zeros(5))
        ens = ensemble_on(grid, 3, seed=1)
        tc = build_time_change(qv)
        assert tc.infinite.all()
        old = old_apply_time_change(ens, old_build_time_change(qv))
        assert np.array_equal(apply_time_change(ens, tc).values, old.values)

    @pytest.mark.parametrize("check", [apply_time_change, dds_integral_check])
    def test_path_count_mismatch_raises(self, check):
        grid = TimeGrid.uniform(1.0, 4)
        tc = build_time_change(BracketPaths(grid, np.ones((2, 4))))
        ens = ensemble_on(grid, 3, seed=2)
        args = (ens, tc) if check is apply_time_change else (
            IntegrandProcess.constant(grid, np.eye(2)), ens, tc
        )
        with pytest.raises(ValueError, match="incompatible path counts"):
            check(*args)

    @pytest.mark.parametrize("check", [apply_time_change, dds_integral_check])
    @pytest.mark.parametrize("clock_cells", [16, 33])
    def test_clock_from_another_grid_raises(self, check, clock_cells):
        # unchecked, a K = 16 clock reads a K = 32 ensemble at the wrong times
        # (bracket_gap() gives 0.0) or ends in a numpy broadcast error; a
        # K = 33 clock indexes past the ensemble's last grid point
        ens = ensemble_on(TimeGrid.uniform(1.0, 32), 3, seed=3)
        tc = build_time_change(linear_measure(k=clock_cells))
        args = (ens, tc) if check is apply_time_change else (
            IntegrandProcess.constant(ens.grid, np.eye(2)), ens, tc
        )
        with pytest.raises(ValueError, match="different grids"):
            check(*args)

    def test_clock_on_an_equal_grid_is_accepted(self):
        # grids compare by their points, not by identity
        grid = TimeGrid.uniform(1.0, 8)
        ens = ensemble_on(grid, 2, seed=4)
        tc = build_time_change(linear_measure(k=8))
        assert tc.grid is not ens.grid
        assert apply_time_change(ens, tc).bracket_gap() == pytest.approx(0.0, abs=1e-15)


def test_euclidean_flavor_is_exact_like_hilbert():
    grid = TimeGrid.uniform(1.0, 16)
    rng = np.random.default_rng(14)
    measure = GridMeasure(grid, rng.uniform(0, 1, 16))
    mats = rng.standard_normal((16, 3, 2))
    pairs = [
        gamma_timechange_check(GammaKernel(measure, mats, flavor))
        for flavor in ("euclidean", "hilbert")
    ]
    assert pairs[0] == pairs[1]
    assert pairs[0].lhs_stderr == 0.0 and pairs[0].rhs_stderr == 0.0
