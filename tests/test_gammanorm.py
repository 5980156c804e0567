import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import flavor_norm, single_rng
from cylmart.gammanorm import (
    _dual_ball_sample,
    _root_mean,
    GammaEstimate,
    GammaKernel,
    gamma_fubini_check,
    gamma_norm,
    gamma_norm_exact_hilbert,
    gamma_norm_mc,
    ideal_check,
    kernel_operator_norm,
    primitive_gamma_bound_check,
)
from cylmart.measures import GridMeasure, TimeGrid


def unit_mass_kernel(matrix, flavor="hilbert"):
    grid = TimeGrid.uniform(1.0, 1)
    return GammaKernel(GridMeasure(grid, np.ones(1)), matrix[None], flavor)


def random_kernel(rng, k=8, m=3, d=2, flavor="hilbert"):
    grid = TimeGrid.uniform(1.0, k)
    return GammaKernel(
        GridMeasure(grid, rng.uniform(0, 1, k)), rng.standard_normal((k, m, d)), flavor
    )


# The type-2/cotype-2 comparison of the full kernel norm with the cell-wise
# aggregate, the gamma-embedding of L2(0, T; H) that TestTypeCotype reads.


@dataclasses.dataclass(frozen=True)
class EmbeddingReport:
    gamma_full: GammaEstimate
    cellwise: float
    cellwise_stderr: float

    @property
    def ratio(self) -> float:
        return self.gamma_full.value / self.cellwise if self.cellwise > 0 else np.nan


def type2_cotype2_check(kernel: GammaKernel, n_samples: int = 4096, seed: int = 0) -> EmbeddingReport:
    """Ratio of the full kernel norm to the cell-by-cell aggregated norm.

    For p >= 2 targets the full norm is dominated by the aggregate (up to the
    type-2 constant); for p <= 2 the inequality reverses.  The report carries
    the ratio; panels record the empirical constant.
    """
    full = gamma_norm(kernel, n_samples, seed)
    rng = single_rng(seed + 1, stream=13)
    g = rng.standard_normal((n_samples, kernel.grid.n_cells, kernel.input_dim))
    per_cell = np.einsum("kmd,skd->skm", kernel.matrices, g)
    sq = flavor_norm(per_cell, kernel.flavor) ** 2  # (s, K)
    value, stderr = _root_mean(sq @ kernel.measure.increments)
    return EmbeddingReport(gamma_full=full, cellwise=value, cellwise_stderr=stderr)


class TestExactHilbert:
    def test_three_four_five(self):
        kernel = unit_mass_kernel(np.diag([3.0, 4.0]))
        assert gamma_norm_exact_hilbert(kernel) == pytest.approx(5.0)

    def test_zero_kernel(self):
        kernel = unit_mass_kernel(np.zeros((2, 2)))
        assert gamma_norm_exact_hilbert(kernel) == 0.0

    def test_weighted_sum(self):
        grid = TimeGrid.uniform(1.0, 2)
        mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
        kernel = GammaKernel(GridMeasure(grid, np.array([0.5, 0.25])), mats)
        assert gamma_norm_exact_hilbert(kernel) == pytest.approx(np.sqrt(1.0 + 2.0))

    def test_rejects_pnorm_flavor(self):
        kernel = unit_mass_kernel(np.eye(2), flavor=4)
        with pytest.raises(ValueError, match="Euclidean"):
            gamma_norm_exact_hilbert(kernel)


class TestMonteCarlo:
    def test_matches_exact_within_three_sigma(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            kernel = random_kernel(rng, k=int(rng.integers(2, 12)))
            exact = gamma_norm_exact_hilbert(kernel)
            est = gamma_norm_mc(kernel, 4096, seed=i)
            assert abs(est.value - exact) <= 3 * est.stderr + 1e-12

    def test_rank_one_closed_form(self):
        u = np.array([1.0, 2.0, 2.0])  # norm 3
        v = np.array([3.0, 4.0])  # norm 5
        kernel = unit_mass_kernel(np.outer(u, v))
        est = gamma_norm_mc(kernel, 8192, seed=1)
        assert abs(est.value - 15.0) <= 3 * est.stderr

    def test_l1_flavor_against_direct_simulation(self):
        d = 3
        kernel = unit_mass_kernel(np.eye(d), flavor=1)
        est = gamma_norm_mc(kernel, 20_000, seed=2)
        rng = single_rng(999)
        z = rng.standard_normal((40_000, d))
        direct = np.sqrt(np.mean(np.abs(z).sum(axis=1) ** 2))
        se_direct = np.std(np.abs(z).sum(axis=1) ** 2, ddof=1) / np.sqrt(40_000)
        tol = 3 * (est.stderr + se_direct / (2 * direct))
        assert abs(est.value - direct) <= tol

    def test_zero_mass_exactly_zero(self):
        grid = TimeGrid.uniform(1.0, 3)
        kernel = GammaKernel(GridMeasure(grid, np.zeros(3)), np.ones((3, 2, 2)))
        est = gamma_norm_mc(kernel, 100, seed=3)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(4)
        kernel = random_kernel(rng)
        a = gamma_norm_mc(kernel, 512, seed=7)
        b = gamma_norm_mc(kernel, 512, seed=7)
        assert a.value == b.value and a.stderr == b.stderr

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        kernel = random_kernel(rng, flavor=4)
        scaled = GammaKernel(kernel.measure, 3.0 * kernel.matrices, 4)
        a = gamma_norm_mc(kernel, 4096, seed=8)
        b = gamma_norm_mc(scaled, 4096, seed=8)
        assert b.value == pytest.approx(3.0 * a.value, rel=1e-12)

    def test_basis_rotation_invariance(self):
        rng = np.random.default_rng(6)
        kernel = random_kernel(rng, d=3, flavor=4)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated = GammaKernel(
            kernel.measure, kernel.matrices @ q, kernel.flavor
        )
        a = gamma_norm_mc(kernel, 16_384, seed=9)
        b = gamma_norm_mc(rotated, 16_384, seed=10)
        assert abs(a.value - b.value) <= 3 * (a.stderr + b.stderr)

    def test_operator_norm_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            kernel = random_kernel(rng)
            assert kernel_operator_norm(kernel) <= gamma_norm_exact_hilbert(
                kernel
            ) * (1 + 1e-12)


class TestIdealProperty:
    def test_identity_sandwich_is_equality(self):
        rng = np.random.default_rng(9)
        kernel = random_kernel(rng)
        rep = ideal_check(np.eye(3), kernel, np.eye(2))
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_zero_post_factor(self):
        rng = np.random.default_rng(10)
        kernel = random_kernel(rng)
        rep = ideal_check(np.zeros((2, 3)), kernel, np.eye(2))
        assert rep.lhs.value == 0.0 and rep.passed

    def test_random_contractions_never_violate(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            kernel = random_kernel(
                rng, k=int(rng.integers(2, 8)), m=int(rng.integers(1, 5)),
                d=int(rng.integers(1, 5)),
            )
            t = rng.standard_normal((int(rng.integers(1, 5)), kernel.target_dim))
            t /= max(np.linalg.svd(t, compute_uv=False)[0], 1.0)
            s = rng.standard_normal((kernel.input_dim, int(rng.integers(1, 5))))
            s /= max(np.linalg.svd(s, compute_uv=False)[0], 1.0)
            assert ideal_check(t, kernel, s).passed

    def test_pnorm_flavor_mc(self):
        rng = np.random.default_rng(12)
        kernel = random_kernel(rng, flavor=4)
        t = 0.5 * np.eye(3)
        s = 0.8 * np.eye(2)
        rep = ideal_check(t, kernel, s, n_samples=4096, seed=13)
        assert rep.passed

    def test_lp_target_reads_the_lp_norm_of_t(self):
        # a 45 degree rotation has spectral norm 1 but l^4 norm 2^(1/4); on
        # columns along (1, 1) it stretches every sample by 2^(1/4), so a
        # spectral-norm bound read lhs 1.420 > rhs 1.193 and failed
        grid = TimeGrid.uniform(1.0, 4)
        kernel = GammaKernel(
            GridMeasure(grid, np.full(4, 0.25)), np.tile([[1.0], [1.0]], (4, 1, 1)), flavor=4
        )
        c = np.sqrt(0.5)
        rotation = np.array([[c, -c], [c, c]])
        rep = ideal_check(rotation, kernel, np.eye(1), n_samples=8192, seed=3)
        assert rep.lhs.value == pytest.approx(1.420, abs=5e-4)
        assert rep.rhs == pytest.approx(1.688, abs=5e-4)
        assert rep.passed

    @pytest.mark.parametrize(
        "flavor, x, norm", [(1, [0.0, 1.0], 2.25), (np.inf, [1.0, -1.0], 3.0)]
    )
    def test_schur_bound_is_the_norm_at_one_and_infinity(self, flavor, x, norm):
        # at p = 1 the bound is the largest column sum of |T|, at p = inf the
        # largest row sum, and x attains it: ||T x|| = bound * ||x||
        t = np.array([[1.0, -2.0], [0.5, 0.25]])
        kernel = unit_mass_kernel(np.array([[1.0], [0.0]]), flavor)
        rep = ideal_check(t, kernel, np.eye(1), n_samples=256, seed=0)
        assert rep.rhs == pytest.approx(norm * gamma_norm(kernel, 256, 0).value, rel=1e-15)
        assert flavor_norm(t @ x, flavor) == norm * flavor_norm(np.array(x), flavor)


class TestPrimitiveBound:
    def test_zero_integrand(self):
        grid = TimeGrid.uniform(1.0, 4)
        mu = GridMeasure(grid, grid.widths)
        rep = primitive_gamma_bound_check(np.zeros((4, 2)), mu)
        assert rep.lhs.value == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_terminal_mass_equality_case(self):
        # constant scalar integrand, all weight on the last cell
        grid = TimeGrid.uniform(1.0, 8)
        inc = np.zeros(8)
        inc[-1] = 0.7
        mu = GridMeasure(grid, inc)
        rep = primitive_gamma_bound_check(np.ones((8, 1)), mu)
        assert rep.lhs.value == pytest.approx(np.sqrt(0.7), rel=1e-12)
        assert rep.rhs == pytest.approx(np.sqrt(0.7), rel=1e-12)

    def test_random_hilbert_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            k = int(rng.integers(2, 16))
            m = int(rng.integers(1, 5))
            grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), k)
            mu = GridMeasure(grid, rng.uniform(0, 1, k))
            rep = primitive_gamma_bound_check(rng.standard_normal((k, m)), mu)
            assert rep.passed

    def test_pnorm_flavor(self):
        rng = np.random.default_rng(14)
        grid = TimeGrid.uniform(1.0, 8)
        mu = GridMeasure(grid, rng.uniform(0, 1, 8))
        rep = primitive_gamma_bound_check(
            rng.standard_normal((8, 3)), mu, flavor=4, n_samples=4096, seed=15
        )
        assert rep.passed


class TestFubini:
    def test_p2_is_exact_identity(self):
        rng = np.random.default_rng(15)
        kernel = random_kernel(rng, flavor=2)
        rep = gamma_fubini_check(kernel, n_samples=4096, seed=16)
        assert abs(rep.rhs.value - rep.lhs) <= 3 * rep.rhs.stderr

    def test_single_row_ratio_one(self):
        rng = np.random.default_rng(16)
        kernel = random_kernel(rng, m=1, flavor=4)
        rep = gamma_fubini_check(kernel, n_samples=8192, seed=17)
        assert rep.ratio == pytest.approx(1.0, abs=3 * rep.rhs.stderr / rep.lhs)

    def test_p4_ratio_stable_across_seeds(self):
        rng = np.random.default_rng(17)
        kernel = random_kernel(rng, m=4, d=3, flavor=4)
        r1 = gamma_fubini_check(kernel, n_samples=8192, seed=18).ratio
        r2 = gamma_fubini_check(kernel, n_samples=8192, seed=19).ratio
        assert abs(r1 - r2) < 0.05
        assert 0.5 < r1 < 2.0


class TestTypeCotype:
    def test_p2_exact_match(self):
        rng = np.random.default_rng(18)
        kernel = random_kernel(rng, flavor=2)
        rep = type2_cotype2_check(kernel, n_samples=4096, seed=20)
        assert rep.ratio == pytest.approx(1.0, abs=0.05)

    def test_p4_one_sided(self):
        rng = np.random.default_rng(19)
        ratios = [
            type2_cotype2_check(random_kernel(rng, flavor=4), 4096, seed=21 + i).ratio
            for i in range(10)
        ]
        # p >= 2: full norm dominated by the cellwise aggregate (type-2 side)
        assert max(ratios) <= 1.0 + 0.05

    @pytest.mark.parametrize("flavor", ["hilbert", 4])
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_refused(self, flavor, n_samples):
        kernel = random_kernel(np.random.default_rng(21), flavor=flavor)
        message = f"n_samples must be an integer >= 2, got {n_samples}$"
        with pytest.raises(ValueError, match=message):
            type2_cotype2_check(kernel, n_samples=n_samples, seed=22)

    def test_p1_reverses(self):
        rng = np.random.default_rng(20)
        ratios = [
            type2_cotype2_check(random_kernel(rng, flavor=1), 4096, seed=41 + i).ratio
            for i in range(10)
        ]
        assert min(ratios) >= 1.0 - 0.05


class TestSupNormFlavor:
    """flavor = inf is the largest absolute entry, not the limit 1 of
    (sum |x|^p)^(1/p) taken at p = inf."""

    def test_exact_values(self):
        values = np.array([[3.0, -4.0, 1.0], [0.0, 0.0, 0.0], [-2.5, 2.5, -0.5], [1e-300, 0, 0]])
        for flavor in (np.inf, float("inf"), "inf"):
            np.testing.assert_array_equal(
                flavor_norm(values, flavor), np.array([4.0, 0.0, 2.5, 1e-300])
            )
        np.testing.assert_array_equal(flavor_norm(values, np.inf, axis=0), [3.0, 4.0, 1.0])
        assert np.isnan(flavor_norm(np.array([1.0, np.nan]), np.inf))

    def test_all_ones_kernel(self):
        grid = TimeGrid.uniform(1.0, 4)
        kernel = GammaKernel(GridMeasure(grid, grid.widths), np.ones((4, 2, 2)), np.inf)
        # both target rows are the same N(0, 2) sum, so the norm is sqrt(2)
        est = gamma_norm(kernel, 64, 0)
        assert abs(est.value - np.sqrt(2.0)) <= 3 * est.stderr

    def test_scalar_target_matches_exact_hilbert(self):
        kernel = random_kernel(np.random.default_rng(21), k=10, m=1, d=3, flavor=np.inf)
        exact = gamma_norm_exact_hilbert(dataclasses.replace(kernel, flavor="hilbert"))
        est = gamma_norm_mc(kernel, 8192, seed=22)
        assert est.stderr > 0
        assert abs(est.value - exact) <= 3 * est.stderr

    def test_dual_ball_of_sup_norm_is_l1_sphere(self):
        duals = _dual_ball_sample(3, np.inf, 16, seed=23, hint=None)
        np.testing.assert_allclose(np.abs(duals).sum(axis=1), 1.0, rtol=1e-14)

    def test_fubini_rows_take_the_largest(self):
        rng = np.random.default_rng(24)
        kernel = random_kernel(rng, m=3, d=2, flavor=np.inf)
        rep = gamma_fubini_check(kernel, n_samples=1024, seed=25)
        rows = np.einsum("kmd,k->m", kernel.matrices**2, kernel.measure.increments)
        assert rep.lhs == np.sqrt(rows.max())


class TestFlavorNames:
    @pytest.mark.parametrize("flavor", ["Hilbert", "l4", 0.5])
    def test_unreadable_flavor_is_named(self, flavor):
        msg = "norm flavor must be 'hilbert' or p >= 1"
        with pytest.raises(ValueError, match=msg):
            flavor_norm(np.ones((2, 3)), flavor)
        with pytest.raises(ValueError, match=msg):
            unit_mass_kernel(np.eye(2), flavor)


class TestGammaNormDispatch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        # gamma_norm used to return inf, or nan for flavor 4
        matrix = np.eye(2)
        matrix[0, 1] = bad
        with pytest.raises(ValueError, match="kernel matrices are not all finite"):
            unit_mass_kernel(matrix, flavor=4)

    def test_exact_for_hilbert(self):
        rng = np.random.default_rng(21)
        kernel = random_kernel(rng)
        est = gamma_norm(kernel)
        assert est.stderr == 0.0
        assert est.value == gamma_norm_exact_hilbert(kernel)

    def test_mc_for_pnorm(self):
        rng = np.random.default_rng(22)
        kernel = random_kernel(rng, flavor=3)
        est = gamma_norm(kernel, n_samples=512, seed=23)
        assert est.stderr > 0.0


# ---------------------------------------------------------------------------
# Oracles: the two Monte Carlo root-mean estimates as written before they
# shared one helper, kept verbatim; old_gamma_norm_mc is the K x d loading
# sampler, with the since-removed GammaKernel.weighted() written out.


def old_gamma_norm_mc(kernel: GammaKernel, n_samples: int, seed: int) -> GammaEstimate:
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if kernel.measure.total_mass == 0:
        return GammaEstimate(0.0, 0.0)
    w = kernel.matrices * np.sqrt(kernel.measure.increments)[:, None, None]  # (K, m, d)
    rng = single_rng(seed, stream=7)
    g = rng.standard_normal((n_samples, kernel.grid.n_cells, kernel.input_dim))
    v = np.einsum("kmd,skd->sm", w, g)
    sq = flavor_norm(v, kernel.flavor) ** 2
    mean = float(np.mean(sq))
    value = float(np.sqrt(mean))
    se_sq = float(np.std(sq, ddof=1) / np.sqrt(n_samples))
    stderr = se_sq / (2 * value) if value > 0 else 0.0
    return GammaEstimate(value, stderr)


def old_type2_cotype2_check(kernel: GammaKernel, n_samples: int = 4096, seed: int = 0) -> EmbeddingReport:
    full = gamma_norm(kernel, n_samples, seed)
    rng = single_rng(seed + 1, stream=13)
    g = rng.standard_normal((n_samples, kernel.grid.n_cells, kernel.input_dim))
    per_cell = np.einsum("kmd,skd->skm", kernel.matrices, g)
    sq = flavor_norm(per_cell, kernel.flavor) ** 2  # (s, K)
    agg = sq @ kernel.measure.increments  # (s,)
    mean = float(np.mean(agg))
    value = float(np.sqrt(mean))
    se = float(np.std(agg, ddof=1) / np.sqrt(n_samples))
    stderr = se / (2 * value) if value > 0 else 0.0
    return EmbeddingReport(gamma_full=full, cellwise=value, cellwise_stderr=stderr)


@st.composite
def oracle_kernels(draw):
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0, 1, k) * (rng.uniform(size=k) > draw(st.sampled_from([0.0, 0.5, 1.0])))
    mats = rng.standard_normal((k, m, d)) * draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))
    flavor = draw(st.sampled_from(["hilbert", "euclidean", 2, 1, 1.5, 4]))
    grid = TimeGrid.uniform(1.0, k)
    return GammaKernel(GridMeasure(grid, masses), mats, flavor)


class TestRootMeanOracle:
    def test_gamma_norm_mc_agrees_with_old(self):
        # a family of 12 kernels x 4 flavors, each estimate at 4096 samples
        # (largest |z| seen: 2.79)
        for flavor in ("hilbert", 1, 4, np.inf):
            rng = np.random.default_rng(2024)
            for i in range(12):
                k, m, d = (int(x) for x in rng.integers(1, 7, size=3))
                kernel = random_kernel(rng, k=k, m=m, d=d, flavor=flavor)
                new = gamma_norm_mc(kernel, 4096, seed=i)
                old = old_gamma_norm_mc(kernel, 4096, seed=1000 + i)
                tol = 4 * np.hypot(new.stderr, old.stderr)
                assert abs(new.value - old.value) <= tol, (flavor, i, k, m, d)

    @given(oracle_kernels(), st.integers(2, 300), st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_type2_cotype2_matches_old(self, kernel, n_samples, seed):
        new = type2_cotype2_check(kernel, n_samples, seed)
        assert new == old_type2_cotype2_check(kernel, n_samples, seed)


def split_cells(kernel: GammaKernel) -> GammaKernel:
    """Each cell as two half-mass cells with the same matrix."""
    pts = kernel.grid.points
    mid = 0.5 * (pts[:-1] + pts[1:])
    points = np.sort(np.concatenate([pts, mid]))
    masses = np.repeat(0.5 * kernel.measure.increments, 2)
    mats = np.repeat(kernel.matrices, 2, axis=0)
    return GammaKernel(GridMeasure(TimeGrid(points), masses), mats, kernel.flavor)


def rotate_input(kernel: GammaKernel, seed: int) -> GammaKernel:
    """The (m, K d) stack s of sqrt(mass)-scaled matrices times an
    orthogonal K d x K d matrix, as a kernel of unit-mass cells."""
    k, m, d = kernel.matrices.shape
    s = kernel.matrices * np.sqrt(kernel.measure.increments)[:, None, None]
    s = s.transpose(1, 0, 2).reshape(m, k * d)
    o = np.linalg.qr(np.random.default_rng(seed).standard_normal((k * d, k * d)))[0]
    mats = (s @ o).reshape(m, k, d).transpose(1, 0, 2)
    return GammaKernel(GridMeasure(kernel.grid, np.ones(k)), mats, kernel.flavor)


@st.composite
def covariance_kernels(draw):
    """Kernels whose covariance is of full rank (well conditioned: at least
    twice as many input columns as target rows) or of rank r < m."""
    seed = draw(st.integers(0, 2**32 - 1))
    full_rank = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 4))
    k = draw(st.integers(2 if full_rank else 1, 6))
    d = draw(st.integers(m if full_rank else 1, 5))
    mats = rng.standard_normal((k, m, d))
    if not full_rank:
        r = draw(st.integers(0, m - 1))
        mats = rng.standard_normal((m, r)) @ rng.standard_normal((k, r, d))
    mats *= draw(st.sampled_from([1e-3, 1.0, 50.0]))
    flavor = draw(st.sampled_from(["hilbert", 1, 3, 4, np.inf]))
    measure = GridMeasure(TimeGrid.uniform(1.0, k), rng.uniform(0.1, 1.0, k))
    return GammaKernel(measure, mats, flavor), full_rank, seed


class TestCovarianceForm:
    @given(covariance_kernels(), st.integers(2, 300), st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_equal_covariance_gives_equal_estimate(self, case, n_samples, seed):
        # each twin forms C in another order.  Its square root is stable on
        # a well-conditioned C, but a zero eigenvalue computed as a few eps
        # ||C|| puts a root of order sqrt(eps ||C||) into a null direction,
        # which moves an l^1 or l^inf norm at first order (worst seen in
        # 19158 rank-deficient cases: 1.3e-8 on the value, 2.4e-8 on the
        # stderr, both relative to the value; 1.6e-15 at full rank)
        kernel, full_rank, rot_seed = case
        tol = 1e-12 if full_rank else 8 * np.sqrt(np.finfo(float).eps)
        est = gamma_norm_mc(kernel, n_samples, seed)
        for twin in (rotate_input(kernel, rot_seed), split_cells(kernel)):
            other = gamma_norm_mc(twin, n_samples, seed)
            assert abs(other.value - est.value) <= tol * est.value
            assert abs(other.stderr - est.stderr) <= tol * est.value

    def test_l1_second_moment_closed_form(self):
        # E||v||_1^2 = sum_i C_ii + sum_{i != j} E|v_i||v_j|, and for a centred
        # Gaussian pair E|X||Y| = (2/pi) s_x s_y (sqrt(1 - rho^2) + rho asin rho)
        rng = np.random.default_rng(31)
        for i in range(6):
            kernel = random_kernel(rng, k=int(rng.integers(2, 9)), m=int(rng.integers(2, 6)),
                                   d=int(rng.integers(1, 4)), flavor=1)
            c = kernel.covariance()
            s = np.sqrt(np.diag(c))
            rho = np.clip(c / np.outer(s, s), -1.0, 1.0)
            pair = (2 / np.pi) * np.outer(s, s) * (np.sqrt(1 - rho**2) + rho * np.arcsin(rho))
            np.fill_diagonal(pair, np.diag(c))
            exact = np.sqrt(pair.sum())
            est = gamma_norm_mc(kernel, 65536, seed=40 + i)
            assert abs(est.value - exact) <= 4 * est.stderr, (i, (est.value - exact) / est.stderr)
