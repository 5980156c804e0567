from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import SNAP_RTOL, flavor_norm, prefix_sums, require_window
from cylmart.integration import (
    IntegralPaths,
    IntegrandProcess,
    bracket_of_integral,
    covariation_operator,
    first_passage_time,
    integrate,
    kunita_watanabe_check,
    stop_integral,
)
from cylmart.martingales import (
    MartEnsemble,
    NoiseSpec,
    am_operator,
    qv_exact,
    simulate,
    stop_ensemble,
)
from cylmart.measures import TimeGrid
from cylmart.timechange import build_time_change


# MartEnsemble.m_eval, which only this module's oracle read, kept verbatim
# as a function of the ensemble.
def m_eval(ens, h: np.ndarray) -> np.ndarray:
    """Cylindrical evaluation M_t h on the grid, shape (n, K+1)."""
    return prefix_sums(ens.driven @ np.asarray(h, dtype=float), axis=1)


# The integral of a simple integrand by its definition, from differences of
# M-evaluations: the independent reference that ``integrate`` is held to.


def path_mask(mask, n_paths: int) -> np.ndarray:
    """``mask`` as n_paths bools, one per path."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n_paths,):
        raise ValueError(f"event mask needs one entry per path, {n_paths} in all")
    return mask


@dataclass(frozen=True)
class ElementaryPiece:
    """One time slab (t_{i0}, t_{i1}] with an event mask and rank-one terms."""

    i0: int
    i1: int
    terms: tuple  # ((h, x), ...)
    mask: np.ndarray | None = None  # per-path bools; None = all paths


@dataclass(frozen=True)
class ElementaryIntegrand:
    """Normal form of a simple integrand: slabs x events x sum of h (x) x.

    The h vectors used within a slab must be pairwise orthogonal.
    """

    grid: TimeGrid
    pieces: tuple

    def __post_init__(self):
        for piece in self.pieces:
            require_window(piece.i0, piece.i1, self.grid.n_cells)
            hs = [np.asarray(h, dtype=float) for h, _ in piece.terms]
            for a in range(len(hs)):
                for b in range(a + 1, len(hs)):
                    denom = np.linalg.norm(hs[a]) * np.linalg.norm(hs[b])
                    if denom > 0 and abs(hs[a] @ hs[b]) > 1e-10 * denom:
                        raise ValueError("h vectors within a slab must be orthogonal")

    @property
    def target_dim(self) -> int:
        for piece in self.pieces:
            for _, x in piece.terms:
                return np.asarray(x).size
        return 1

    def as_process(self, n_paths: int) -> IntegrandProcess:
        """Materialize the per-cell (per-path if events are used) matrices."""
        k = self.grid.n_cells
        m = self.target_dim
        d = None
        for piece in self.pieces:
            for h, _ in piece.terms:
                d = np.asarray(h).size
        per_path = any(p.mask is not None for p in self.pieces)
        shape = (n_paths, k, m, d) if per_path else (k, m, d)
        mats = np.zeros(shape)
        for piece in self.pieces:
            block = sum(
                np.outer(np.asarray(x, dtype=float), np.asarray(h, dtype=float))
                for h, x in piece.terms
            )
            if per_path:
                sel = np.ones(n_paths, bool) if piece.mask is None else piece.mask
                mats[path_mask(sel, n_paths), piece.i0 : piece.i1] += block
            else:
                mats[piece.i0 : piece.i1] += block
        return IntegrandProcess(self.grid, mats)


def elementary_integral(elem: ElementaryIntegrand, ens: MartEnsemble) -> IntegralPaths:
    """Evaluate a simple integrand from differences of M-evaluations.

    This is the defining formula: per slab and event, each rank-one term
    contributes (M(t_{i1} ^ t) h - M(t_{i0} ^ t) h) x.  It serves as the
    independent reference for :func:`integrate` on simple integrands.
    """
    if elem.grid != ens.grid:
        raise ValueError("integrand and ensemble grids differ")
    k = ens.grid.n_cells
    m = elem.target_dim
    out = np.zeros((ens.n_paths, k + 1, m))
    idx = np.arange(k + 1)
    for piece in elem.pieces:
        lo = np.minimum(idx, piece.i0)
        hi = np.minimum(idx, piece.i1)
        sel = np.ones(ens.n_paths, bool) if piece.mask is None else piece.mask
        sel = path_mask(sel, ens.n_paths)
        for h, x in piece.terms:
            evals = m_eval(ens, np.asarray(h, dtype=float))  # (n, K+1)
            contrib = evals[:, hi] - evals[:, lo]
            out[sel] += contrib[sel, :, None] * np.asarray(x, dtype=float)
    return IntegralPaths(ens.grid, out)


@pytest.fixture
def grid():
    return TimeGrid.uniform(1.0, 16)


@pytest.fixture
def wiener(grid):
    return simulate(NoiseSpec(2, 2, np.eye(2)), grid, 64, seed=1)


class TestElementary:
    def test_single_term_is_scaled_evaluation(self, grid, wiener):
        h = np.array([1.0, 0.0])
        x = np.array([0.0, 3.0, 1.0])
        elem = ElementaryIntegrand(grid, (ElementaryPiece(0, 16, ((h, x),)),))
        zeta = elementary_integral(elem, wiener)
        evals = m_eval(wiener, h)
        np.testing.assert_allclose(zeta.values, evals[:, :, None] * x, rtol=1e-12)

    def test_zero_integrand(self, grid, wiener):
        elem = ElementaryIntegrand(grid, ())
        zeta = elementary_integral(elem, wiener)
        assert np.abs(zeta.values).max() == 0.0

    def test_two_slabs_swapped_vectors_hand_expansion(self, grid, wiener):
        h1, h2 = np.eye(2)
        x = np.array([1.0, -2.0])
        elem = ElementaryIntegrand(
            grid,
            (
                ElementaryPiece(0, 8, ((h1, x),)),
                ElementaryPiece(8, 16, ((h2, x),)),
            ),
        )
        zeta = elementary_integral(elem, wiener)
        e1 = m_eval(wiener, h1)
        e2 = m_eval(wiener, h2)
        idx = np.arange(17)
        hand = (
            (e1[:, np.minimum(idx, 8)] - e1[:, np.minimum(idx, 0)])[:, :, None] * x
            + (e2[:, np.minimum(idx, 16)] - e2[:, np.minimum(idx, 8)])[:, :, None] * x
        )
        np.testing.assert_allclose(zeta.values, hand, rtol=1e-12)

    def test_event_masks_gate_paths(self, grid, wiener):
        mask = np.zeros(wiener.n_paths, bool)
        mask[::2] = True
        h = np.array([0.0, 1.0])
        elem = ElementaryIntegrand(
            grid, (ElementaryPiece(0, 16, ((h, np.array([1.0])),), mask=mask),)
        )
        zeta = elementary_integral(elem, wiener)
        assert np.abs(zeta.values[~mask]).max() == 0.0
        assert np.abs(zeta.values[mask]).max() > 0.0

    def test_wrong_mask_length_is_named(self, grid):
        ens = simulate(NoiseSpec(2, 2, np.eye(2)), grid, 5, seed=13)
        h, x = np.array([1.0, 0.0]), np.ones(1)
        piece = ElementaryPiece(0, 16, ((h, x),), mask=np.ones(3, bool))
        elem = ElementaryIntegrand(grid, (piece,))
        msg = r"event mask needs one entry per path, 5 in all"
        with pytest.raises(ValueError, match=msg):
            elementary_integral(elem, ens)
        with pytest.raises(ValueError, match=msg):
            elem.as_process(5)

    def test_non_orthogonal_panel_rejected(self, grid):
        h1 = np.array([1.0, 0.0])
        h2 = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="orthogonal"):
            ElementaryIntegrand(
                grid,
                (ElementaryPiece(0, 4, ((h1, np.ones(1)), (h2, np.ones(1)))),),
            )

    def test_integrate_agrees_on_elementary(self, grid, wiener):
        h = np.array([0.6, 0.8])
        x = np.array([2.0, -1.0, 0.5])
        elem = ElementaryIntegrand(
            grid,
            (
                ElementaryPiece(0, 5, ((h, x),)),
                ElementaryPiece(5, 16, ((np.array([-0.8, 0.6]), 2 * x),)),
            ),
        )
        za = elementary_integral(elem, wiener)
        zb = integrate(elem.as_process(wiener.n_paths), wiener)
        np.testing.assert_allclose(za.values, zb.values, atol=1e-13)


@st.composite
def simple_integrands(draw):
    """An ensemble and a random simple integrand on its grid: up to three
    slabs, each with an optional event mask and up to d_cyl rank-one terms
    whose h vectors are scaled rows of a random orthogonal matrix."""
    k = draw(st.integers(1, 12))
    d_cyl = draw(st.integers(1, 3))
    d_drive = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    per_cell_sigma = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.05, 0.5, k)]))
    sig_shape = (k, d_cyl, d_drive) if per_cell_sigma else (d_cyl, d_drive)
    spec = NoiseSpec(d_cyl, d_drive, rng.standard_normal(sig_shape))
    ens = simulate(spec, grid, n, seed=int(rng.integers(0, 1000)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        i0 = draw(st.integers(0, k - 1))
        i1 = draw(st.integers(i0 + 1, k))
        basis = np.linalg.qr(rng.standard_normal((d_cyl, d_cyl)))[0]
        rows = draw(st.lists(st.integers(0, d_cyl - 1), min_size=1, max_size=d_cyl, unique=True))
        terms = tuple((rng.uniform(0.2, 3.0) * basis[r], rng.standard_normal(m)) for r in rows)
        mask = rng.random(n) < 0.5 if draw(st.booleans()) else None
        pieces.append(ElementaryPiece(i0, i1, terms, mask))
    return ens, ElementaryIntegrand(grid, tuple(pieces))


class TestIntegrateProperty:
    @given(simple_integrands())
    @settings(max_examples=80, deadline=None)
    def test_integrate_agrees_with_elementary_integral(self, case):
        ens, elem = case
        by_driver = integrate(elem.as_process(ens.n_paths), ens).values
        by_definition = elementary_integral(elem, ens).values
        # the defining form differences M-evaluations, so the two agree to
        # round-off relative to the size of the evaluations it subtracts
        m_size = np.abs(ens.m_evals).max(initial=0.0) * np.sqrt(ens.spec.d_cyl)
        weight = sum(
            np.linalg.norm(h) * np.abs(x).max() for piece in elem.pieces for h, x in piece.terms
        )
        tol = 16 * (ens.grid.n_cells + 1) * np.finfo(float).eps * m_size * weight
        assert by_driver.shape == by_definition.shape
        np.testing.assert_allclose(by_driver, by_definition, rtol=0, atol=tol)


class TestIntegrate:
    def test_identity_recovers_coordinates(self, grid, wiener):
        zeta = integrate(IntegrandProcess.constant(grid, np.eye(2)), wiener)
        np.testing.assert_array_equal(zeta.values, wiener.m_evals)

    def test_scalar_isometry(self, grid):
        spec = NoiseSpec(1, 1, np.array([[1.3]]))
        ens = simulate(spec, grid, 10_000, seed=2)
        phi = 0.5 + grid.left**2
        zeta = integrate(IntegrandProcess(grid, phi[:, None, None]), ens)
        target = float(np.sum(phi**2 * 1.3**2 * grid.widths))
        sq = zeta.terminal()[:, 0] ** 2
        se = sq.std(ddof=1) / np.sqrt(ens.n_paths)
        assert abs(sq.mean() - target) <= 3 * se

    def test_linearity_bit_exact(self, grid, wiener):
        rng = np.random.default_rng(0)
        p1 = rng.standard_normal((16, 3, 2))
        p2 = rng.standard_normal((16, 3, 2))
        a, b = 2.0, -0.5
        lhs = integrate(IntegrandProcess(grid, a * p1 + b * p2), wiener)
        r1 = integrate(IntegrandProcess(grid, a * p1), wiener)
        r2 = integrate(IntegrandProcess(grid, b * p2), wiener)
        np.testing.assert_allclose(lhs.values, r1.values + r2.values, atol=1e-14)

    @pytest.mark.parametrize("per_path", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrices_rejected(self, grid, per_path, bad):
        mats = np.ones((3,) * per_path + (grid.n_cells, 1, 2))
        mats[..., 5, 0, 1] = bad
        with pytest.raises(ValueError, match="integrand matrices are not all finite"):
            IntegrandProcess(grid, mats)

    def test_shape_mismatch(self, grid, wiener):
        other = TimeGrid.uniform(1.0, 8)
        with pytest.raises(ValueError, match="grids differ"):
            integrate(IntegrandProcess.constant(other, np.eye(2)), wiener)

    def test_flavor_norms(self, grid, wiener):
        z = integrate(IntegrandProcess.constant(grid, np.eye(2)), wiener)
        sup2 = flavor_norm(z.values, 2).max(axis=1)
        sup4 = flavor_norm(z.values, 4).max(axis=1)
        assert np.all(sup4 <= sup2 + 1e-12)


class TestBracketOfIntegral:
    def test_row_recovers_direction_bracket(self, grid):
        rng = np.random.default_rng(1)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        x = rng.standard_normal(3)
        br = bracket_of_integral(x, spec, grid)
        ens = simulate(spec, grid, 1, seed=1)
        per_dir = ens.direction_bracket_increments(x[None, :])
        np.testing.assert_allclose(br.increments, per_dir[0], rtol=1e-12)

    def test_kernel_direction_gives_zero(self, grid):
        sig = np.array([[1.0], [0.0]])  # range = e1
        spec = NoiseSpec(2, 1, sig)
        br = bracket_of_integral(np.array([0.0, 1.0]), spec, grid)
        assert br.total_mass == 0.0

    def test_realized_variation_cross_check(self, grid):
        rng = np.random.default_rng(2)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        phi = rng.standard_normal(2)
        ens = simulate(spec, grid, 10_000, seed=3)
        zeta = integrate(IntegrandProcess.constant(grid, phi[None, :]), ens)
        # per-path total of the squared increments
        realized = (np.diff(zeta.values[:, :, 0], axis=1) ** 2).sum(axis=1)
        exact = bracket_of_integral(phi, spec, grid).total_mass
        rel = abs(realized.mean() - exact) / exact
        assert rel < 0.05


class TestCovariation:
    def test_self_covariation_is_operator_bracket(self, grid):
        rng = np.random.default_rng(3)
        spec = NoiseSpec(3, 3, rng.standard_normal((3, 3)))
        cov = covariation_operator(spec, spec, grid)
        am = am_operator(spec, grid)
        np.testing.assert_allclose(cov.matrices, am.matrices, rtol=1e-12)

    def test_zero_second_factor(self, grid):
        s1 = NoiseSpec(2, 2, np.eye(2))
        s2 = NoiseSpec(2, 2, np.zeros((2, 2)))
        cov = covariation_operator(s1, s2, grid)
        assert np.abs(cov.matrices).max() == 0.0

    def test_orthogonal_ranges(self, grid):
        s1 = NoiseSpec(2, 2, np.diag([1.0, 0.0]))
        s2 = NoiseSpec(2, 2, np.diag([0.0, 1.0]))
        cov = covariation_operator(s1, s2, grid)
        assert np.abs(cov.matrices).max() == 0.0

    def test_polarization(self, grid):
        # polarization recovers the symmetric part, which carries every
        # quadratic form [M1 x, M2 x]
        rng = np.random.default_rng(4)
        s1 = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        s2 = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        plus = NoiseSpec(2, 2, np.asarray(s1.sigma) + np.asarray(s2.sigma))
        minus = NoiseSpec(2, 2, np.asarray(s1.sigma) - np.asarray(s2.sigma))
        cov = covariation_operator(s1, s2, grid).matrices
        pol = (
            am_operator(plus, grid).matrices - am_operator(minus, grid).matrices
        ) / 4.0
        np.testing.assert_allclose(pol, (cov + cov.transpose(0, 2, 1)) / 2, atol=1e-12)
        xs = rng.standard_normal((12, 2))
        np.testing.assert_allclose(
            np.einsum("xi,kij,xj->kx", xs, pol, xs),
            np.einsum("xi,kij,xj->kx", xs, cov, xs),
            atol=1e-12,
        )
        # adjoint relation between the two orderings
        rev = covariation_operator(s2, s1, grid).matrices
        np.testing.assert_allclose(rev, cov.transpose(0, 2, 1), atol=1e-12)

    def test_increment_cauchy_schwarz(self, grid):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s1 = NoiseSpec(2, 3, rng.standard_normal((2, 3)))
            s2 = NoiseSpec(2, 3, rng.standard_normal((2, 3)))
            c12 = covariation_operator(s1, s2, grid).matrices
            a1 = am_operator(s1, grid).matrices
            a2 = am_operator(s2, grid).matrices
            xs = rng.standard_normal((8, 2))
            for j, l in [(0, 5), (3, 16), (10, 12)]:
                d12 = np.einsum("xi,ij,xj->x", xs, c12[l] - c12[j], xs)
                d1 = np.einsum("xi,ij,xj->x", xs, a1[l] - a1[j], xs)
                d2 = np.einsum("xi,ij,xj->x", xs, a2[l] - a2[j], xs)
                assert np.all(np.abs(d12) <= np.sqrt(d1 * d2) + 1e-10)

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param(NoiseSpec(2, 2, np.eye(2), q_drive=4.0 * np.eye(2)), id="other-q"),
            pytest.param(NoiseSpec(2, 3, np.ones((2, 3))), id="other-d-drive"),
        ],
    )
    @pytest.mark.parametrize(
        "fn",
        [
            covariation_operator,
            lambda s1, s2, grid: kunita_watanabe_check(
                np.ones((16, 2)), np.ones((16, 2)), s1, s2, grid
            ),
        ],
        ids=["operator", "kunita-watanabe"],
    )
    def test_other_driver_refused_in_either_order(self, grid, other, fn):
        spec = NoiseSpec(2, 2, np.eye(2))
        for one, two in ((spec, other), (other, spec)):
            with pytest.raises(ValueError, match="specs must share one driver"):
                fn(one, two, grid)

    def test_scalar_covariation_dominates(self, grid):
        rng = np.random.default_rng(6)
        s1 = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        s2 = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        # per cell, the matrix 2-norm of the covariation operator's increment
        d12 = np.diff(covariation_operator(s1, s2, grid).matrices, axis=0)
        inc12 = np.linalg.svd(d12, compute_uv=False)[..., 0]
        inc1 = qv_exact(s1, grid).increments
        inc2 = qv_exact(s2, grid).increments
        assert np.all(inc12 <= np.sqrt(inc1 * inc2) + 1e-12)


class TestKunitaWatanabe:
    def test_equality_case(self, grid):
        rng = np.random.default_rng(7)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        f = rng.standard_normal((16, 2))
        rep = kunita_watanabe_check(f, f, spec, spec, grid)
        assert rep.passed
        assert abs(rep.worst_slack) < 1e-12

    def test_independent_drivers_zero_lhs(self, grid):
        s1 = NoiseSpec(1, 2, np.array([[1.0, 0.0]]))
        s2 = NoiseSpec(1, 2, np.array([[0.0, 1.0]]))
        f = np.ones((16, 1))
        rep = kunita_watanabe_check(f, f, s1, s2, grid)
        assert rep.passed

    def test_random_instances(self, grid):
        rng = np.random.default_rng(8)
        for _ in range(15):
            dd = int(rng.integers(1, 4))
            s1 = NoiseSpec(2, dd, rng.standard_normal((2, dd)))
            s2 = NoiseSpec(3, dd, rng.standard_normal((3, dd)))
            f = rng.standard_normal((5, 16, 2))
            g = rng.standard_normal((5, 16, 3))
            rep = kunita_watanabe_check(f, g, s1, s2, grid)
            assert rep.passed, rep


@st.composite
def passage_cases(draw):
    """Ensembles whose brackets have random, zero and exactly aligned cell
    masses (sigma = 1 on a uniform grid gives the bracket t), stopped at
    random points for per-path plateaus."""
    k = draw(st.integers(1, 12))
    horizon = draw(st.sampled_from([0.5, 1.0, 3.0]))
    sig = [1.0] * k
    if draw(st.booleans()):
        values = st.sampled_from([0.0, 1.0, np.sqrt(2.0), 0.3, 2.5])
        sig = draw(st.lists(values, min_size=k, max_size=k))
    n = draw(st.integers(1, 4))
    spec = NoiseSpec(1, 1, np.array(sig)[:, None, None])
    ens = simulate(spec, TimeGrid.uniform(horizon, k), n, seed=0)
    if draw(st.booleans()):
        ens = stop_ensemble(ens, draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
    return ens


class TestStopping:
    def test_full_horizon_is_identity(self, grid, wiener):
        phi = IntegrandProcess.constant(grid, np.eye(2))
        res = stop_integral(phi, wiener, np.full(wiener.n_paths, 16))
        assert res.bit_identical
        full = integrate(phi, wiener)
        np.testing.assert_array_equal(res.stopped_path.values, full.values)

    def test_zero_time_is_zero(self, grid, wiener):
        phi = IntegrandProcess.constant(grid, np.eye(2))
        res = stop_integral(phi, wiener, np.zeros(wiener.n_paths, dtype=int))
        assert res.bit_identical
        assert np.abs(res.stopped_path.values).max() == 0.0

    @pytest.mark.parametrize("bad", [-1, 17])
    def test_out_of_range_rejected(self, grid, wiener, bad):
        phi = IntegrandProcess.constant(grid, np.eye(2))
        tau = np.full(wiener.n_paths, 8)
        tau[0] = bad
        with pytest.raises(ValueError, match=r"stopping indices must be integers in \[0, 16\]"):
            stop_integral(phi, wiener, tau)

    def test_wrong_length_rejected(self, grid, wiener):
        phi = IntegrandProcess.constant(grid, np.eye(2))
        with pytest.raises(ValueError, match=rf"one stopping index per path, {wiener.n_paths} in all"):
            stop_integral(phi, wiener, np.array([4, 8]))

    def test_first_passage_three_way(self, grid):
        rng = np.random.default_rng(9)
        spec = NoiseSpec(2, 2, rng.standard_normal((2, 2)))
        ens = simulate(spec, grid, 1000, seed=10)
        tau = first_passage_time(ens, level=0.5 * qv_exact(spec, grid).total_mass)
        phi = IntegrandProcess.constant(grid, rng.standard_normal((3, 2)))
        res = stop_integral(phi, ens, tau)
        assert res.bit_identical

    def test_first_passage_rounds_up(self, grid):
        spec = NoiseSpec(1, 1, np.eye(1))
        ens = simulate(spec, grid, 2, seed=11)
        tau = first_passage_time(ens, level=0.5)
        # bracket is t exactly; first grid point with t > 0.5 is index 9
        np.testing.assert_array_equal(tau, [9, 9])
        never = first_passage_time(ens, level=5.0)
        np.testing.assert_array_equal(never, [16, 16])

    def test_decimal_levels_passed_one_point_late(self):
        # the bracket is t on k uniform cells: it reaches the level j/k at
        # point j, where the clock puts it, and passes it at j + 1.  A prefix
        # sum that rounds just past j/k used to count as passing it at j, on
        # 167 of these 1175 levels
        late = []
        for k in (10, 20, 50, 100, 1000):
            ens = simulate(NoiseSpec(1, 1, np.eye(1)), TimeGrid.uniform(1.0, k), 1, seed=0)
            late += [(k, j) for j in range(1, k) if first_passage_time(ens, j / k)[0] != j + 1]
        assert late == []

    @given(passage_cases())
    @settings(max_examples=80, deadline=None)
    def test_first_passage_is_one_past_the_clock(self, ens):
        clock = build_time_change(ens.bracket)
        k = ens.grid.n_cells
        prefix = ens.bracket.prefix()
        for p, row in enumerate(clock.s_points):
            for s, tau in zip(row, clock.tau_idx[p]):
                assert first_passage_time(ens, s)[p] == min(tau + 1, k)
        # between the clock's s-points: the clock's rule, last point at or
        # below the level up to SNAP_RTOL * max(total, 1), as its oracle in
        # test_timechange spells it
        decimals = np.arange(k + 1) / k * ens.grid.horizon
        for level in [*decimals, *prefix.ravel()]:
            got = first_passage_time(ens, level)
            for p, row in enumerate(prefix):
                below = np.searchsorted(row, level + SNAP_RTOL * max(row[-1], 1.0), side="right")
                assert got[p] == min(below, k)
        total = float(prefix[:, -1].max())
        for level in (-1.0, -1e-6):
            assert not first_passage_time(ens, level).any()
        for level in (total + 1e-6, 2.0 * total + 1.0):
            assert (first_passage_time(ens, level) == k).all()

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_first_passage_refuses_non_finite_level(self, wiener, level):
        # a NaN level used to read as never reached: K on every path
        with pytest.raises(ValueError, match="passage level must be finite"):
            first_passage_time(wiener, level)


class TestLocalProperty:
    """On paths where the integrand vanishes identically, so does the
    integral, exactly."""

    def test_zero_integrand(self, grid, wiener):
        phi = IntegrandProcess.constant(grid, np.zeros((2, 2)))
        assert not integrate(phi, wiener).values.any()

    def test_event_cut_integrand(self, grid, wiener):
        rng = np.random.default_rng(12)
        event = np.zeros(wiener.n_paths, bool)
        event[: wiener.n_paths // 2] = True
        mats = np.broadcast_to(
            rng.standard_normal((2, 2)), (wiener.n_paths, 16, 2, 2)
        ).copy()
        mats[event] = 0.0
        zeta = integrate(IntegrandProcess(grid, mats), wiener).values
        assert not zeta[event].any()
        assert zeta[~event].any()

    def test_wrong_path_count_is_named(self, grid, wiener):
        phi = IntegrandProcess(grid, np.zeros((wiener.n_paths - 1, 16, 2, 2)))
        with pytest.raises(ValueError, match="does not match path count"):
            integrate(phi, wiener)
