import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylmart.evolution as evolution
from cylmart.evolution import (
    PicardDiagnostics,
    PicardError,
    SEEProblem,
    Semigroup,
    _default_blocks,
    _eval_noise,
    _validate_constants,
    fixed_point_map,
    lipschitz_quotient,
    localization_consistency,
    mild_residual,
    picard_solve,
    rho_stopping_times,
    vp_norm,
)
from cylmart._util import cell_apply
from cylmart.integration import IntegrandProcess, first_passage_time, integrate
from cylmart.martingales import (
    BracketPaths,
    NoiseSpec,
    grid_stop_indices,
    simulate,
    stop_ensemble,
)
from cylmart.measures import TimeGrid

WIENER = NoiseSpec(1, 1, np.eye(1))


def zero_drift(t, x):
    return np.zeros_like(x)


def make_problem(generator=None, drift=None, lip_f=0.0, noise_map=None, lip_g=0.0,
                 u0=None, m=1):
    return SEEProblem(
        generator=generator,
        drift=drift or zero_drift,
        lip_drift=lip_f,
        growth_drift=lip_f if drift else 0.0,
        noise_map=noise_map or (lambda t, x: np.zeros((x.shape[0], m, 1))),
        lip_noise=lip_g,
        u0=np.zeros(m) if u0 is None else u0,
    )


class TestSemigroup:
    def test_time_zero_is_identity(self):
        a = np.array([[-1.0, 0.2], [0.2, -2.0]])
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(Semigroup(a, 2).apply(0.0, x), x, atol=1e-15)

    def test_scalar_decay(self):
        out = Semigroup(np.array([[-1.0]]), 1).apply(1.0, np.array([2.0]))
        assert out[0] == pytest.approx(2.0 * np.exp(-1.0))

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        a = -(a @ a.T)  # negative semidefinite
        sg = Semigroup(a, 4)
        x = rng.standard_normal(4)
        lhs = sg.apply(0.3, sg.apply(0.9, x))
        rhs = sg.apply(1.2, x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_contractive(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        a = -(a @ a.T)
        sg = Semigroup(a, 3)
        x = rng.standard_normal((50, 3))
        for t in (0.1, 1.0, 7.0):
            assert np.all(
                np.linalg.norm(sg.apply(t, x), axis=1)
                <= np.linalg.norm(x, axis=1) + 1e-12
            )

    def test_rejects_positive_eigenvalue(self):
        with pytest.raises(ValueError, match="positive eigenvalue"):
            Semigroup(np.array([[0.5]]), 1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Semigroup(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)


class TestProblemSemigroup:
    """A problem validates its generator once, when it is made."""

    @pytest.mark.parametrize(
        "generator, m, message",
        [
            pytest.param([[0.5]], 1, "positive eigenvalue", id="positive"),
            pytest.param([[0.0, 1.0], [0.0, 0.0]], 2, "symmetric", id="asymmetric"),
            pytest.param(
                [[-1.0]], 2, r"generator shape \(1, 1\) does not match dim 2", id="shape"
            ),
            pytest.param([[np.nan]], 1, "not all finite", id="nan"),
            pytest.param([[-1.0, 0.0], [0.0, np.inf]], 2, "not all finite", id="inf"),
            pytest.param([[-np.inf]], 1, "not all finite", id="minus-inf"),
        ],
    )
    def test_bad_generator_refused_at_construction(self, generator, m, message):
        with pytest.raises(ValueError, match=message):
            make_problem(generator=np.array(generator), m=m)

    def test_solves_reuse_the_problem_semigroup(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 8, seed=18)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: x[:, :, None],
            lip_g=1.0,
            u0=np.array([1.0]),
        )
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            u, _ = picard_solve(prob, ens)
            mild_residual(u, prob, ens)
        assert eigh.call_count == 0


class TestConvolutions:
    """From u0 = 0 with zero noise, fixed_point_map is the left-point
    deterministic convolution int_0^t exp((t-s)A) F(s, u(s)) ds; with zero
    drift, the stochastic one, int_0^t exp((t-s)A) G(s, u(s)) dM_s."""

    def test_zero_drift_gives_zero(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 3, seed=1)
        prob = make_problem()
        u = np.zeros((3, 17, 1))
        out = fixed_point_map(prob, ens, u)
        assert np.abs(out).max() == 0.0

    def test_constant_drift_no_generator(self):
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 1, seed=1)
        prob = make_problem(drift=lambda t, x: np.full_like(x, 2.0), lip_f=0.0)
        u = np.zeros((1, 65, 1))
        out = fixed_point_map(prob, ens, u)
        np.testing.assert_allclose(out[0, :, 0], 2.0 * grid.points, atol=1e-12)

    def test_constant_drift_with_decay(self):
        grid = TimeGrid.uniform(2.0, 512)
        ens = simulate(WIENER, grid, 1, seed=1)
        prob = make_problem(
            generator=np.array([[-1.0]]), drift=lambda t, x: np.ones_like(x)
        )
        u = np.zeros((1, 513, 1))
        out = fixed_point_map(prob, ens, u)
        target = 1.0 - np.exp(-grid.points)
        assert np.abs(out[0, :, 0] - target).max() <= 2.5 * grid.widths[0]

    def test_stochastic_zero_noise(self):
        # a zero noise map adds no stochastic convolution to the flow from
        # u0, whatever the driver and the input path: the map is exp(tA) u0
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 4, seed=1)
        a = np.array([[-1.0, 0.3], [0.3, -2.0]])
        prob = make_problem(generator=a, u0=np.array([1.0, -0.5]), m=2)
        out = fixed_point_map(prob, ens, np.ones((4, 17, 2)))
        flow = np.stack([prob.semigroup.flow(t, prob.initial_states(4)) for t in grid.points], 1)
        np.testing.assert_allclose(out, flow, rtol=0.0, atol=1e-14)

    def test_no_generator_matches_integrate_bitwise(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 32, seed=2)
        g_mat = np.array([[0.7]])
        prob = make_problem(noise_map=lambda t, x: np.broadcast_to(g_mat, (x.shape[0], 1, 1)))
        out = fixed_point_map(prob, ens, np.zeros((32, 17, 1)))
        ref = integrate(IntegrandProcess.constant(grid, g_mat), ens)
        np.testing.assert_array_equal(out, ref.values)

    @pytest.mark.parametrize("shape", [(4, 10, 1), (4, 17, 2), (4, 20, 1)])
    def test_wrong_path_shape_rejected(self, shape):
        # a 16-cell grid and a 1-dim problem: u must be (paths, 17, 1)
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 4, seed=1)
        prob = make_problem(drift=lambda t, x: x, lip_f=1.0, noise_map=lambda t, x: x[:, :, None])
        u = np.ones(shape)
        with pytest.raises(ValueError, match=r"u must have shape \(4, 17, 1\)"):
            fixed_point_map(prob, ens, u)

    def test_ou_variance(self):
        grid = TimeGrid.uniform(1.0, 256)
        ens = simulate(WIENER, grid, 10_000, seed=3)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
        )
        out = fixed_point_map(prob, ens, np.zeros((ens.n_paths, 257, 1)))
        var = out[:, -1, 0].var(ddof=1)
        target = (1 - np.exp(-2.0)) / 2
        se = var * np.sqrt(2 / (ens.n_paths - 1))
        assert abs(var - target) <= 3 * se + 2 * grid.widths[0]


class TestVpNorm:
    def test_zero(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 4, seed=4)
        assert vp_norm(np.zeros((4, 9, 1)), ens) == 0.0

    def test_constant_path_closed_form(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 4, seed=5)
        u = np.broadcast_to(np.array([3.0, 4.0]), (4, 17, 2)).copy()
        # unit-rate bracket: both summands are the Euclidean norm of x
        assert vp_norm(u, ens) == pytest.approx(10.0, rel=1e-12)

    def test_degree_one_homogeneity(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 6, seed=6)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((6, 9, 2))
        assert vp_norm(3.0 * u, ens) == pytest.approx(3.0 * vp_norm(u, ens), rel=1e-12)

    def test_window_restriction(self):
        # the window is the K cells of [0, T], read at their left endpoints:
        # the value at T lies outside it, and u = 1 on the first half of the
        # cells reads the half-horizon norm sqrt(1/2) in both summands
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 2, seed=8)
        u = np.zeros((2, 9, 1))
        u[:, 8] = 5.0
        assert vp_norm(u, ens) == 0.0
        u[:, :4] = 1.0
        assert vp_norm(u, ens) == pytest.approx(2.0 * np.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 8, 1), (3, 9, 1), (2, 9), (2, 10, 1)])
    def test_u_off_the_grid_refused(self, shape):
        ens = simulate(WIENER, TimeGrid.uniform(1.0, 8), 2, seed=12)
        with pytest.raises(ValueError, match="u must have shape"):
            vp_norm(np.ones(shape), ens)


class TestRhoStoppingTimes:
    def test_unit_rate_never_crosses(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 3, seed=9)
        rho = rho_stopping_times(ens.bracket, 2)
        assert np.isinf(rho).all()

    def test_double_rate_crosses_midblock(self):
        grid = TimeGrid.uniform(1.0, 32)
        spec = NoiseSpec(1, 1, np.array([[np.sqrt(2.0)]]))
        ens = simulate(spec, grid, 2, seed=10)
        rho = rho_stopping_times(ens.bracket, 1)
        # blocks [0, 1/2], [1/2, 1]; bracket rate 2 crosses cap T/2 near the
        # middle of each block, up to one grid cell
        assert abs(rho[0, 0] - 0.25) <= grid.widths[0] + 1e-12
        assert abs(rho[0, 1] - 0.75) <= grid.widths[0] + 1e-12

    @pytest.mark.parametrize("k", [196, 364, 372, 392, 396])
    def test_block_mass_at_the_cap_is_no_stop(self, k):
        # the bracket t puts exactly the cap T/4 in each block; its prefix
        # sums used to round one block's mass past the cap, a stop at the
        # block end (K = 364 gave [inf, inf, 0.75, inf])
        ens = simulate(WIENER, TimeGrid.uniform(1.0, k), 1, seed=0)
        assert np.isinf(rho_stopping_times(ens.bracket, 2)).all()

    def test_zero_bracket_all_infinite(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(NoiseSpec(1, 1, np.zeros((1, 1))), grid, 2, seed=11)
        assert np.isinf(rho_stopping_times(ens.bracket, 3)).all()

    def test_stopped_block_mass_bounded(self):
        def vol(t, w):
            return (1.0 + np.sin(4 * w[..., 0]) ** 2)[..., None, None]

        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(NoiseSpec(1, 1, vol), grid, 100, seed=12)
        n = 2
        rho = rho_stopping_times(ens.bracket, n)
        prefix = ens.bracket.prefix()
        cap = 1.0 / 2**n
        cell = ens.bracket.increments.max()
        for b in range(2**n):
            j0 = b * 16
            j1 = j0 + 16
            stop = np.minimum(rho[:, b], grid.points[j1])
            js = np.clip(np.searchsorted(grid.points, stop - 1e-12), j0, j1)
            mass = prefix[np.arange(100), js] - prefix[:, j0]
            assert mass.max() <= cap + cell + 1e-12

    def test_negative_level_rejected(self):
        ens = simulate(WIENER, TimeGrid.uniform(1.0, 8), 1, seed=13)
        with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
            rho_stopping_times(ens.bracket, -1)

    @pytest.mark.parametrize("n, shown", [(2.5, "2.5"), (2.0, "2.0"), (True, "True"), ("2", "'2'")])
    def test_non_integer_level_refused_by_name(self, n, shown):
        # a bool used to pass as 1 level (2 blocks), and a float raised a
        # bare TypeError from range; a non-integer is a TypeError, as for
        # every count refused through _util.int_error
        ens = simulate(WIENER, TimeGrid.uniform(1.0, 8), 1, seed=13)
        with pytest.raises(TypeError, match=rf"n must be an integer >= 0, got {shown}$"):
            rho_stopping_times(ens.bracket, n)

    def test_numpy_integer_level(self):
        ens = simulate(WIENER, TimeGrid.uniform(1.0, 8), 1, seed=13)
        np.testing.assert_array_equal(
            rho_stopping_times(ens.bracket, np.int64(2)), rho_stopping_times(ens.bracket, 2)
        )

    def test_unaligned_block_start_rejected(self):
        grid = TimeGrid(np.array([0.0, 0.3, 1.0]))
        ens = simulate(WIENER, grid, 1, seed=13)
        with pytest.raises(ValueError, match="not a grid point"):
            rho_stopping_times(ens.bracket, 1)


class TestPicard:
    def test_pure_flow_is_exact_fixed_point(self):
        grid = TimeGrid.uniform(1.0, 32)
        ens = simulate(WIENER, grid, 4, seed=14)
        a = np.array([[-1.0, 0.3], [0.3, -2.0]])
        prob = make_problem(generator=a, u0=np.array([1.0, -1.0]), m=2)
        u, diag = picard_solve(prob, ens, tol=1e-12)
        assert diag.distances[0][0] == 0.0  # already a fixed point
        sg = Semigroup(a, 2)
        exact = np.stack([sg.apply(t, prob.initial_states(4)) for t in grid.points], 1)
        assert np.abs(u - exact).max() <= 1e-12

    def test_linear_ode_oracle(self):
        grid = TimeGrid.uniform(1.0, 128)
        ens = simulate(WIENER, grid, 2, seed=15)
        prob = make_problem(drift=lambda t, x: -x, lip_f=1.0, u0=np.array([1.0]))
        u, diag = picard_solve(prob, ens, tol=1e-10)
        assert np.abs(u[:, :, 0] - np.exp(-grid.points)).max() <= 5.0 / 128
        assert all(d[-1] < 1e-10 for d in diag.distances)

    def test_additive_noise_two_step_convergence(self):
        grid = TimeGrid.uniform(1.0, 32)
        ens = simulate(WIENER, grid, 50, seed=16)
        prob = make_problem(
            noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)), u0=np.array([2.0])
        )
        u, diag = picard_solve(prob, ens, tol=1e-12)
        # constant-in-state map: the second iterate already repeats
        assert all(len(d) <= 2 for d in diag.distances)
        w = ens.m_evals[:, :, 0]
        np.testing.assert_allclose(u[:, :, 0], 2.0 + w, atol=1e-12)

    def test_declared_constant_violation_caught(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 2, seed=17)
        prob = make_problem(drift=lambda t, x: -x, lip_f=0.1, u0=np.array([1.0]))
        with pytest.raises(ValueError, match="drift Lipschitz"):
            picard_solve(prob, ens)

    def test_non_contracting_block_raises_with_advice(self):
        # a NaN distance is no convergence (NaN >= tol is False): a drift
        # that is NaN above 1.5 used to run all sweeps and return NaN.  The
        # first one-cell block measures its left point alone, u0; its right
        # point, NaN, is the second block's first sweep
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 16, seed=18)
        prob = make_problem(
            drift=lambda t, x: np.where(x > 1.5, np.nan, -x), lip_f=1.0, u0=np.array([2.0])
        )
        with pytest.raises(PicardError, match=r"block \[1, 2\) .* last distance nan") as err:
            picard_solve(prob, ens, validate=False)
        distances = err.value.diagnostics.distances
        assert np.array_equal(distances, [[0.0], [np.nan]], equal_nan=True)

    def test_uniqueness_across_initial_iterates(self):
        # the mild map iterated on the whole horizon from the zero path, K + 1
        # times (each application fixes one more point), reaches the solution
        # that the blockwise solve reaches from the flow
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 32, seed=19)
        prob = make_problem(
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: 0.5 * x[:, :, None],
            lip_g=0.5,
            u0=np.array([1.0]),
        )
        tol = 1e-10
        u1, _ = picard_solve(prob, ens, tol=tol)
        u2 = np.zeros((32, 65, 1))
        for _ in range(65):
            u2 = fixed_point_map(prob, ens, u2)
        assert vp_norm(u1 - u2, ens) <= 2 * tol

    def test_growth_bound(self):
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 64, seed=20)
        for scale in (0.5, 2.0, 8.0):
            prob = make_problem(
                drift=lambda t, x: -0.3 * x,
                lip_f=0.3,
                noise_map=lambda t, x: 0.4 * x[:, :, None],
                lip_g=0.4,
                u0=np.array([scale]),
            )
            u, _ = picard_solve(prob, ens, tol=1e-9)
            assert vp_norm(u, ens) <= 4.0 * (1.0 + scale)

    def test_peak_one_iterate_and_block_buffers(self):
        # the iterate is overwritten in place; next to it a call holds one
        # (paths, cells) buffer of squared changes per block (eight blocks here)
        n, k = 4000, 64
        grid = TimeGrid.uniform(1.0, k)
        ens = simulate(WIENER, grid, n, seed=25)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: 0.5 * x[:, :, None],
            lip_g=0.5,
            u0=np.array([1.0]),
        )
        u, diag = picard_solve(prob, ens, tol=1e-9)
        assert len(diag.blocks) == 8
        tracemalloc.start()
        try:
            picard_solve(prob, ens, tol=1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * u.nbytes

    def test_solution_is_a_view_of_the_time_major_iterate(self):
        grid = TimeGrid.uniform(1.0, 16)
        ens = simulate(WIENER, grid, 5, seed=30)
        prob = make_problem(generator=-np.eye(2), u0=np.array([1.0, -0.5]), m=2)
        u, _ = picard_solve(prob, ens)
        assert u.shape == (5, 17, 2)
        assert u.swapaxes(0, 1).flags.c_contiguous
        assert u.base is not None and u.base.shape == (17, 5, 2)


class TestSigmaDWUnformed:
    """The solvers form sigma dW a cell at a time, so an ensemble they read
    never forms and keeps its (paths, cells, d_cyl) ``driven`` array."""

    @staticmethod
    def problem():
        return make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: 0.5 * x[:, :, None],
            lip_g=0.5,
            u0=np.array([1.0]),
        )

    def test_solvers_leave_driven_unformed(self):
        grid = TimeGrid.uniform(1.0, 16)
        spec = NoiseSpec(1, 2, np.array([[1.0, 0.5]]))
        prob = self.problem()
        u = np.ones((5, 17, 1))
        uses = {
            "picard_solve": lambda ens: picard_solve(prob, ens),
            "fixed_point_map": lambda ens: fixed_point_map(prob, ens, u, i0=3, i1=11),
            "mild_residual": lambda ens: mild_residual(u, prob, ens),
        }
        for name, use in uses.items():
            ens = simulate(spec, grid, 5, seed=27)
            use(ens)
            assert "driven" not in vars(ens), name

    def test_peak_on_a_fresh_ensemble(self):
        # the first solve on an ensemble used to form sigma dW and keep it,
        # a second path array next to the iterate
        n, k = 4000, 64
        grid = TimeGrid.uniform(1.0, k)
        prob = self.problem()
        picard_solve(prob, simulate(WIENER, grid, 8, seed=28), tol=1e-9)  # first-call set-up
        ens = simulate(WIENER, grid, n, seed=25)
        tracemalloc.start()
        try:
            u, _ = picard_solve(prob, ens, tol=1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * u.nbytes


def _untouchable(t, x):
    raise AssertionError("picard_solve evaluated the drift of a rejected call")


class TestPicardInputs:
    """Bad arguments raise a named ValueError before any work is done."""

    @staticmethod
    def solve(**kwargs):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 2, seed=26)
        prob = make_problem(drift=_untouchable, lip_f=1.0, u0=np.array([1.0]))
        return picard_solve(prob, ens, **kwargs)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-8, np.inf])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            self.solve(tol=tol)


class TestMildResidual:
    def test_converged_solution_satisfies_identity(self):
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 64, seed=21)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.2 * x,
            lip_f=0.2,
            noise_map=lambda t, x: 0.3 * x[:, :, None],
            lip_g=0.3,
            u0=np.array([1.0]),
        )
        tol = 1e-9
        u, diag = picard_solve(prob, ens, tol=tol)
        res = mild_residual(u, prob, ens)
        assert res.max <= 100 * tol

    def test_perturbation_grows_residual(self):
        grid = TimeGrid.uniform(1.0, 32)
        ens = simulate(WIENER, grid, 16, seed=22)
        prob = make_problem(
            drift=lambda t, x: -0.2 * x, lip_f=0.2, u0=np.array([1.0])
        )
        u, _ = picard_solve(prob, ens, tol=1e-10)
        delta = 1e-3
        bumped = u + delta
        res = mild_residual(bumped, prob, ens)
        assert res.max == pytest.approx(delta, rel=0.5)

    def test_zero_problem(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 4, seed=23)
        prob = make_problem()
        u = np.zeros((4, 9, 1))
        assert mild_residual(u, prob, ens).max == 0.0

    @pytest.mark.parametrize("shape", [(4, 12, 1), (4, 5, 1), (3, 9, 1), (4, 9, 2)])
    def test_wrong_shape_rejected(self, shape):
        # a longer u is not compared on its first K + 1 points alone
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 4, seed=23)
        prob = make_problem()
        with pytest.raises(ValueError, match=r"u must have shape \(4, 9, 1\)"):
            mild_residual(np.zeros(shape), prob, ens)
        with pytest.raises(ValueError, match=r"u must have shape \(4, 9, 1\)"):
            fixed_point_map(prob, ens, np.zeros(shape))

    def test_peak_below_three_path_arrays(self):
        # the gap is streamed a grid point at a time: a call holds rows of
        # (paths, m) and per-path maxima, no path array
        n, k = 2000, 64
        grid = TimeGrid.uniform(1.0, k)
        ens = simulate(WIENER, grid, n, seed=24)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.2 * x,
            lip_f=0.2,
            noise_map=lambda t, x: 0.3 * x[:, :, None],
            lip_g=0.3,
            u0=np.array([1.0]),
        )
        u = np.ones((n, k + 1, 1))
        mild_residual(u, prob, ens)
        tracemalloc.start()
        try:
            mild_residual(u, prob, ens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * u.nbytes


class TestContractionScaling:
    def test_quotient_scales_like_sqrt_block(self):
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 2000, seed=24)
        prob = make_problem(
            noise_map=lambda t, x: x[:, :, None], lip_g=1.0, u0=np.array([1.0])
        )
        lengths, quotients = [], []
        for frac in (1, 2, 4):
            i1 = 64 // frac
            ua = np.zeros((2000, 65, 1))
            ub = np.ones((2000, 65, 1))
            quotients.append(lipschitz_quotient(prob, ens, ua, ub, i0=0, i1=i1))
            lengths.append(grid.points[i1])
        slope = np.polyfit(np.log(lengths), np.log(quotients), 1)[0]
        assert 0.35 <= slope <= 0.65


class TestLocalization:
    def _problem(self):
        return make_problem(
            generator=np.array([[-0.5]]),
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
            u0=np.array([0.3]),
        )

    def test_wrong_length_stop_rejected(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 5, seed=25)
        with pytest.raises(ValueError, match=r"one stopping index per path, 5 in all"):
            localization_consistency(
                self._problem(), ens, tau_idx=np.array([0, 8]), tol=1e-10
            )

    def test_full_horizon_stop_is_identity(self):
        grid = TimeGrid.uniform(1.0, 32)
        ens = simulate(WIENER, grid, 16, seed=25)
        rep = localization_consistency(
            self._problem(), ens, tau_idx=np.full(16, 32), tol=1e-10
        )
        assert rep.max_stop_gap() == 0.0

    def test_out_of_range_stop_rejected(self):
        grid = TimeGrid.uniform(1.0, 8)
        ens = simulate(WIENER, grid, 4, seed=25)
        for bad in (-1, 9):
            with pytest.raises(ValueError, match=r"stopping indices must be integers in \[0, 8\]"):
                localization_consistency(
                    self._problem(), ens, tau_idx=np.array([0, 8, bad, 3]), tol=1e-10
                )

    def test_first_passage_stop(self):
        def vol(t, w):
            return (0.8 + 0.4 * np.tanh(w[..., 0]) ** 2)[..., None, None]

        grid = TimeGrid.uniform(1.0, 64)
        spec = NoiseSpec(1, 1, vol)
        ens = simulate(spec, grid, 64, seed=26)
        tau = first_passage_time(ens, 0.5)
        tol = 1e-9
        rep = localization_consistency(self._problem(), ens, tau_idx=tau, tol=tol)
        assert rep.max_stop_gap() <= 2 * tol + 5.0 / 64

    def test_agreeing_initial_values(self):
        grid = TimeGrid.uniform(1.0, 32)
        ens = simulate(WIENER, grid, 32, seed=27)
        prob = self._problem()
        alt = np.full((32, 1), 0.3)
        agree = np.arange(32) % 2 == 0
        alt[~agree] = 5.0
        tol = 1e-10
        rep = localization_consistency(
            prob, ens, u0_alt=alt, agree_mask=agree, tol=tol
        )
        assert rep.max_event_gap() <= 2 * tol


# Reference copies of the semigroup and the four recursions that ``_scan``
# replaced, kept verbatim: the scan must reproduce them bit for bit.
class ReferenceSemigroup(Semigroup):
    def matrix(self, t):
        if self.identity:
            return np.eye(self.dim)
        return (self.vecs * np.exp(t * self.vals)) @ self.vecs.T

    def apply(self, t, x):
        if self.identity or t == 0.0:
            return x if self.identity else x @ self.matrix(0.0).T
        return x @ self.matrix(t).T


def reference_det_convolution(problem, grid, u):
    sg = ReferenceSemigroup(problem.generator, problem.dim)
    n, kp1, m = u.shape
    out = np.zeros_like(u)
    acc = np.zeros((n, m))
    for j in range(kp1 - 1):
        inc = np.asarray(problem.drift(grid.points[j], u[:, j, :]), dtype=float)
        acc = sg.apply(grid.widths[j], acc + inc * grid.widths[j])
        out[:, j + 1, :] = acc
    return out


def reference_stoch_convolution(problem, ens, u):
    grid = ens.grid
    driven = ens.driven_increments()  # (n, K, dc)
    n, kp1, m = u.shape
    out = np.zeros_like(u)
    if problem.generator is None:
        inc = np.empty((n, kp1 - 1, m))
        for j in range(kp1 - 1):
            g = _eval_noise(problem, grid.points[j], u[:, j, :])
            inc[:, j, :] = np.einsum("nmc,nc->nm", g, driven[:, j, :])
        np.cumsum(inc, axis=1, out=out[:, 1:, :])
        return out
    sg = ReferenceSemigroup(problem.generator, m)
    acc = np.zeros((n, m))
    for j in range(kp1 - 1):
        g = _eval_noise(problem, grid.points[j], u[:, j, :])
        acc = sg.apply(grid.widths[j], acc + np.einsum("nmc,nc->nm", g, driven[:, j, :]))
        out[:, j + 1, :] = acc
    return out


def drift_alone(problem, ens):
    """``problem`` from u0 = 0 with zero noise: its mild map is the
    deterministic convolution."""
    dim, d_cyl = problem.dim, ens.spec.d_cyl
    return dataclasses.replace(
        problem, noise_map=lambda t, x: np.zeros((x.shape[0], dim, d_cyl)), u0=np.zeros(dim)
    )


def noise_alone(problem):
    """``problem`` from u0 = 0 with zero drift: its mild map is the
    stochastic convolution."""
    return dataclasses.replace(problem, drift=zero_drift, u0=np.zeros(problem.dim))


def reference_fixed_point_map(problem, ens, u, i0=0, i1=None, base=None):
    grid = ens.grid
    driven = ens.driven_increments()
    n, kp1, m = u.shape
    if i1 is None:
        i1 = kp1 - 1
    if base is None:
        base = problem.initial_states(n)
    sg = ReferenceSemigroup(problem.generator, m)
    out = u.copy()
    acc = base.copy()
    out[:, i0, :] = acc
    for j in range(i0, i1):
        t = grid.points[j]
        inc = np.asarray(problem.drift(t, u[:, j, :]), dtype=float) * grid.widths[j]
        g = _eval_noise(problem, t, u[:, j, :])
        inc = inc + np.einsum("nmc,nc->nm", g, driven[:, j, :])
        acc = sg.apply(grid.widths[j], acc + inc)
        out[:, j + 1, :] = acc
    return out


def reference_initial_flow(problem, ens):
    grid = ens.grid
    n, m = ens.n_paths, problem.dim
    sg = ReferenceSemigroup(problem.generator, m)
    base = problem.initial_states(n)
    u = np.zeros((n, grid.n_cells + 1, m))
    u[:, 0, :] = base
    for j in range(grid.n_cells):
        u[:, j + 1, :] = sg.apply(grid.widths[j], u[:, j, :])
    return u


@st.composite
def scan_cases(draw, max_paths=4):
    """A problem with nonlinear drift and noise, an ensemble and a probe u.

    Covers m in {1, 2, 3}, d_cyl in {1, 2}, uniform and non-uniform grids,
    no generator and a random negative-semidefinite one, state-dependent and
    constant (broadcast) noise maps, shared and per-path initial values.
    """
    m = draw(st.integers(1, 3))
    d_cyl = draw(st.integers(1, 2))
    d_drive = draw(st.integers(1, 2))
    k = draw(st.integers(1, 2 * evolution.SCAN_TILE + 3))  # crosses two tile edges
    # n = 1: u's one-point slices, and its transpose, are contiguous views
    n = draw(st.integers(1, max_paths))
    uniform = draw(st.booleans())
    with_generator = draw(st.booleans())
    constant_noise = draw(st.booleans())
    per_path_u0 = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    if uniform:
        grid = TimeGrid.uniform(float(rng.uniform(0.5, 2.0)), k)
    else:
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, k))]))
    generator = None
    if with_generator:
        a = rng.standard_normal((m, m))
        generator = -(a @ a.T)
    f_mat = rng.standard_normal((m, m))
    f_off = rng.standard_normal(m)
    g_mat = rng.standard_normal((m, d_cyl))

    def drift(t, x):
        return np.sin(x) @ f_mat.T + t * f_off

    def noise(t, x):
        if constant_noise:
            return g_mat
        return np.cos(x + t)[:, :, None] * g_mat

    spec = NoiseSpec(d_cyl, d_drive, rng.standard_normal((d_cyl, d_drive)))
    u0 = rng.standard_normal((n, m) if per_path_u0 else m)
    problem = SEEProblem(
        generator=generator,
        drift=drift,
        lip_drift=1.0,
        growth_drift=1.0,
        noise_map=noise,
        lip_noise=1.0,
        u0=u0,
    )
    ens = simulate(spec, grid, n, seed=int(rng.integers(0, 1000)))
    u = rng.standard_normal((n, k + 1, m))
    return problem, ens, u, rng


class TestScanOracle:
    """The one scan against the four recursions it replaced, bit for bit."""

    @given(scan_cases(), st.sampled_from([1, 2, 3, evolution.SCAN_TILE]))
    @settings(max_examples=60, deadline=None)
    def test_convolutions(self, case, tile):
        problem, ens, u, _ = case
        with mock.patch.object(evolution, "SCAN_TILE", tile):
            det = fixed_point_map(drift_alone(problem, ens), ens, u)
            stoch = fixed_point_map(noise_alone(problem), ens, u)
        np.testing.assert_array_equal(det, reference_det_convolution(problem, ens.grid, u))
        np.testing.assert_array_equal(stoch, reference_stoch_convolution(problem, ens, u))

    @given(scan_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fixed_point_map_windows(self, case, data):
        # a scan tiles its window from the window's first point: windows of
        # every start and length, with tiles of 1 to SCAN_TILE points, cross
        # tile edges and mostly end inside a tile
        problem, ens, u, rng = case
        k = ens.grid.n_cells
        tile = data.draw(st.sampled_from([1, 2, 3, evolution.SCAN_TILE]))
        i0 = data.draw(st.integers(0, k - 1))
        i1 = data.draw(st.integers(i0 + 1, k))
        base = rng.standard_normal((ens.n_paths, problem.dim))
        with mock.patch.object(evolution, "SCAN_TILE", tile):
            window = fixed_point_map(problem, ens, u, i0=i0, i1=i1, base=base)
            whole = fixed_point_map(problem, ens, u)
        np.testing.assert_array_equal(
            window, reference_fixed_point_map(problem, ens, u, i0=i0, i1=i1, base=base)
        )
        np.testing.assert_array_equal(whole, reference_fixed_point_map(problem, ens, u))

    @given(scan_cases())
    @settings(max_examples=40, deadline=None)
    def test_picard_initial_iterate(self, case):
        # the first application of the mild map is handed the initial iterate
        problem, ens, _, _ = case
        seen = []

        class Stop(Exception):
            pass

        def first_call(problem, ens, u, *args):
            seen.append(u.swapaxes(0, 1).copy())  # the iterate is time-major
            raise Stop

        with mock.patch.object(evolution, "_mild_map", first_call):
            with pytest.raises(Stop):
                picard_solve(problem, ens, validate=False)
        np.testing.assert_array_equal(seen[0], reference_initial_flow(problem, ens))

    @given(scan_cases(max_paths=1000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_noise_tile_is_the_driven_cell(self, case, data):
        # sigma_j dW_j read from the time-major dW tile is cell j of
        # ens.driven, for shared and per-path sigma, from any first cell and
        # then in any order, backwards included
        problem, ens, u, rng = case
        ens = _maybe_stopped(ens, rng, data.draw(st.booleans()))  # per-path sigma
        k = ens.grid.n_cells
        i0 = data.draw(st.integers(0, k - 1))
        revisits = data.draw(st.lists(st.integers(0, k - 1), max_size=k))
        tile = data.draw(st.sampled_from([1, 2, 3, evolution.SCAN_TILE]))
        with mock.patch.object(evolution, "SCAN_TILE", tile):
            step = evolution._noise_step(problem, ens)
        for j in [*range(i0, k), *revisits]:
            x = np.ascontiguousarray(u[:, j])
            g = _eval_noise(problem, ens.grid.points[j], x)
            want = cell_apply(g, ens.driven_increments()[:, j])
            np.testing.assert_array_equal(step(j, x), want)


# vp_norm, picard_solve, lipschitz_quotient and mild_residual as they were
# when every distance and gap was formed on the whole path array, kept
# verbatim; they run on ensembles whose bracket is stored per path.
def reference_vp_norm(u, ens, a=0.0, b=None, p=2.0, i0=None, i1=None):
    grid = ens.grid
    if i0 is None:
        i0 = int(np.searchsorted(grid.points, a - 1e-12 * max(grid.horizon, 1.0)))
    if i1 is None:
        i1 = grid.n_cells if b is None else int(
            np.searchsorted(grid.points, b - 1e-12 * max(grid.horizon, 1.0))
        )
    sq = np.sum(u[:, i0:i1, :] ** 2, axis=2)  # (n, cells)
    l2 = np.sqrt(sq @ grid.widths[i0:i1])
    gam = np.sqrt(np.sum(sq * ens.bracket.increments[:, i0:i1], axis=1))
    return float(np.mean(l2**p) ** (1.0 / p) + np.mean(gam**p) ** (1.0 / p))


def reference_picard_solve(
    problem, ens, p=2.0, tol=1e-8, max_iter=60, blocks=None, validate=True, initial=None
):
    if validate:
        _validate_constants(problem, ens)
    if blocks is None:
        blocks = _default_blocks(problem, ens)
    diag = PicardDiagnostics(blocks=list(blocks))

    base = problem.initial_states(ens.n_paths)
    if initial is None:
        u = reference_initial_flow(problem, ens)
    else:
        u = initial.copy()
        u[:, 0, :] = base

    prefix = ens.bracket.prefix()
    for i0, i1 in blocks:
        diag.block_mass.append(float((prefix[:, i1] - prefix[:, i0]).max()))
        block_base = u[:, i0, :].copy()
        dists = []
        ratio = np.nan
        for it in range(max_iter):
            u_next = fixed_point_map(problem, ens, u, i0=i0, i1=i1, base=block_base)
            dist = reference_vp_norm(u_next - u, ens, p=p, i0=i0, i1=i1)
            dists.append(dist)
            if len(dists) >= 2 and dists[-2] > 0:
                ratio = dists[-1] / dists[-2]
            u = u_next
            if dist < tol:
                break
        diag.distances.append(dists)
        diag.contractions.append(ratio)
        if dists[-1] >= tol:
            raise PicardError(
                "block did not contract below tol; halve the block length "
                f"(measured contraction {ratio:.3g})",
                diag,
            )
    return u, diag


def reference_lipschitz_quotient(problem, ens, u_a, u_b, p=2.0, i0=0, i1=None):
    if i1 is None:
        i1 = ens.grid.n_cells
    base = problem.initial_states(ens.n_paths)
    fa = fixed_point_map(problem, ens, u_a, i0=i0, i1=i1, base=base)
    fb = fixed_point_map(problem, ens, u_b, i0=i0, i1=i1, base=base)
    num = reference_vp_norm(fa - fb, ens, p=p, i0=i0, i1=i1)
    den = reference_vp_norm(u_a - u_b, ens, p=p, i0=i0, i1=i1)
    return num / den if den > 0 else np.nan


def reference_mild_residual(u, problem, ens):
    grid = ens.grid
    n = ens.n_paths
    sg = Semigroup(problem.generator, problem.dim)
    base = problem.initial_states(n)
    rhs = np.empty_like(u)
    rhs[:, 0, :] = base
    for j in range(grid.n_cells):
        rhs[:, j + 1, :] = sg.apply(grid.points[j + 1], base)
    rhs += reference_det_convolution(problem, grid, u)
    rhs += reference_stoch_convolution(problem, ens, u)
    rhs[:, 0, :] = base
    gaps = np.linalg.norm(u - rhs, axis=2).max(axis=1)
    return gaps


def materialized(ens):
    """The ensemble with its bracket stored per path, as it used to be."""
    bracket = BracketPaths(ens.grid, np.array(ens.bracket.increments))
    return dataclasses.replace(ens, bracket=bracket)


def _picard_outcome(solve, *args, **kwargs):
    try:
        u, diag = solve(*args, **kwargs)
    except PicardError as exc:
        u, diag = str(exc), exc.diagnostics
    return u, diag


def assert_same_diagnostics(got, want):
    assert got.blocks == want.blocks
    assert len(got.distances) == len(want.distances)
    for a, b in zip(got.distances, want.distances):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(got.contractions, want.contractions, equal_nan=True)
    assert got.block_mass == want.block_mass


def _maybe_stopped(ens, rng, stop):
    """Optionally stop the ensemble at random times: a per-path bracket."""
    return stop_ensemble(ens, rng.integers(0, ens.grid.n_cells + 1, ens.n_paths)) if stop else ens


class TestWindowOracle:
    """Distances on the block window and in-place gaps, bit for bit."""

    @given(scan_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_vp_norm(self, case, data):
        problem, ens, u, rng = case
        ens = _maybe_stopped(ens, rng, data.draw(st.booleans()))
        assert vp_norm(u, ens) == reference_vp_norm(u, materialized(ens))

    @given(scan_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_picard_solve(self, case, data):
        problem, ens, _, rng = case
        ens = _maybe_stopped(ens, rng, data.draw(st.booleans()))
        kwargs = dict(tol=data.draw(st.sampled_from([1e-8, 1e-300])), validate=False)
        # a block's squared changes reach its buffer a tile of cells at a
        # time: small tiles put the tile edges inside these short grids
        tile = data.draw(st.sampled_from([1, 2, 3, evolution.SCAN_TILE]))
        with mock.patch.object(evolution, "SCAN_TILE", tile):
            got_u, got = _picard_outcome(picard_solve, problem, ens, **kwargs)
        want_u, want = _picard_outcome(reference_picard_solve, problem, materialized(ens), **kwargs)
        # the refusals' wording changed; whether and where they refuse did not
        assert isinstance(got_u, str) == isinstance(want_u, str)
        assert isinstance(want_u, str) or np.array_equal(got_u, want_u)
        assert_same_diagnostics(got, want)

    @given(scan_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_quotient_and_mild_residual(self, case, data):
        problem, ens, u, rng = case
        ens = _maybe_stopped(ens, rng, data.draw(st.booleans()))
        k = ens.grid.n_cells
        i0 = data.draw(st.integers(0, k - 1))
        i1 = data.draw(st.integers(i0 + 1, k))
        u_b = u + rng.standard_normal(u.shape)
        ref = materialized(ens)
        got = lipschitz_quotient(problem, ens, u, u_b, i0=i0, i1=i1)
        want = reference_lipschitz_quotient(problem, ref, u, u_b, i0=i0, i1=i1)
        assert np.array_equal(got, want, equal_nan=True)
        if data.draw(st.booleans()):
            u[rng.integers(0, u.shape[0]), rng.integers(0, k + 1), 0] = np.nan
        got = mild_residual(u, problem, ens).sup_gaps
        assert np.array_equal(got, reference_mild_residual(u, problem, ref), equal_nan=True)


def time_major(u):
    """The values of ``u`` as a (paths, K+1, dim) view of a time-major array,
    the layout of ``picard_solve``'s solutions."""
    return u.swapaxes(0, 1).copy().swapaxes(0, 1)


class TestLayout:
    """The solver functions read any layout of u in the same bits, and never
    write the caller's u."""

    @given(scan_cases(max_paths=64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_bits_for_either_layout(self, case, data):
        # a time-major u sent vp_norm's squares, and the gap of
        # _window_distance, into a transposed sum and matmul in other bits;
        # as such bits often round away in a norm, every window is read
        problem, ens, u, rng = case
        ens = _maybe_stopped(ens, rng, data.draw(st.booleans()))
        k = ens.grid.n_cells
        assert vp_norm(time_major(u), ens) == vp_norm(u, ens)
        u_b = u + rng.standard_normal(u.shape)
        i0 = data.draw(st.integers(0, k - 1))
        for i1 in range(i0 + 1, k + 1):
            got = lipschitz_quotient(problem, ens, time_major(u), time_major(u_b), i0=i0, i1=i1)
            want = lipschitz_quotient(problem, ens, u, u_b, i0=i0, i1=i1)
            assert np.array_equal(got, want, equal_nan=True)
        got = mild_residual(time_major(u), problem, ens).sup_gaps
        assert np.array_equal(got, mild_residual(u, problem, ens).sup_gaps, equal_nan=True)

    @given(scan_cases(max_paths=64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_localization_reads_solutions_in_either_layout(self, case, data):
        problem, ens, _, rng = case
        n, k, m = ens.n_paths, ens.grid.n_cells, problem.dim
        kwargs = dict(
            tol=1e-3,
            tau_idx=rng.integers(0, k + 1, n),
            u0_alt=rng.standard_normal((n, m)),
            agree_mask=rng.uniform(size=n) < 0.5,
        )
        solve = evolution.picard_solve

        def c_ordered(*args, **kw):
            u, diag = solve(*args, **kw)
            return np.ascontiguousarray(u), diag

        got = _outcome(localization_consistency, problem, ens, **kwargs)
        with mock.patch.object(evolution, "picard_solve", c_ordered):
            want = _outcome(localization_consistency, problem, ens, **kwargs)
        if isinstance(want, tuple):
            assert got == want
            return
        assert np.array_equal(got.stop_gaps, want.stop_gaps, equal_nan=True)
        assert np.array_equal(got.event_gaps, want.event_gaps, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("layout", ["path-major", "time-major"])
    def test_callers_u_never_written(self, n, layout):
        # at n = 1 the transpose of u is contiguous, so an
        # np.ascontiguousarray of it would be u itself
        k = 2 * evolution.SCAN_TILE + 1
        ens = simulate(NoiseSpec(1, 2, np.array([[1.0, 0.5]])), TimeGrid.uniform(1.0, k), n, seed=29)
        prob = TestSigmaDWUnformed.problem()
        u = np.random.default_rng(n).standard_normal((n, k + 1, 1))
        if layout == "time-major":
            u = time_major(u)
        kept = u.copy()
        outputs = [
            fixed_point_map(prob, ens, u),
            fixed_point_map(prob, ens, u, i0=2, i1=k - 1),
        ]
        assert u.tobytes() == kept.tobytes()
        for out in outputs:
            assert not np.shares_memory(out, u)
            assert out.flags.c_contiguous


class TestSemigroupCache:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_cached_matrix_is_uncached_formula_and_read_only(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        sg = Semigroup(-(a @ a.T), m)
        ref = ReferenceSemigroup(-(a @ a.T), m)
        for t in (0.0, 0.125, 1.0 / 3.0, 2.5):
            mat = sg.matrix(t)
            np.testing.assert_array_equal(mat, ref.matrix(t))
            assert sg.matrix(t) is mat
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0
            x = rng.standard_normal((3, m))
            np.testing.assert_array_equal(sg.apply(t, x), ref.apply(t, x))
            np.testing.assert_array_equal(sg.flow(t, x), ref.apply(t, x))

    @pytest.mark.parametrize("n", [1, 12, 10_000])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0, 800.0])
    def test_one_dim_multiply_is_the_matmul(self, n, rate):
        # bit for bit, signed zeros and NaN signs too (assert_array_equal
        # takes -0.0 == +0.0): the 1 x 1 matmul turns -0.0 into +0.0, and at
        # rate 800 and t = 2.5 exp(tA) underflows to 0, so inf rows become NaN
        rows = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25, 5e-324, -5e-324, 1e308]
        x = np.resize(np.array(rows), n)[:, None]
        sg = Semigroup(np.array([[-rate]]), 1)
        ref = ReferenceSemigroup(np.array([[-rate]]), 1)
        for t in (0.0, 0.125, 1.0 / 3.0, 2.5):
            with np.errstate(all="ignore"):
                want = ref.apply(t, x)
                got = (sg.apply(t, x), sg.flow(t, x))
            for value in got:
                np.testing.assert_array_equal(value, want)
                np.testing.assert_array_equal(np.signbit(value), np.signbit(want))

    def test_identity_matrix_read_only(self):
        sg = Semigroup(None, 3)
        np.testing.assert_array_equal(sg.matrix(0.5), np.eye(3))
        assert not sg.matrix(0.5).flags.writeable

    def test_mild_residual_does_not_grow_the_cache(self):
        grid = TimeGrid.uniform(1.0, 64)
        ens = simulate(WIENER, grid, 4, seed=19)
        prob = make_problem(
            generator=np.array([[-1.0]]),
            drift=lambda t, x: -0.5 * x,
            lip_f=0.5,
            noise_map=lambda t, x: x[:, :, None],
            lip_g=1.0,
            u0=np.array([1.0]),
        )
        u, _ = picard_solve(prob, ens)
        cached = set(prob.semigroup._matrices)
        assert cached == set(grid.widths.tolist())
        for _ in range(3):
            mild_residual(u, prob, ens)
        assert set(prob.semigroup._matrices) == cached


# rho_stopping_times and localization_consistency as they were when the
# horizon and the noise spec were stated twice, kept verbatim; only the two
# SEEProblem fields that no longer exist (noise, horizon) are dropped from the
# copy of the alternative problem, and the V-norm exponent p, which
# picard_solve no longer takes, from the solves.  The old rho copy is called with the
# horizon of the bracket's grid, the value the new one reads.
def old_rho_stopping_times(bracket, horizon, n):
    grid = bracket.grid
    prefix = bracket.prefix()
    n_blocks = 2**n
    cap = horizon / n_blocks
    snap = 1e-9 * max(horizon, 1.0)
    out = np.full((prefix.shape[0], n_blocks), np.inf)
    for k in range(n_blocks):
        start = k * cap
        j0 = int(np.searchsorted(grid.points, start - snap))
        if abs(grid.points[j0] - start) > snap:
            raise ValueError(f"block start {start} is not a grid point")
        j1 = int(np.searchsorted(grid.points, start + cap - snap))
        excess = prefix[:, j0 + 1 : j1 + 1] - prefix[:, [j0]] > cap
        hit = excess.any(axis=1)
        first = np.argmax(excess, axis=1) + j0 + 1
        out[hit, k] = grid.points[first[hit]]
    return out


def old_localization_consistency(
    problem, ens, tau_idx=None, u0_alt=None, agree_mask=None, tol=1e-8
):
    u_full, _ = picard_solve(problem, ens, tol=tol, validate=False)
    stop_gaps = None
    event_gaps = None
    if tau_idx is not None:
        tau_idx = grid_stop_indices(tau_idx, ens.n_paths, ens.grid.n_cells)
        stopped = stop_ensemble(ens, tau_idx)
        u_stop, _ = picard_solve(problem, stopped, tol=tol, validate=False)
        diffs = np.linalg.norm(u_full - u_stop, axis=2)  # (n, K+1)
        mask = np.arange(ens.grid.n_cells + 1)[None, :] <= tau_idx[:, None]
        stop_gaps = np.where(mask, diffs, 0.0).max(axis=1)
    if u0_alt is not None:
        if agree_mask is None:
            raise ValueError("u0_alt needs the mask of agreeing paths")
        alt = SEEProblem(
            generator=problem.generator,
            drift=problem.drift,
            lip_drift=problem.lip_drift,
            growth_drift=problem.growth_drift,
            noise_map=problem.noise_map,
            lip_noise=problem.lip_noise,
            u0=u0_alt,
        )
        u_alt, _ = picard_solve(alt, ens, tol=tol, validate=False)
        diffs = np.linalg.norm(u_full - u_alt, axis=2).max(axis=1)
        event_gaps = diffs[np.asarray(agree_mask, dtype=bool)]
    return stop_gaps, event_gaps


@st.composite
def dyadic_brackets(draw):
    """(bracket, n): per-path brackets with plateaus on uniform grids,
    non-uniform grids whose dyadic block starts are grid points, and
    non-uniform grids whose block starts mostly are not."""
    n = draw(st.integers(0, 3))
    per_block = draw(st.integers(1, 4))
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    layout = draw(st.sampled_from(["uniform", "aligned", "free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = 2**n * per_block
    if layout == "uniform":
        grid = TimeGrid.uniform(horizon, k)
    elif layout == "aligned":
        cap = horizon / 2**n
        inner = [b * cap + np.sort(rng.uniform(0.0, cap, per_block - 1)) for b in range(2**n)]
        starts = [b * cap for b in range(2**n)]
        pts = np.concatenate([np.r_[s, x] for s, x in zip(starts, inner)] + [[horizon]])
        grid = TimeGrid(pts)
    else:
        grid = TimeGrid(np.r_[0.0, np.cumsum(rng.uniform(0.01, 1.0, k))])
    paths = draw(st.integers(1, 4))
    plateau = draw(st.sampled_from([0.0, 0.5]))
    rates = rng.uniform(0.0, 3.0, (paths, k)) * (rng.uniform(size=(paths, k)) >= plateau)
    return BracketPaths(grid, rates * grid.widths), n


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, PicardError) as exc:
        return type(exc), str(exc)


class TestRestatedInputsOracle:
    """The grid's horizon and the ensemble's driver, read once, bit for bit."""

    @given(dyadic_brackets())
    @settings(max_examples=150, deadline=None)
    def test_rho_stopping_times(self, case):
        bracket, n = case
        new = _outcome(rho_stopping_times, bracket, n)
        old = _outcome(old_rho_stopping_times, bracket, bracket.grid.horizon, n)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert np.array_equal(new, old)

    @given(scan_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_localization_consistency(self, case, data):
        problem, ens, _, rng = case
        n, k, m = ens.n_paths, ens.grid.n_cells, problem.dim
        kwargs = dict(tol=data.draw(st.sampled_from([1e-8, 1e-3])))
        if data.draw(st.booleans()):
            kwargs["tau_idx"] = rng.integers(0, k + 1, n)
        if data.draw(st.booleans()):
            kwargs["u0_alt"] = rng.standard_normal((n, m))
            kwargs["agree_mask"] = rng.uniform(size=n) < 0.5
        new = _outcome(localization_consistency, problem, ens, **kwargs)
        old = _outcome(old_localization_consistency, problem, ens, **kwargs)
        if isinstance(old, tuple) and isinstance(old[0], type):
            assert new == old
            return
        for got, want in zip((new.stop_gaps, new.event_gaps), old):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want, equal_nan=True)
