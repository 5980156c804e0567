"""One spelling per path kernel: each shared helper against verbatim copies
of the hand-written spellings it replaced, bit for bit.

The references below are the code as it stood before ``prefix_sums``,
``cell_apply``, ``integral_steps`` and ``operator_rate`` took over.
Cases cover shared, per-cell, adapted and stopped (per-path) sigma,
constant, per-cell and per-path phi, non-uniform grids, and C- and
F-ordered Q and phi.  ``cell_apply`` is also checked against itself: its
bits must not depend on how its operands are batched.

``operator_rate`` is two matmuls since determinism version 4, and its
references are the einsum spelling it replaced, so its readers are compared
at a stated tolerance (``assert_close``), not bit for bit.  Since version 5
``integrate`` forms (phi sigma) dW, one product through the driver, and its
reference is the two-step phi (sigma dW), compared within
``two_step_bound``; ``TestFusedProduct`` pins the fused product's own bits.
``integral_steps`` walks that product and its running sum a cell at a time;
``TestWalk`` pins its bits to the all-cells product and cumsum it replaced.
``first_exceeding``, the grid inverse, is pinned to one ``searchsorted`` per
row (``TestGridInverse``); ``dds_integral_check``'s reference keeps the
search it replaced.
"""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import SNAP_RTOL, cell_apply, first_exceeding, flavor_norm, prefix_sums
from cylmart.bdg import BDGInstance, _sup_norms, bdg_ratio_panel, ito_isometry, ito_residual
from cylmart.evolution import SEEProblem, fixed_point_map
from cylmart.integration import (
    IntegralPaths,
    IntegrandProcess,
    StoppedIntegral,
    covariation_operator,
    integral_steps,
    integrate,
    stop_integral,
)
from cylmart.martingales import (
    NoiseSpec,
    OperatorProcess,
    am_operator,
    operator_rate,
    qm_operator,
    qv_exact,
    simulate,
    stop_ensemble,
)
from cylmart.measures import GridMeasure, TimeGrid, _window_sums
from cylmart.timechange import DdsReport, build_time_change, dds_integral_check

# ---------------------------------------------------------------------------
# Verbatim copies of the replaced spellings (``self`` where they were methods)


def _last_at_or_below(sorted_vals, queries, scale, hi):
    # timechange's search before _util.first_exceeding took over
    snap = SNAP_RTOL * max(scale, 1.0)
    raw = np.searchsorted(sorted_vals, queries + snap, side="right")
    return np.clip(raw - 1, 0, hi)


def ref_contract_and_accumulate(phi, driven, ens) -> IntegralPaths:
    mats = phi.matrices
    if mats.ndim == 3:
        mats = np.broadcast_to(mats, (ens.n_paths,) + mats.shape)
    elif mats.shape[0] != ens.n_paths:
        raise ValueError("per-path integrand does not match path count")
    # single contraction spelling; see martingales._driven for why
    inc = np.einsum("nkmc,nkc->nkm", mats, driven)
    out = np.zeros((ens.n_paths, ens.grid.n_cells + 1, inc.shape[2]))
    np.cumsum(inc, axis=1, out=out[:, 1:, :])
    return IntegralPaths(ens.grid, out)


def ref_integrand_increments(phi, ens) -> np.ndarray:
    return cell_apply(phi.matrices @ ens.sigma_path, ens.driver_increments)


def ref_prefix_total(inc: np.ndarray, axis: int = 0) -> np.ndarray:
    inc = np.moveaxis(np.asarray(inc), axis, 0)
    out = np.array(inc[0], dtype=float)
    for row in inc[1:]:
        out += row
    return out


# MartEnsemble.sigma_is_shared and .m_eval, which only tests read, kept
# verbatim as functions of the ensemble.
def sigma_is_shared(ens) -> bool:
    return ens.sigma_path.ndim == 3


def m_eval(ens, h: np.ndarray) -> np.ndarray:
    """Cylindrical evaluation M_t h on the grid, shape (n, K+1)."""
    return prefix_sums(ens.driven @ np.asarray(h, dtype=float), axis=1)


def ref_direction_bracket_increments(self, directions: np.ndarray) -> np.ndarray:
    q = self.spec.q()
    dt = self.grid.widths
    if sigma_is_shared(self):
        a = np.einsum("kcd,de,kfe->kcf", self.sigma_path, q, self.sigma_path)
        return np.einsum("xc,kcf,xf->xk", directions, a, directions) * dt
    a = np.einsum("nkcd,de,nkfe->nkcf", self.sigma_path, q, self.sigma_path)
    return np.einsum("xc,nkcf,xf->nxk", directions, a, directions) * dt


def ref_am_operator(spec, grid) -> OperatorProcess:
    sigma_values = spec.sigma_on_grid(grid)
    q = spec.q()
    a_rate = np.einsum("kcd,de,kfe->kcf", sigma_values, q, sigma_values)
    inc = a_rate * grid.widths[:, None, None]
    out = np.zeros((grid.n_cells + 1, spec.d_cyl, spec.d_cyl))
    np.cumsum(inc, axis=0, out=out[1:])
    return OperatorProcess(grid, out)


def ref_qm_operator(spec, grid) -> OperatorProcess:
    sigma_values = spec.sigma_on_grid(grid)
    q = spec.q()
    a = np.einsum("kcd,de,kfe->kcf", sigma_values, q, sigma_values)
    norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    out = a / safe[:, None, None]
    out[norms == 0] = 0.0
    return OperatorProcess(grid, out)


def ref_covariation_operator(spec1, spec2, grid) -> OperatorProcess:
    if spec1.d_drive != spec2.d_drive:
        raise ValueError("specs must share one driver")
    q1, q2 = spec1.q(), spec2.q()
    if not np.array_equal(q1, q2):
        raise ValueError("shared driver requires equal covariances")
    s1 = spec1.sigma_on_grid(grid)
    s2 = spec2.sigma_on_grid(grid)
    rate = np.einsum("kyd,de,kxe->kyx", s2, q1, s1)
    inc = rate * grid.widths[:, None, None]
    out = np.zeros((grid.n_cells + 1, spec2.d_cyl, spec1.d_cyl))
    np.cumsum(inc, axis=0, out=out[1:])
    return OperatorProcess(grid, out)


def ref_grid_prefix(self) -> np.ndarray:
    out = np.zeros(self.grid.n_cells + 1)
    np.cumsum(self.increments, out=out[1:])
    return out


def ref_window_sums(inc: np.ndarray, w: int) -> np.ndarray:
    pref = np.concatenate([[0.0], np.cumsum(inc)])
    idx = np.arange(1, inc.size + 1)
    lo = np.maximum(idx - w, 0)
    return pref[idx] - pref[lo]


def ref_m_evals(self) -> np.ndarray:
    out = np.zeros((self.n_paths, self.grid.n_cells + 1, self.spec.d_cyl))
    np.cumsum(self.driven, axis=1, out=out[:, 1:, :])
    return out


def ref_m_eval(self, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    out = np.zeros((self.n_paths, self.grid.n_cells + 1))
    np.cumsum(self.driven @ h, axis=1, out=out[:, 1:])
    return out


def ref_stop_integral(phi, ens, tau_idx) -> StoppedIntegral:
    tau_idx = np.broadcast_to(np.asarray(tau_idx, dtype=int), (ens.n_paths,))
    k = ens.grid.n_cells

    full = integrate(phi, ens)
    clamp = np.minimum(np.arange(k + 1)[None, :], tau_idx[:, None])
    stopped_path = IntegralPaths(
        ens.grid, np.take_along_axis(full.values, clamp[:, :, None], axis=1)
    )

    keep = np.arange(k)[None, :] < tau_idx[:, None]
    mats = phi.matrices
    if mats.ndim == 3:
        mats = np.broadcast_to(mats, (ens.n_paths,) + mats.shape)
    cut = mats * keep[:, :, None, None]
    indicator = integrate(IntegrandProcess(ens.grid, cut), ens)

    frozen = integrate(phi, stop_ensemble(ens, tau_idx))
    return StoppedIntegral(stopped_path, indicator, frozen)


def ref_stop_sigma(ens, tau_idx) -> np.ndarray:
    """stop_ensemble's sigma product."""
    tau_idx = np.broadcast_to(np.asarray(tau_idx, dtype=int), (ens.n_paths,))
    k = ens.grid.n_cells
    keep = (np.arange(k)[None, :] < tau_idx[:, None]).astype(float)
    if sigma_is_shared(ens):
        sigma_vals = ens.sigma_path[None, :, :, :] * keep[:, :, None, None]
    else:
        sigma_vals = ens.sigma_path * keep[:, :, None, None]
    return sigma_vals


def ref_dds_integral_check(phi, ens, tc) -> DdsReport:
    clock = tc.for_ensemble(ens)
    source = integrate(phi, ens).values  # (n, K+1, m)
    vec = ens.m_evals  # (n, K+1, dc)
    k = ens.grid.n_cells
    m = phi.target_dim
    gaps = np.empty(ens.n_paths)
    for p in range(ens.n_paths):
        prefix = clock.prefix[p]
        s_pts = clock.s_points[p]
        idx = clock.tau_idx[p]
        cells = np.minimum(idx[:-1], k - 1)  # source cell of each s-cell
        mats = phi.matrices if phi.matrices.ndim == 3 else phi.matrices[p]
        psi = mats[cells]  # (K, m, dc)
        dn = vec[p][idx[1:]] - vec[p][idx[:-1]]  # (K, dc)
        transported = np.zeros((k + 1, m))
        np.cumsum(np.einsum("kmc,kc->km", psi, dn), axis=0, out=transported[1:])
        back = _last_at_or_below(s_pts, prefix, prefix[-1], k)
        gaps[p] = np.abs(source[p] - transported[back]).max()
    max_mass = float(np.diff(tc.prefix, axis=1).max())
    return DdsReport(gaps=gaps, max_cell_mass=max_mass)


# ---------------------------------------------------------------------------
# Cases


def _adapted(base: np.ndarray):
    def sigma(t, w):
        s = np.tanh(w.sum(axis=-1))
        return base * (1.0 + 0.5 * s)[..., None, None]

    return sigma


@dataclass
class Case:
    rng: np.random.Generator
    grid: TimeGrid
    spec: NoiseSpec
    ens: object  # MartEnsemble, stopped at ``tau`` when ``stopped``
    phi: IntegrandProcess
    stopped: bool
    seed: int
    tau: np.ndarray | None


SIGMA_KINDS = ("shared", "per-cell", "adapted")
PHI_KINDS = ("constant", "per-cell", "per-path")


@st.composite
def cases(draw, sigma_kinds=SIGMA_KINDS, phi_kinds=PHI_KINDS, stop=None):
    """A random ensemble and integrand; ``stop`` forces (True) or forbids
    (False) a stopped ensemble, which is drawn either way by default."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    dc, dd, m = (draw(st.integers(1, 3)) for _ in range(3))
    sigma_kind = draw(st.sampled_from(sigma_kinds))
    phi_kind = draw(st.sampled_from(phi_kinds))
    q_layout = draw(st.sampled_from([None, "C", "F"]))
    phi_layout = draw(st.sampled_from(["C", "F"]))
    stopped = draw(st.booleans()) if stop is None else stop
    seed = draw(st.integers(0, 2**32 - 1))

    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, k)]))
    q = None
    if q_layout is not None:
        a = rng.standard_normal((dd, dd))
        q = np.asarray(a @ a.T + 0.1 * np.eye(dd), order=q_layout)
        q = np.asarray(0.5 * (q + q.T), order=q_layout)
    if sigma_kind == "shared":
        sigma = rng.standard_normal((dc, dd))
    elif sigma_kind == "per-cell":
        sigma = rng.standard_normal((k, dc, dd))
        sigma[rng.random(k) < 0.3] = 0.0  # plateaus and 0/0 densities
    else:
        sigma = _adapted(rng.standard_normal((dc, dd)))
    spec = NoiseSpec(dc, dd, sigma, q_drive=q)
    ens = simulate(spec, grid, n, seed)
    tau = rng.integers(0, k + 1, n) if stopped else None
    if stopped:
        ens = stop_ensemble(ens, tau)
    if phi_kind == "constant":
        phi = IntegrandProcess.constant(grid, rng.standard_normal((m, dc)))
    else:
        shape = (k, m, dc) if phi_kind == "per-cell" else (n, k, m, dc)
        phi = IntegrandProcess(grid, np.asarray(rng.standard_normal(shape), order=phi_layout))
    return Case(rng, grid, spec, ens, phi, stopped, seed, tau)


ORACLE = settings(max_examples=60, deadline=None)


def assert_same(got: np.ndarray, want: np.ndarray, label: str = ""):
    assert got.shape == want.shape, label
    assert np.array_equal(got, want), label


def abs_rate(sig_a: np.ndarray, q: np.ndarray, sig_b: np.ndarray) -> np.ndarray:
    """|sigma_a| |Q| |sigma_b|^T: each entry bounds the terms that the matmul
    and einsum spellings of sigma_a Q sigma_b^T add, so it sets their
    rounding scale."""
    return np.abs(sig_a) @ np.abs(q) @ np.swapaxes(np.abs(sig_b), -1, -2)


def assert_close(got: np.ndarray, want: np.ndarray, scale: float, label: str = ""):
    """Entrywise within 1e-12 * scale, ``scale`` an upper bound on the
    absolute terms behind each entry.  The two spellings of sigma Q sigma^T
    differ by a few eps of that scale (at most 6 eps over 3000 random cases
    of each test below), so the tolerance leaves a margin of more than 700."""
    assert got.shape == want.shape, label
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale, err_msg=label)


def two_step_bound(phi, ens) -> np.ndarray:
    """c eps S, the distance allowed between ``integrate``'s (phi sigma) dW
    and the two-step phi (sigma dW): S is the running sum of |phi| |sigma|
    |dW| per entry and c = d_cyl + d_drive + K.  Each spelling of a cell's
    product lies within (d_cyl + d_drive) eps/2 of that cell's share of S,
    and each running sum adds at most (K - 1) eps/2 of S, so the two differ
    by less than (d_cyl + d_drive + K - 1) eps S plus terms of order eps^2."""
    n, k = ens.n_paths, ens.grid.n_cells
    phi_abs = np.broadcast_to(np.abs(phi.matrices), (n,) + phi.matrices.shape[-3:])
    sig_abs = np.broadcast_to(np.abs(ens.sigma_path), (n,) + ens.sigma_path.shape[-3:])
    terms = np.einsum("nkmc,nkcd,nkd->nkm", phi_abs, sig_abs, np.abs(ens.driver_increments))
    c = ens.spec.d_cyl + ens.spec.d_drive + k
    return c * np.finfo(float).eps * prefix_sums(terms, axis=1)


# ---------------------------------------------------------------------------


class TestPrefixSums:
    def test_zero_led_along_each_axis(self):
        inc = np.arange(24.0).reshape(2, 3, 4)
        for axis in (0, 1, 2, -1):
            out = prefix_sums(inc, axis)
            lead = np.take(out, [0], axis=axis)
            assert not lead.any()
            assert_same(np.take(out, range(1, out.shape[axis]), axis=axis), np.cumsum(inc, axis))
            assert out.flags.writeable

    @ORACLE
    @given(cases())
    def test_total_is_the_terminal_integral(self, case):
        # the walk's last zeta is the old left-to-right total of the old
        # all-cells increments, and integrate's terminal value
        *_, (_, _, last) = integral_steps(case.phi, case.ens)
        inc = ref_integrand_increments(case.phi, case.ens)
        assert_same(last, ref_prefix_total(inc, axis=1))
        assert_same(last, integrate(case.phi, case.ens).terminal())

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_total_adds_left_to_right_at_one_dim(self, k):
        grid = TimeGrid.uniform(1.0, k)
        ens = simulate(NoiseSpec(1, 1, np.eye(1)), grid, 50, seed=k)
        phi = IntegrandProcess.constant(grid, np.array([[0.7]]))
        inc = np.stack([step[1] for step in integral_steps(phi, ens)], axis=1)
        terminal = integrate(phi, ens).terminal()
        assert_same(ref_prefix_total(inc, axis=1), terminal)
        assert ito_isometry(phi, ens).lhs == float(np.mean(np.sum(terminal**2, axis=1)))
        if k == 64:  # np.sum adds 64 contiguous cells pairwise, in another order
            assert not np.array_equal(np.sum(inc, axis=1), terminal)

    @ORACLE
    @given(cases(), st.integers(1, 9))
    def test_grid_measure(self, case, w):
        inc = np.abs(case.rng.standard_normal(case.grid.n_cells))
        inc[case.rng.random(inc.size) < 0.3] = 0.0
        nu = GridMeasure(case.grid, inc)
        assert_same(nu.prefix(), ref_grid_prefix(nu))
        assert_same(_window_sums(inc, w), ref_window_sums(inc, w))

    @ORACLE
    @given(cases())
    def test_evaluations(self, case):
        ens = case.ens
        assert_same(ens.m_evals, ref_m_evals(ens), "m_evals")
        assert not ens.m_evals.flags.writeable
        h = case.rng.standard_normal(ens.spec.d_cyl)
        assert_same(m_eval(ens, h), ref_m_eval(ens, h), "m_eval")


@st.composite
def searched_paths(draw):
    """(rows, levels, scale): nondecreasing prefix rows with plateaus and
    exactly aligned masses, and levels on, beside, between and beyond them."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 12))
    mass = st.one_of(
        st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 1.0, 1e-13]),
        st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    )
    masses = draw(st.lists(st.lists(mass, min_size=k, max_size=k), min_size=n, max_size=n))
    rows = prefix_sums(np.array(masses), axis=1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 6))
    picks = rows[np.arange(n)[:, None], rng.integers(0, k + 1, (n, q))]
    nudge = rng.choice([0.0, 0.0, -1e-13, 1e-13, -1e-11, 1e-11, -1.0, 0.5], (n, q))
    levels = picks + nudge * np.maximum(rows[:, -1:], 1.0)
    scale = rows[:, -1] if draw(st.booleans()) else draw(st.sampled_from([0.0, 1.0, 1e4]))
    return rows, levels, scale


class TestGridInverse:
    """``first_exceeding`` against one ``np.searchsorted`` per row."""

    @staticmethod
    def per_row(rows, levels, scale):
        scales = np.broadcast_to(scale, rows.shape[:1])
        return np.array(
            [
                np.searchsorted(row, lv + SNAP_RTOL * max(sc, 1.0), side="right")
                for row, lv, sc in zip(rows, levels, scales)
            ]
        )

    @given(searched_paths())
    @settings(max_examples=300, deadline=None)
    def test_batched_search_is_a_per_row_loop(self, case):
        rows, levels, scale = case
        want = self.per_row(rows, levels, scale)
        assert_same(first_exceeding(rows, levels, scale), want, "several levels a row")
        # one level a row: counted, not searched, to the same index
        assert_same(first_exceeding(rows, levels[:, 0], scale), want[:, 0], "one level a row")
        row_scale = np.broadcast_to(scale, rows.shape[:1])
        for p, row in enumerate(rows):
            assert_same(first_exceeding(row, levels[p], row_scale[p]), want[p], "one row")
            assert first_exceeding(row, levels[p, 0], row_scale[p]) == want[p, 0]


class TestIntegrand:
    @ORACLE
    @given(cases())
    def test_integrate(self, case):
        phi, ens = case.phi, case.ens
        got = integrate(phi, ens).values
        want = ref_contract_and_accumulate(phi, ens.driven_increments(), ens).values
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= two_step_bound(phi, ens))

    @ORACLE
    @given(cases())
    def test_stop_integral(self, case):
        tau = case.rng.integers(0, case.grid.n_cells + 1, case.ens.n_paths)
        got, want = stop_integral(case.phi, case.ens, tau), ref_stop_integral(
            case.phi, case.ens, tau
        )
        for name in ("stopped_path", "indicator_integrand", "stopped_driver"):
            assert_same(getattr(got, name).values, getattr(want, name).values, name)
        assert got.bit_identical

    @ORACLE
    @given(cases(), st.booleans())
    def test_dds_integral_check(self, case, one_clock):
        if one_clock and not case.spec.adapted:
            tc = build_time_change(qv_exact(case.spec, case.grid))
        else:
            tc = build_time_change(case.ens.bracket)
        got = dds_integral_check(case.phi, case.ens, tc)
        want = ref_dds_integral_check(case.phi, case.ens, tc)
        assert_same(got.gaps, want.gaps)
        assert got.max_cell_mass == want.max_cell_mass

    def test_increments_check_grid_and_paths(self):
        # the walk refuses at the call, before its first step
        grid = TimeGrid.uniform(1.0, 4)
        ens = simulate(NoiseSpec(3, 2, np.ones((3, 2))), grid, 5, seed=1)
        other = IntegrandProcess.constant(TimeGrid.uniform(2.0, 4), np.ones((2, 3)))
        with pytest.raises(ValueError, match="grids differ"):
            integral_steps(other, ens)
        wrong = IntegrandProcess(grid, np.ones((4, 4, 2, 3)))
        with pytest.raises(ValueError, match="does not match path count"):
            integral_steps(wrong, ens)

    @pytest.mark.parametrize("per_path", [False, True], ids=["shared", "per-path"])
    def test_input_dimension_is_named(self, per_path):
        # a phi reading R^4 against d_cyl = 3 ended in numpy's matmul error
        grid = TimeGrid.uniform(1.0, 4)
        ens = simulate(NoiseSpec(3, 2, np.ones((3, 2))), grid, 5, seed=1)
        phi = IntegrandProcess(grid, np.ones((5, 4, 2, 4) if per_path else (4, 2, 4)))
        with pytest.raises(ValueError, match="input dimension 4 differs from d_cyl 3"):
            integrate(phi, ens)


@st.composite
def cell_operands(draw):
    """A shared (K, a, b) stack, an (n, K, a, b) per-path one and (n, K, b)
    vectors; b spans the short and the vectorized reduction lengths, and the
    cells are stored row- or column-major."""
    n, k, a = draw(st.integers(1, 40)), draw(st.integers(1, 8)), draw(st.integers(1, 9))
    b = draw(st.sampled_from([1, 2, 3, 5, 8, 17, 64, 130]))
    column_major = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stack(*lead):
        if column_major:
            return rng.standard_normal(lead + (b, a)).swapaxes(-1, -2)
        return rng.standard_normal(lead + (a, b))

    return stack(k), stack(n, k), rng.standard_normal((n, k, b))


def per_path_copy(shared: np.ndarray, n: int) -> np.ndarray:
    """``shared`` stored once for each of n paths, every cell laid out as in
    ``shared``.  The layout matters: einsum reduces a row with contiguous
    entries in another order than a strided one, so a C-ordered copy of a
    column-major stack differs in the last bits."""
    if shared.strides[-1] == shared.itemsize:
        return np.broadcast_to(shared, (n,) + shared.shape).copy()
    return per_path_copy(shared.swapaxes(-1, -2), n).swapaxes(-1, -2)


class TestCellApply:
    """sigma dW, phi dM and G dM share one product, so a stopped or cut
    variant, a smaller ensemble and a cell-by-cell reader see the same bits."""

    def test_matches_matrix_vector_products(self):
        rng = np.random.default_rng(7)
        mats, vecs = rng.standard_normal((3, 4, 2, 5)), rng.standard_normal((3, 4, 5))
        got = cell_apply(mats, vecs)
        want = np.array([[m @ v for m, v in zip(mp, vp)] for mp, vp in zip(mats, vecs)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        assert cell_apply(mats[0], vecs).shape == (3, 4, 2)

    @ORACLE
    @given(cell_operands())
    def test_shared_stack_matches_materialized(self, ops):
        shared, _, vecs = ops
        want = cell_apply(shared, vecs)
        stack = np.broadcast_to(shared, vecs.shape[:1] + shared.shape)
        assert_same(cell_apply(stack, vecs), want, "broadcast view")
        assert_same(cell_apply(per_path_copy(shared, len(vecs)), vecs), want, "materialized")

    @ORACLE
    @given(cell_operands(), st.data())
    def test_path_prefix_of_larger_batch(self, ops, data):
        shared, per_path, vecs = ops
        p = data.draw(st.integers(1, vecs.shape[0]))
        assert_same(cell_apply(shared, vecs[:p]), cell_apply(shared, vecs)[:p], "shared")
        assert_same(
            cell_apply(per_path[:p], vecs[:p]), cell_apply(per_path, vecs)[:p], "per path"
        )

    @ORACLE
    @given(cell_operands())
    def test_cell_and_path_slices(self, ops):
        shared, per_path, vecs = ops
        for mats in (shared, per_path):
            whole = cell_apply(mats, vecs)
            for i in range(vecs.shape[1]):
                assert_same(cell_apply(mats[..., i, :, :], vecs[:, i]), whole[:, i], f"cell {i}")
            for p in range(vecs.shape[0]):
                one = mats if mats.ndim == 3 else mats[p]
                assert_same(cell_apply(one, vecs[p]), whole[p], f"path {p}")


class TestOperatorRate:
    @ORACLE
    @given(cases())
    def test_direction_brackets(self, case):
        ens = case.ens
        dirs = case.rng.standard_normal((4, ens.spec.d_cyl))
        got = ens.direction_bracket_increments(dirs)
        a_abs = abs_rate(ens.sigma_path, ens.spec.q(), ens.sigma_path)
        scale = a_abs.max() * np.abs(dirs).sum(axis=1).max() ** 2 * case.grid.widths.max()
        assert_close(got, ref_direction_bracket_increments(ens, dirs), scale)

    @ORACLE
    @given(cases())
    def test_operator_densities(self, case):
        spec, grid = case.spec, case.grid
        # one path's realized values, as a per-cell spec, for adapted or
        # stopped sigma; the spec's own values otherwise
        if case.stopped or spec.adapted:
            sig = case.ens.sigma_path[-1]
            spec = NoiseSpec(spec.d_cyl, spec.d_drive, sig, spec.q_drive)
        sig = spec.sigma_on_grid(grid)
        a_abs = abs_rate(sig, spec.q(), sig).max(axis=(-2, -1))  # per cell
        am = ref_am_operator(spec, grid)
        assert_close(am_operator(spec, grid).matrices, am.matrices, a_abs.max() * grid.widths.sum())
        # the density divides each cell by its norm, the bracket rate
        norms = np.abs(np.linalg.eigvalsh(operator_rate(sig, spec.q(), sig))).max(axis=-1)
        ratio = np.divide(a_abs, norms, out=np.zeros_like(norms), where=norms > 0)
        qm = ref_qm_operator(spec, grid).matrices
        assert_close(qm_operator(spec, grid).matrices, qm, ratio.max(initial=0.0))

    @ORACLE
    @given(cases(), st.integers(1, 3))
    def test_covariation(self, case, dc2):
        spec1, grid = case.spec, case.grid
        if spec1.adapted:
            spec1 = NoiseSpec(spec1.d_cyl, spec1.d_drive, case.ens.sigma_path[0], spec1.q_drive)
        sig2 = case.rng.standard_normal((grid.n_cells, dc2, spec1.d_drive))
        spec2 = NoiseSpec(dc2, spec1.d_drive, sig2, spec1.q_drive)
        for one, two in ((spec1, spec2), (spec2, spec1), (spec1, spec1)):
            got, want = covariation_operator(one, two, grid), ref_covariation_operator(
                one, two, grid
            )
            sig1, sig2 = one.sigma_on_grid(grid), two.sigma_on_grid(grid)
            scale = abs_rate(sig2, one.q(), sig1).max() * grid.widths.sum()
            assert_close(got.matrices, want.matrices, scale, "operator")

    @ORACLE
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 5),
        st.sampled_from([None, "C", "F"]),
        st.integers(0, 2**32 - 1),
    )
    def test_per_path_stack_matches_shared_bit_for_bit(self, dc, dc2, dd, k, n, q_layout, seed):
        # ito_isometry's shared and per-path operands, and a stopped
        # ensemble's per-path bracket, rest on this
        rng = np.random.default_rng(seed)
        q = np.eye(dd)
        if q_layout is not None:
            a = rng.standard_normal((dd, dd))
            q = np.asarray(a @ a.T, order=q_layout)
        sig_a, sig_b = rng.standard_normal((k, dc, dd)), rng.standard_normal((k, dc2, dd))
        stack_a = np.broadcast_to(sig_a, (n,) + sig_a.shape)
        stack_b = np.broadcast_to(sig_b, (n,) + sig_b.shape)
        want = operator_rate(sig_a, q, sig_b)
        for one, two in (
            (stack_a, stack_b),
            (stack_a.copy(), stack_b.copy()),
            (stack_a.copy(), sig_b),
            (sig_a, stack_b.copy()),
        ):
            got = operator_rate(one, q, two)
            for p in range(n):
                assert_same(got[p], want, f"path {p}")
        grid = TimeGrid(np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, k)]))
        ens = simulate(NoiseSpec(dc, dd, sig_a, q_drive=None if q_layout is None else q), grid, n, seed)
        stopped = stop_ensemble(ens, k)  # per-path sigma, nothing cut
        assert not sigma_is_shared(stopped)
        assert_same(stopped.bracket.increments, np.asarray(ens.bracket.increments))

    def test_identity_at_d128_is_exact(self):
        d = 128
        grid = TimeGrid(np.cumsum(np.r_[0.0, np.random.default_rng(5).uniform(0.05, 1.0, 16)]))
        spec = NoiseSpec(d, d, np.eye(d))
        sig = spec.sigma_on_grid(grid)
        assert_same(operator_rate(sig, spec.q(), sig), np.broadcast_to(np.eye(d), sig.shape))
        assert_same(qv_exact(spec, grid).increments, grid.widths)
        ens = simulate(spec, grid, 3, seed=6)
        assert_same(np.asarray(ens.bracket.increments), np.broadcast_to(grid.widths, (3, 16)))

    @ORACLE
    @given(cases())
    def test_stop_ensemble_sigma(self, case):
        tau = case.rng.integers(0, case.grid.n_cells + 1, case.ens.n_paths)
        got = stop_ensemble(case.ens, tau).sigma_path
        want = ref_stop_sigma(case.ens, tau)
        assert_same(got, want)
        assert got.strides == want.strides


def materialized(phi, ens):
    """phi and the ensemble's sigma, each stored once per path."""
    n = ens.n_paths
    mats = np.broadcast_to(phi.matrices, (n,) + phi.matrices.shape[-3:]).copy()
    sig = np.broadcast_to(ens.sigma_path, (n,) + ens.sigma_path.shape[-3:]).copy()
    return IntegrandProcess(phi.grid, mats), replace(ens, sigma_path=sig)


STOP_VARIANTS = {
    "stopped-sigma": dict(stop=True),
    "adapted-sigma": dict(sigma_kinds=("adapted",)),
    "per-path-phi": dict(phi_kinds=("per-path",)),
}


def _square(t, x):
    return np.sum(x**2, axis=-1)


def _square_dt(t, x):
    return np.zeros(x.shape[:-1])


def _square_grad(t, x):
    return 2.0 * x


def _square_hess(t, x):
    return np.broadcast_to(2.0 * np.eye(x.shape[-1]), x.shape + x.shape[-1:])


WALK_VARIANTS = {
    "shared": dict(
        sigma_kinds=("shared", "per-cell"), phi_kinds=("constant", "per-cell"), stop=False
    ),
    "per-path": dict(sigma_kinds=("adapted",), phi_kinds=("per-path",), stop=False),
    "stopped": dict(stop=True),
}
FLAVORS = ("hilbert", 1, 4, np.inf)


class TestWalk:
    """``integral_steps``, the one walk of int phi dM that integrate, the
    isometry, the BDG panel and ito_residual read, against the all-cells
    product and cumsum it replaced; the panel's streamed sups against the
    maximum over whole paths."""

    @pytest.mark.parametrize("variant", sorted(WALK_VARIANTS))
    @ORACLE
    @given(data=st.data())
    def test_zeta_matches_reference_and_integrate(self, variant, data):
        case = data.draw(cases(**WALK_VARIANTS[variant]))
        phi, ens = case.phi, case.ens
        want = ref_contract_and_accumulate(phi, ens.driven_increments(), ens).values
        bound = two_step_bound(phi, ens)
        values = integrate(phi, ens).values
        old_phi_sig = phi.matrices @ ens.sigma_path
        old_inc = ref_integrand_increments(phi, ens)
        steps = list(integral_steps(phi, ens))
        assert len(steps) == ens.grid.n_cells
        for j, (phi_sig, inc, zeta) in enumerate(steps):
            assert_same(phi_sig, old_phi_sig[..., j, :, :], "phi sigma")
            assert_same(inc, old_inc[:, j], "increment")
            assert np.all(np.abs(zeta - want[:, j + 1]) <= bound[:, j + 1])
            assert_same(zeta, values[:, j + 1], "integrate")
        assert_same(values, prefix_sums(old_inc, axis=1), "all-cells integrate")

    @ORACLE
    @given(cases())
    def test_streamed_sups_are_whole_path_maxima(self, case):
        values = integrate(case.phi, case.ens).values
        for flavor, sup in zip(FLAVORS, _sup_norms(case.phi, case.ens, FLAVORS)):
            assert_same(sup, flavor_norm(values, flavor).max(axis=1), str(flavor))

    def test_streamed_sups_keep_a_nan(self):
        # path 0's phi sigma overflows, so its integral meets inf - inf
        grid = TimeGrid.uniform(1.0, 8)
        rng = np.random.default_rng(5)
        ens = simulate(NoiseSpec(2, 2, np.array([[10.0, -10.0], [10.0, 10.0]])), grid, 3, seed=5)
        mats = rng.standard_normal((3, 8, 2, 2))
        mats[0] = np.sign(mats[0]) * 1e308
        phi = IntegrandProcess(grid, mats)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _sup_norms(phi, ens, FLAVORS)
            values = integrate(phi, ens).values
        for flavor, sup in zip(FLAVORS, got):
            want = flavor_norm(values, flavor).max(axis=1)
            assert np.isnan(want[0]) and np.isfinite(want[1:]).all(), flavor
            assert np.array_equal(sup, want, equal_nan=True), flavor

    def test_panel_holds_no_path_array(self):
        # the panel reads a running sup per flavor, so its peak stays below
        # one (n, K+1, m) array of integral values; calling integrate held
        # two, the products and their prefix sums (18.9 MB against 6.3 MB)
        n, k, m = 4000, 48, 4
        grid = TimeGrid.uniform(1.0, k)
        phi = IntegrandProcess.constant(grid, np.random.default_rng(6).standard_normal((m, 2)))
        inst = BDGInstance("walk", NoiseSpec(2, 1, np.ones((2, 1))), phi)
        tracemalloc.start()
        try:
            bdg_ratio_panel([inst], [2.0], FLAVORS, n, seed=6, gamma_samples=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * (k + 1) * m * 8


class TestFusedProduct:
    """(phi sigma) dW, one product through the driver, keeps the properties
    that the stopped and cut variants and the path-prefix rule rest on, and
    forms sigma dW only when M itself is read."""

    @ORACLE
    @given(cases())
    def test_shared_matches_materialized(self, case):
        want = integrate(case.phi, case.ens).values
        assert_same(integrate(*materialized(case.phi, case.ens)).values, want)

    @ORACLE
    @given(cases(), st.data())
    def test_path_prefix_of_larger_ensemble(self, case, data):
        p = data.draw(st.integers(1, case.ens.n_paths))
        small = simulate(case.spec, case.grid, p, case.seed)
        if case.stopped:
            small = stop_ensemble(small, case.tau[:p])
        mats = case.phi.matrices
        phi = case.phi if mats.ndim == 3 else IntegrandProcess(case.grid, mats[:p])
        assert_same(integrate(phi, small).values, integrate(case.phi, case.ens).values[:p])

    @pytest.mark.parametrize("variant", sorted(STOP_VARIANTS))
    @ORACLE
    @given(data=st.data())
    def test_stop_integral_bit_identical(self, variant, data):
        case = data.draw(cases(**STOP_VARIANTS[variant]))
        tau = case.rng.integers(0, case.grid.n_cells + 1, case.ens.n_paths)
        assert stop_integral(case.phi, case.ens, tau).bit_identical

    @pytest.mark.parametrize("kind", SIGMA_KINDS)
    def test_integrals_leave_sigma_dw_unformed(self, kind):
        rng = np.random.default_rng(8)
        grid = TimeGrid.uniform(1.0, 6)
        sigma = {
            "shared": rng.standard_normal((2, 3)),
            "per-cell": rng.standard_normal((6, 2, 3)),
            "adapted": _adapted(rng.standard_normal((2, 3))),
        }[kind]
        spec = NoiseSpec(2, 3, sigma)
        phi = IntegrandProcess(grid, rng.standard_normal((6, 2, 2)))
        uses = {
            "integrate": lambda ens: integrate(phi, ens),
            "stop_integral": lambda ens: stop_integral(phi, ens, np.array([0, 2, 6, 6, 3])),
            "ito_isometry": lambda ens: ito_isometry(phi, ens),
            "ito_residual": lambda ens: ito_residual(
                _square, _square_dt, _square_grad, _square_hess, np.zeros(2), None, None, phi, ens
            ),
        }
        for name, use in uses.items():
            ens = simulate(spec, grid, 5, seed=9)
            use(ens)
            assert "driven" not in vars(ens), name
            assert "m_evals" not in vars(ens), name
        # reading M forms sigma dW once and keeps it
        assert ens.m_evals is ens.m_evals
        assert "driven" in vars(ens)
        assert ens.driven_increments() is ens.driven


def column_major_copies(x: np.ndarray) -> dict:
    """``x``'s values stored Fortran-ordered and with each cell column-major."""
    return {
        "F": np.asfortranarray(x),
        "cells column-major": x.swapaxes(-1, -2).copy().swapaxes(-1, -2),
    }


class TestLayout:
    """phi, sigma and G enter C-ordered, so the bits of integrals, of M and of
    the mild solver's noise term do not depend on the caller's layout (a row
    with contiguous entries is reduced in another order than a strided one)."""

    def test_integrand(self):
        # the same phi C- and F-ordered once integrated to different results
        # in 61% of the entries (up to 2.7e-15)
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(1)
        ens = simulate(NoiseSpec(8, 8, rng.standard_normal((8, 8))), grid, 200, seed=1)
        phi = rng.standard_normal((16, 3, 8))
        want = integrate(IntegrandProcess(grid, phi), ens).values
        for name, copy in column_major_copies(phi).items():
            assert_same(integrate(IntegrandProcess(grid, copy), ens).values, want, name)
            assert IntegrandProcess(grid, copy).matrices.flags.c_contiguous

    @pytest.mark.parametrize("layout", ["F", "cells column-major"])
    def test_adapted_sigma(self, layout):
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(2)
        sigma = _adapted(rng.standard_normal((8, 8)))

        def sigma_reordered(t, w):
            return column_major_copies(sigma(t, w))[layout]

        ens = simulate(NoiseSpec(8, 8, sigma), grid, 100, seed=2)
        other = simulate(NoiseSpec(8, 8, sigma_reordered), grid, 100, seed=2)
        assert other.sigma_path.flags.c_contiguous
        assert_same(other.sigma_path, ens.sigma_path)
        assert_same(other.m_evals, ens.m_evals, "m_evals")
        phi = IntegrandProcess(grid, rng.standard_normal((16, 3, 8)))
        assert_same(integrate(phi, other).values, integrate(phi, ens).values, "integrate")

    @pytest.mark.parametrize("shared", [False, True], ids=["per-path", "shared"])
    def test_noise_map(self, shared):
        grid = TimeGrid.uniform(1.0, 16)
        rng = np.random.default_rng(3)
        ens = simulate(NoiseSpec(8, 8, rng.standard_normal((8, 8))), grid, 100, seed=3)
        base = rng.standard_normal((3, 8))
        u = rng.standard_normal((100, 17, 3))

        def g(t, x):
            return base if shared else np.tanh(x)[:, :, None] * base

        def solve(noise_map):
            problem = SEEProblem(
                generator=None,
                drift=lambda t, x: np.zeros_like(x),
                lip_drift=0.0,
                growth_drift=0.0,
                noise_map=noise_map,
                lip_noise=1.0,
                u0=np.zeros(3),
            )
            return fixed_point_map(problem, ens, u)

        want = solve(g)
        for layout in ("F", "cells column-major"):
            got = solve(lambda t, x: column_major_copies(g(t, x))[layout])
            assert_same(got, want, layout)
