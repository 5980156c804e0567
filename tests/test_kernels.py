"""One spelling per path kernel: each shared helper against verbatim copies
of the hand-written spellings it replaced, bit for bit.

The references below are the code as it stood before ``prefix_sums``,
``IntegrandProcess.for_paths``, ``integrand_increments`` and
``operator_rate`` took over.  Cases cover shared, per-cell, adapted and
stopped (per-path) sigma, constant, per-cell and per-path phi, non-uniform
grids, and C- and F-ordered Q and phi.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import prefix_sums
from cylmart.integration import (
    IntegralPaths,
    IntegrandProcess,
    StoppedIntegral,
    covariation_norm_increments,
    covariation_operator,
    integrand_increments,
    integrate,
    stop_integral,
)
from cylmart.martingales import (
    NoiseSpec,
    OperatorProcess,
    am_operator,
    qm_operator,
    qv_exact,
    simulate,
    stop_ensemble,
)
from cylmart.measures import GridMeasure, TimeGrid, _window_sums
from cylmart.timechange import (
    DdsReport,
    _last_at_or_below,
    build_time_change,
    dds_integral_check,
)

# ---------------------------------------------------------------------------
# Verbatim copies of the replaced spellings (``self`` where they were methods)


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


def ref_direction_bracket_increments(self, directions: np.ndarray) -> np.ndarray:
    q = self.spec.q()
    dt = self.grid.widths
    if self.sigma_is_shared:
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


def ref_covariation_norm_increments(spec1, spec2, grid) -> np.ndarray:
    s1 = spec1.sigma_on_grid(grid)
    s2 = spec2.sigma_on_grid(grid)
    rate = np.einsum("kyd,de,kxe->kyx", s2, spec1.q(), s1)
    norms = np.linalg.svd(rate, compute_uv=False)[..., 0]
    return norms * grid.widths


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
    if ens.sigma_is_shared:
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
    ens: object  # MartEnsemble, stopped when ``stopped``
    phi: IntegrandProcess
    stopped: bool


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    dc, dd, m = (draw(st.integers(1, 3)) for _ in range(3))
    sigma_kind = draw(st.sampled_from(["shared", "per-cell", "adapted"]))
    phi_kind = draw(st.sampled_from(["constant", "per-cell", "per-path"]))
    q_layout = draw(st.sampled_from([None, "C", "F"]))
    phi_layout = draw(st.sampled_from(["C", "F"]))
    stopped = draw(st.booleans())
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
    if stopped:
        ens = stop_ensemble(ens, rng.integers(0, k + 1, n))
    if phi_kind == "constant":
        phi = IntegrandProcess.constant(grid, rng.standard_normal((m, dc)))
    else:
        shape = (k, m, dc) if phi_kind == "per-cell" else (n, k, m, dc)
        phi = IntegrandProcess(grid, np.asarray(rng.standard_normal(shape), order=phi_layout))
    return Case(rng, grid, spec, ens, phi, stopped)


ORACLE = settings(max_examples=60, deadline=None)


def assert_same(got: np.ndarray, want: np.ndarray, label: str = ""):
    assert got.shape == want.shape, label
    assert np.array_equal(got, want), label


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
        assert_same(ens.m_eval(h), ref_m_eval(ens, h), "m_eval")


class TestIntegrand:
    @ORACLE
    @given(cases())
    def test_integrate(self, case):
        phi, ens = case.phi, case.ens
        want = ref_contract_and_accumulate(phi, ens.driven_increments(), ens)
        assert_same(integrate(phi, ens).values, want.values, "integrate")

    @ORACLE
    @given(cases())
    def test_stop_integral(self, case):
        tau = case.rng.integers(0, case.grid.n_cells + 1, case.ens.n_paths)
        got, want = stop_integral(case.phi, case.ens, tau), ref_stop_integral(
            case.phi, case.ens, tau
        )
        for name in ("stopped_path", "indicator_integrand", "stopped_driver"):
            assert_same(getattr(got, name).values, getattr(want, name).values, name)
        assert got.bit_identical()

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

    def test_for_paths(self):
        grid = TimeGrid.uniform(1.0, 4)
        det = IntegrandProcess.constant(grid, np.ones((2, 3)))
        view = det.for_paths(5)
        assert view.shape == (5, 4, 2, 3) and view.strides[0] == 0
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0] = 2.0
        per_path = IntegrandProcess(grid, np.ones((5, 4, 2, 3)))
        assert per_path.for_paths(5) is per_path.matrices
        with pytest.raises(ValueError, match="does not match path count"):
            per_path.for_paths(4)

    @ORACLE
    @given(cases())
    def test_increments_by_block(self, case):
        # a block of cells or paths, contracted alone, equals that block of
        # the whole contraction bit for bit (ito_residual reads it so)
        whole = integrand_increments(case.phi, case.ens)
        for i in range(case.grid.n_cells):
            got = integrand_increments(case.phi, case.ens, np.s_[:, i : i + 1])
            assert_same(got, whole[:, i : i + 1], f"cell {i}")
        for p in range(case.ens.n_paths):
            got = integrand_increments(case.phi, case.ens, np.s_[p : p + 1])
            assert_same(got, whole[p : p + 1], f"path {p}")

    def test_increments_check_grid_and_paths(self):
        grid = TimeGrid.uniform(1.0, 4)
        ens = simulate(NoiseSpec(3, 2, np.ones((3, 2))), grid, 5, seed=1)
        other = IntegrandProcess.constant(TimeGrid.uniform(2.0, 4), np.ones((2, 3)))
        with pytest.raises(ValueError, match="grids differ"):
            integrand_increments(other, ens)
        wrong = IntegrandProcess(grid, np.ones((4, 4, 2, 3)))
        with pytest.raises(ValueError, match="does not match path count"):
            integrand_increments(wrong, ens)


class TestOperatorRate:
    @ORACLE
    @given(cases())
    def test_direction_brackets(self, case):
        ens = case.ens
        dirs = case.rng.standard_normal((4, ens.spec.d_cyl))
        got = ens.direction_bracket_increments(dirs)
        assert_same(got, ref_direction_bracket_increments(ens, dirs))

    @ORACLE
    @given(cases())
    def test_operator_densities(self, case):
        spec, grid = case.spec, case.grid
        # one path's realized values, as a per-cell spec, for adapted or
        # stopped sigma; the spec's own values otherwise
        if case.stopped or spec.adapted:
            sig = case.ens.sigma_for_paths()[-1]
            spec = NoiseSpec(spec.d_cyl, spec.d_drive, sig, spec.q_drive)
        for fn, ref in ((am_operator, ref_am_operator), (qm_operator, ref_qm_operator)):
            assert_same(fn(spec, grid).matrices, ref(spec, grid).matrices, fn.__name__)

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
            assert_same(got.matrices, want.matrices, "operator")
            assert_same(
                covariation_norm_increments(one, two, grid),
                ref_covariation_norm_increments(one, two, grid),
                "norm increments",
            )

    @ORACLE
    @given(cases())
    def test_stop_ensemble_sigma(self, case):
        tau = case.rng.integers(0, case.grid.n_cells + 1, case.ens.n_paths)
        got = stop_ensemble(case.ens, tau).sigma_path
        want = ref_stop_sigma(case.ens, tau)
        assert_same(got, want)
        assert got.strides == want.strides
