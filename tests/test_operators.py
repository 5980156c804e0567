import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart.martingales import _rate_norms
from cylmart.operators import (
    check_symmetric,
    projection_selection,
    psd_sqrt,
)


def random_sym(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2


class TestOpNorm:
    """The operator norm of a symmetric matrix, the largest |eigenvalue|, as
    every bracket increment reads it (``martingales._rate_norms``)."""

    def test_identity(self):
        assert _rate_norms(np.eye(3)) == 1.0

    def test_diagonal_reads_off(self):
        assert _rate_norms(np.diag([2.0, -5.0])) == 5.0

    def test_matches_quadratic_form_supremum(self):
        rng = np.random.default_rng(0)
        b = random_sym(rng, 4)
        x = rng.standard_normal((100_000, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        sampled = np.abs(np.einsum("ni,ij,nj->n", x, b, x)).max()
        assert _rate_norms(b) == pytest.approx(sampled, rel=1e-2)

    def test_rejects_asymmetric(self):
        # eigvalsh reads one triangle alone; operators check symmetry first
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.floats(-100, 100))
    @settings(max_examples=30, deadline=None)
    def test_absolute_homogeneity(self, c):
        b = np.array([[2.0, 1.0], [1.0, -3.0]])
        assert _rate_norms(c * b) == pytest.approx(abs(c) * _rate_norms(b), rel=1e-12)

    def test_cauchy_schwarz_for_psd_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = rng.standard_normal((d, d))
            b = a @ a.T
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            lhs = (x @ b @ y) ** 2
            rhs = (x @ b @ x) * (y @ b @ y)
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(psd_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            a = rng.standard_normal((d, d))
            b = a.T @ a
            root = psd_sqrt(b)
            norm = _rate_norms(b)
            assert np.abs(root.T @ root - b).max() <= 1e-10 * max(norm, 1.0)
            np.testing.assert_allclose(root, root.T, atol=1e-12 * max(norm, 1))

    def test_squaring_recovers(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        b = a @ a.T
        root = psd_sqrt(b)
        np.testing.assert_allclose(root @ root, b, atol=1e-10 * _rate_norms(b))

    def test_small_negative_eigenvalues_clamped(self):
        b = np.diag([1.0, -1e-10])
        root = psd_sqrt(b)
        assert root[1, 1] == 0.0

    def test_genuinely_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_sqrt(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [psd_sqrt, check_symmetric])
    def test_non_finite_rejected(self, fn, bad):
        # NaN compares false, so it used to pass the symmetry test
        with pytest.raises(ValueError, match="matrix is not all finite"):
            fn(np.array([[1.0, 0.0], [0.0, bad]]))


class TestProjectionSelection:
    def test_identity_coordinates(self):
        d, k = 4, 2
        f = np.eye(d)
        basis = np.eye(d)[:k]
        triple = projection_selection(f, basis)
        expected = np.zeros((d, d))
        expected[:k, :k] = np.eye(k)
        np.testing.assert_allclose(triple.p, expected, atol=1e-12)
        np.testing.assert_allclose(triple.p_tilde, expected, atol=1e-12)
        np.testing.assert_allclose(triple.l @ f, expected, atol=1e-12)

    def test_rank_one_image(self):
        # F collapses the diagonal direction onto the first coordinate
        f = np.diag([1.0, 0.0])
        basis = np.array([[1.0, 1.0]]) / np.sqrt(2)
        triple = projection_selection(f, basis)
        np.testing.assert_allclose(triple.p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_identities_on_random_rank_deficient_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a[:, rank:] = 0.0
            f = a @ a.T
            k = int(rng.integers(1, d + 1))
            basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T[:k]
            triple = projection_selection(f, basis)
            tol = 1e-8 * (1.0 + np.linalg.norm(f, 2) ** 2)
            defects = triple.residuals(f)
            assert max(defects.values()) <= tol, defects

    def test_p_is_orthogonal_projection(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        f = a @ a.T
        basis = np.linalg.qr(rng.standard_normal((5, 3)))[0].T[:3]
        p = projection_selection(f, basis).p
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.T, atol=1e-12)

    def test_range_of_l_inside_image(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 3))
        f = a @ a.T
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0].T[:2]
        triple = projection_selection(f, basis)
        # columns of L lie in F * span(basis) = ran P
        np.testing.assert_allclose(triple.p @ triple.l, triple.l, atol=1e-9)
        assert np.isfinite(np.linalg.norm(triple.l, 2))

    def test_l_agrees_with_p_through_f_on_panel(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        f = a @ a.T
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0].T[:3]
        triple = projection_selection(f, basis)
        xs = rng.standard_normal((32, 6))
        np.testing.assert_allclose(xs @ (triple.l @ f).T, xs @ triple.p.T, atol=1e-8)

    def test_non_orthonormal_basis_rejected(self):
        f = np.eye(3)
        with pytest.raises(ValueError, match="orthonormal"):
            projection_selection(f, np.array([[1.0, 1.0, 0.0]]))

    def test_zero_operator(self):
        triple = projection_selection(np.zeros((3, 3)), np.eye(3)[:1])
        assert np.abs(triple.p).max() == 0.0
        assert np.abs(triple.p_tilde).max() == 0.0
        assert np.abs(triple.l).max() == 0.0
