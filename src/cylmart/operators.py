"""Symmetric/PSD matrix calculus: norms, square roots, projection selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "check_symmetric",
    "psd_sqrt",
    "ProjectionTriple",
    "projection_selection",
]

SYM_RTOL = 1e-12
PSD_CLAMP_RTOL = 1e-8
RANK_CUTOFF_RTOL = 1e-10


def check_symmetric(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("matrix is not all finite")
    scale = max(np.abs(b).max(), 1.0)
    if np.abs(b - b.T).max() > SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    return b


def psd_sqrt(b: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via the spectral decomposition.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||B||, 0) are treated as round-off and
    clamped to zero; anything more negative raises, since that indicates a
    genuinely indefinite input rather than noise.
    """
    b = check_symmetric(b)
    vals, vecs = np.linalg.eigh(b)
    norm = float(np.abs(vals).max()) if vals.size else 0.0
    floor = -PSD_CLAMP_RTOL * norm
    if np.any(vals < floor):
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _pinv_sym(b: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(b)
    cutoff = RANK_CUTOFF_RTOL * max(np.abs(vals).max(), 0.0) if vals.size else 0.0
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.T


@dataclass(frozen=True)
class ProjectionTriple:
    """Output of :func:`projection_selection`.

    ``p`` is the orthogonal projection onto F * span(basis), ``p_tilde`` an
    idempotent with p_tilde F = F p, and ``l`` a left factor with l F = p.
    """

    p: np.ndarray
    p_tilde: np.ndarray
    l: np.ndarray

    def residuals(self, f: np.ndarray) -> dict[str, float]:
        """Max-abs defects of the three defining identities."""
        return {
            "intertwine": float(np.abs(self.p_tilde @ f - f @ self.p).max()),
            "left_inverse": float(np.abs(self.l @ f - self.p).max()),
            "idempotent": float(np.abs(self.p_tilde @ self.p_tilde - self.p_tilde).max()),
        }


def projection_selection(f: np.ndarray, basis: np.ndarray) -> ProjectionTriple:
    """Projection triple (P, P~, L) attached to a PSD matrix and a subspace.

    ``basis`` holds k orthonormal rows spanning a subspace H0.  P projects
    orthogonally onto F H0.  P~ maps P0 F^2 P0 h to F^2 P0 h (and kills the
    kernel of P0 F^2 P0), which makes it idempotent with P~ F = F P.  L sends
    F^2 h to P F h and vanishes on ker F, so that L F = P.  Rank decisions use
    a relative cutoff of ``RANK_CUTOFF_RTOL``.
    """
    f = check_symmetric(f)
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    k, d = basis.shape
    if k > d or d != f.shape[0]:
        raise ValueError(f"basis shape {basis.shape} incompatible with dim {f.shape[0]}")
    gram = basis @ basis.T
    if np.abs(gram - np.eye(k)).max() > 1e-10:
        raise ValueError("basis rows are not orthonormal")

    # One SVD of C = F P0 (through its thin factor F basis^T) feeds both P and
    # P~.  Writing P~ = F^2 P0 (P0 F^2 P0)^+ = F U S^-1 V^T inverts the
    # singular values of C rather than their squares, which keeps the
    # intertwine identity accurate for ill-conditioned F.
    columns = f @ basis.T  # (d, k), columns F h_i
    u, s, wt = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF_RTOL * (s[0] if s.size else 0.0)))
    ur, sr, wtr = u[:, :rank], s[:rank], wt[:rank]
    p = ur @ ur.T
    p_tilde = f @ (ur / sr) @ (wtr @ basis)
    # L = P F (F^2)^+ collapses to P F^+ for PSD F; the eigenbasis form keeps
    # the rank cutoff on F itself rather than on its square.
    l = p @ _pinv_sym(f)
    return ProjectionTriple(p=p, p_tilde=p_tilde, l=l)
