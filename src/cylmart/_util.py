"""Shared helpers: seeded RNG streams, norms, canonical JSON."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator

import numpy as np

__all__ = [
    "path_rngs",
    "single_rng",
    "is_hilbert",
    "flavor_p",
    "flavor_norm",
    "prefix_sums",
    "first_exceeding",
    "cell_apply",
    "canonical_json",
    "config_hash",
    "int_at_least",
    "require_int",
    "require_window",
    "finite_above_zero",
]


def path_rngs(seed: int, n: int, shape: tuple) -> np.ndarray:
    """Standard normals for ``n`` sample paths, shape ``(n, *shape)``.

    All paths draw from one stream, ``single_rng(seed, 0)``, path-major:
    path ``i`` is the ``i``-th block of ``shape`` normals.  A smaller
    ensemble is therefore a prefix of a larger one at the same seed, and
    drawing the paths in consecutive chunks from the one generator gives the
    same bits as drawing them at once.
    """
    return single_rng(seed, 0).standard_normal((n, *shape))


def single_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """``Generator(PCG64(SeedSequence((seed, stream))))``; a ``seed`` that is
    no integer >= 0 is refused by name (``require_int``)."""
    seed = require_int(seed, 0, "seed")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def is_hilbert(flavor) -> bool:
    """Whether a norm flavor names the Euclidean norm."""
    return flavor in ("hilbert", "euclidean", 2, 2.0)


def flavor_p(flavor) -> float:
    """The exponent a norm flavor names: 2 for a Hilbert flavor, else p >= 1."""
    if is_hilbert(flavor):
        return 2.0
    try:
        p = float(flavor)
    except (TypeError, ValueError):
        p = np.nan
    if not p >= 1.0:
        raise ValueError(f"norm flavor must be 'hilbert' or p >= 1, got {flavor!r}")
    return p


def flavor_norm(values: np.ndarray, flavor, axis: int = -1) -> np.ndarray:
    """Norm along ``axis``: Euclidean for a Hilbert flavor, else p-norm,
    the largest absolute entry for p = inf."""
    if is_hilbert(flavor):
        return np.linalg.norm(values, axis=axis)
    p = flavor_p(flavor)
    if p == np.inf:
        return np.max(np.abs(values), axis=axis, initial=0.0)
    return np.sum(np.abs(values) ** p, axis=axis) ** (1.0 / p)


def prefix_sums(inc: np.ndarray, axis: int = 0) -> np.ndarray:
    """Zero-led running sum along ``axis``: one more entry than ``inc``
    there, out[0] = 0 and out[j] = inc[0] + ... + inc[j-1], added left to
    right.  The result is a fresh writable array."""
    inc = np.asarray(inc)
    axis = axis % inc.ndim
    shape = list(inc.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    tail = (slice(None),) * axis + (slice(1, None),)
    np.cumsum(inc, axis=axis, out=out[tail])
    return out


SNAP_RTOL = 1e-12


def first_exceeding(rows: np.ndarray, levels, scale) -> np.ndarray:
    """Grid inverse of nondecreasing paths (L,) or (n, L): per level, the
    first index of its row whose value exceeds it by more than SNAP_RTOL *
    max(scale, 1), else L.  One less is the last index at or below it, so a
    level reached exactly, up to rounding, resolves to the point reaching it.
    ``scale`` is one number or one per row; ``levels`` is one per row or,
    along a last axis, several, and the result has its shape."""
    rows = np.asarray(rows)
    snap = SNAP_RTOL * np.maximum(scale, 1.0)
    if np.ndim(levels) < rows.ndim:  # one a row: searchsorted's index, counted
        return np.count_nonzero(rows <= (levels + snap)[..., None], axis=-1)
    queries = levels + np.expand_dims(snap, -1)
    if rows.ndim == 1:
        return np.searchsorted(rows, queries, side="right")
    return np.array([np.searchsorted(r, q, side="right") for r, q in zip(rows, queries)])


def cell_apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Per-cell matrix-vector product, the one spelling of sigma dW,
    (phi sigma) dW and G dM.  Leading axes broadcast, so a shared (K, a, b)
    stack meets (n, K, b) vectors without a per-path copy.

    A path's results do not depend on the path count, on the cells or paths
    read, or on whether an operand is shared; stopped and cut variants rely
    on that.  They do depend on whether a cell's rows are contiguous, so
    the matrices are stored C-ordered where they enter the library.
    """
    return np.einsum("...ij,...j->...i", mats, vecs)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def int_at_least(value, least: int) -> bool:
    """Whether ``value`` is an integer, not a bool, no smaller than ``least``."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        return False


def _refusal(*values) -> type:
    """The error for values ``int_at_least`` refused: a TypeError if one is
    no integer or a bool, else (integers out of range) a ValueError."""
    return ValueError if all(int_at_least(v, -math.inf) for v in values) else TypeError


def require_int(value, least: int, name: str) -> int:
    """``value`` as an int if it is an integer, not a bool, >= ``least``;
    else refused by ``name``, a TypeError or ValueError as ``_refusal`` says.
    Every count, level and seed of the library enters through here."""
    if not int_at_least(value, least):
        raise _refusal(value)(f"{name} must be an integer >= {least}, got {value!r}")
    return operator.index(value)


def require_window(i0, i1, n_cells: int) -> None:
    """Refuse a cell window other than integers 0 <= i0 < i1 <= ``n_cells``
    in one message naming both ends: a TypeError if an end is no integer or
    a bool, else a ValueError."""
    if not (int_at_least(i0, 0) and int_at_least(i1, 0) and i0 < i1 <= n_cells):
        raise _refusal(i0, i1)(
            f"need integers 0 <= i0 < i1 <= {n_cells}, got i0={i0!r}, i1={i1!r}"
        )


def finite_above_zero(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite and > 0."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )
