"""Shared helpers: RNG substreams, norms, canonical JSON."""

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
    "canonical_json",
    "config_hash",
    "int_at_least",
    "finite_above_zero",
]


# numpy.random.SeedSequence's hash constants (pool of four uint32 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy_words(value) -> list[int]:
    """uint32 words of a non-negative integer, least significant first, as
    SeedSequence splits its entropy."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step: the hashed word and the next constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    # L x - R y mod 2**32, kept non-negative for uint64 arrays
    value = (_MIX_MULT_L * x & _MASK32) + ((_MASK32 + 1 - _MIX_MULT_R) * y & _MASK32)
    value &= _MASK32
    return value ^ (value >> 16)


def _seed_words(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, uint64), vectorized: each
    entry of ``entropy`` is a uint32 word, as a Python int or a uint64 array."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hashmix(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        halves.append(value)
    return [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(_POOL_SIZE)]


def path_rngs(seed: int, n: int, stream: int = 0) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` pairs for ``n`` parallel sample paths.

    Pair ``i`` is the state of ``PCG64(SeedSequence((seed, stream, i)))``, so
    path ``i`` depends on ``(seed, stream, i)`` alone and results do not
    depend on how work is scheduled across paths or workers.  The
    SeedSequence hash runs on all paths at once; paths 0 and n-1 are checked
    against numpy's own seeding on every call.
    """
    prefix = _entropy_words(seed) + _entropy_words(stream)
    if n < 1:
        return []
    words = [w.tolist() for w in _seed_words(prefix + [np.arange(n, dtype=np.uint64)])]
    pairs = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*words):
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        state = ((inc + ((state_hi << 64) | state_lo)) * _PCG64_MULT + inc) & _MASK128
        pairs.append((state, inc))
    for i in (0, n - 1):
        expected = np.random.PCG64(np.random.SeedSequence((seed, stream, i))).state["state"]
        if pairs[i] != (expected["state"], expected["inc"]):
            raise RuntimeError(
                f"vectorized PCG64 seeding disagrees with numpy {np.__version__} at path {i}"
            )
    return pairs


def single_rng(seed: int, stream: int = 0) -> np.random.Generator:
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


def finite_above_zero(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite and > 0."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )
