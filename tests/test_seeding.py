"""Path seeding against numpy's own per-path SeedSequence -> PCG64 streams.

The reference is the per-path loop that ``path_rngs`` and ``simulate``
replace: one ``Generator(PCG64(SeedSequence((seed, stream, i))))`` per path.
The vectorized seeding must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylmart._util as util
from cylmart._util import path_rngs
from cylmart.martingales import NoiseSpec, simulate
from cylmart.measures import TimeGrid
from cylmart.operators import psd_sqrt

# seeds and streams across [0, 2**64): one- and two-word SeedSequence entropy
words = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
)


def reference_rngs(seed, n, stream=0):
    return [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, i))))
        for i in range(n)
    ]


def reference_draws(spec, grid, n_paths, seed):
    root_q = psd_sqrt(spec.q())
    scale = np.sqrt(grid.widths)[:, None]
    return np.stack(
        [
            (rng.standard_normal((grid.n_cells, spec.d_drive)) @ root_q.T) * scale
            for rng in reference_rngs(seed, n_paths)
        ]
    )


def pcg64_pair(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


class TestPathRngs:
    @given(seed=words, stream=words, n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_states_match_numpy(self, seed, stream, n):
        expected = [pcg64_pair(rng) for rng in reference_rngs(seed, n, stream)]
        assert path_rngs(seed, n, stream) == expected

    def test_many_word_entropy(self):
        # more than four entropy words exercises SeedSequence's overflow mixing
        seed, stream = 2**200 + 12345, 2**70 + 1
        expected = [pcg64_pair(rng) for rng in reference_rngs(seed, 5, stream)]
        assert path_rngs(seed, 5, stream) == expected

    def test_numpy_integer_seeds(self):
        expected = [pcg64_pair(rng) for rng in reference_rngs(7, 3, 2**63)]
        assert path_rngs(np.int64(7), 3, np.uint64(2**63)) == expected

    def test_length_and_empty(self):
        assert len(path_rngs(3, 17)) == 17
        assert path_rngs(3, 0) == []

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-(2**40), 0)])
    def test_negative_seed_raises(self, seed, stream):
        with pytest.raises(ValueError, match="non-negative"):
            path_rngs(seed, 4, stream)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            path_rngs(seed, 4)

    def test_guard_catches_a_wrong_hash(self, monkeypatch):
        monkeypatch.setattr(util, "_PCG64_MULT", util._PCG64_MULT + 2)
        with pytest.raises(RuntimeError, match="disagrees with numpy"):
            path_rngs(5, 3)


class TestSimulateDraws:
    @given(
        seed=words,
        n=st.integers(1, 12),
        d_drive=st.integers(1, 4),
        cells=st.integers(1, 8),
        correlated=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_match_reference_loop(self, seed, n, d_drive, cells, correlated):
        grid = TimeGrid(np.cumsum(np.r_[0.0, np.linspace(0.5, 1.5, cells)]))
        q = None
        if correlated:
            a = np.arange(1.0, d_drive * d_drive + 1).reshape(d_drive, d_drive) / 7.0
            q = a @ a.T + np.eye(d_drive)
        spec = NoiseSpec(2, d_drive, np.ones((2, d_drive)), q_drive=q)
        ens = simulate(spec, grid, n, seed)
        np.testing.assert_array_equal(ens.driver_increments, reference_draws(spec, grid, n, seed))

    @given(seed=words, n=st.integers(1, 10), extra=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_prefix_rule(self, seed, n, extra):
        grid = TimeGrid.uniform(1.0, 6)
        spec = NoiseSpec(3, 2, np.arange(6.0).reshape(3, 2) / 5.0)
        small = simulate(spec, grid, n, seed)
        large = simulate(spec, grid, n + extra, seed)
        np.testing.assert_array_equal(small.driver_increments, large.driver_increments[:n])
        np.testing.assert_array_equal(small.m_evals, large.m_evals[:n])
        np.testing.assert_array_equal(small.bracket.increments, large.bracket.increments[:n])

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate(NoiseSpec(1, 1, np.eye(1)), TimeGrid.uniform(1.0, 4), 3, -5)

