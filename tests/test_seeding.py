"""Path seeding against numpy's own generator.

Every ensemble draws its standard normals from one stream,
``Generator(PCG64(SeedSequence((seed, 0))))``, path-major: path ``i`` is the
``i``-th (K, d_drive) block.  The reference draws those blocks one path at a
time from numpy's generator; ``simulate`` must reproduce it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylmart._util import path_rngs, single_rng
from cylmart.martingales import SCALE_CHUNK_BYTES, NoiseSpec, simulate
from cylmart.measures import TimeGrid
from cylmart.operators import psd_sqrt

# seeds across [0, 2**64): one- and two-word SeedSequence entropy
words = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
)


def numpy_stream(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))


def reference_draws(spec, grid, n_paths, seed):
    root_q = psd_sqrt(spec.q())
    scale = np.sqrt(grid.widths)[:, None]
    rng = numpy_stream(seed)
    return np.stack(
        [
            (rng.standard_normal((grid.n_cells, spec.d_drive)) @ root_q.T) * scale
            for _ in range(n_paths)
        ]
    )


SPEC = NoiseSpec(3, 2, np.arange(6.0).reshape(3, 2) / 5.0)
GRID = TimeGrid.uniform(1.0, 6)


class TestPathRngs:
    @given(seed=words, n=st.integers(1, 10), extra=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_chunks_match_one_shot_draw(self, seed, n, extra):
        # consecutive chunks from the one generator are the one-shot draw
        rng = numpy_stream(seed)
        chunks = np.concatenate(
            [rng.standard_normal((n, 4, 3)), rng.standard_normal((extra, 4, 3))]
        )
        np.testing.assert_array_equal(path_rngs(seed, n + extra, (4, 3)), chunks)
        np.testing.assert_array_equal(
            chunks, numpy_stream(seed).standard_normal((n + extra, 4, 3))
        )

    def test_numpy_integer_seeds(self):
        expected = simulate(SPEC, GRID, 3, 7).driver_increments
        for seed in (np.int64(7), np.uint64(7)):
            np.testing.assert_array_equal(simulate(SPEC, GRID, 3, seed).driver_increments, expected)
        np.testing.assert_array_equal(expected, reference_draws(SPEC, GRID, 3, 7))

    def test_length_and_empty(self):
        # one block per path, so the benchmark's stream count is the path count
        assert len(path_rngs(3, 17, (4, 2))) == 17
        assert path_rngs(3, 0, (4, 2)).shape == (0, 4, 2)
        with pytest.raises(ValueError, match="n_paths must be an integer >= 1, got 0$"):
            simulate(SPEC, GRID, 0, 3)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-(2**40), 0)])
    def test_negative_seed_raises(self, seed, stream):
        # a negative seed is refused by name, numpy's SeedSequence refuses a
        # negative stream word
        named = f"seed must be an integer >= 0, got {seed}$"
        with pytest.raises(ValueError, match="non-negative" if stream else named):
            single_rng(seed, stream)
        if stream == 0:
            with pytest.raises(ValueError, match=named):
                path_rngs(seed, 4, (2,))
            with pytest.raises(ValueError, match=named):
                simulate(SPEC, GRID, 3, seed)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_non_integer_seed_raises(self, seed):
        with pytest.raises(TypeError):
            path_rngs(seed, 4, (2,))
        with pytest.raises(TypeError):
            simulate(SPEC, GRID, 4, seed)


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
        small = simulate(SPEC, GRID, n, seed)
        large = simulate(SPEC, GRID, n + extra, seed)
        np.testing.assert_array_equal(small.driver_increments, large.driver_increments[:n])
        np.testing.assert_array_equal(small.m_evals, large.m_evals[:n])
        np.testing.assert_array_equal(small.bracket.increments, large.bracket.increments[:n])

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -5$"):
            simulate(NoiseSpec(1, 1, np.eye(1)), TimeGrid.uniform(1.0, 4), 3, -5)

    def test_prefix_rule_across_a_scaling_chunk(self):
        # Q^{1/2} is applied a chunk of paths at a time: one chunk and one
        # path beyond it, against smaller ensembles and the per-path loop
        grid = TimeGrid.uniform(1.0, 64)
        q = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.5], [0.0, 0.5, 1.5]])
        spec = NoiseSpec(2, 3, np.arange(6.0).reshape(2, 3) / 5.0, q_drive=q)
        chunk = SCALE_CHUNK_BYTES // (grid.n_cells * spec.d_drive * 8)
        large = simulate(spec, grid, chunk + 1, seed=11)
        np.testing.assert_array_equal(
            large.driver_increments, reference_draws(spec, grid, chunk + 1, 11)
        )
        for p in (1, chunk - 1, chunk):
            small = simulate(spec, grid, p, seed=11)
            np.testing.assert_array_equal(small.driver_increments, large.driver_increments[:p])

    def test_peak_one_path_array_and_one_chunk(self):
        # scaling the whole array at once copied it first: twice its bytes
        grid = TimeGrid.uniform(1.0, 256)
        spec = NoiseSpec(1, 1, np.eye(1))
        simulate(spec, grid, 2, seed=12)
        tracemalloc.start()
        try:
            ens = simulate(spec, grid, 10_000, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # next to the path array and one chunk: per-cell arrays of K entries
        assert peak <= ens.driver_increments.nbytes + SCALE_CHUNK_BYTES + 64 * grid.n_cells * 8
