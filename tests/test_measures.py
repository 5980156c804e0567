from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylmart.measures import (
    GridMeasure,
    IncreasingPath,
    TimeGrid,
    _best_partition_value,
    measure_from_increasing,
    partial_sup,
    radon_nikodym,
    sup_density_measures,
    sup_measures,
    sup_measures_bruteforce,
)


def grid(*points):
    return TimeGrid(np.array(points, dtype=float))


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.n_cells == 4 and g.horizon == 2.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="start at 0"):
            grid(0.5, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            grid(0.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="at least two"):
            grid(0.0)

    def test_widths_computed_once_and_read_only(self):
        g = grid(0.0, 0.25, 0.5, 1.0)
        w = g.widths
        assert w is g.widths
        assert np.array_equal(w, np.diff(g.points))
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0

    def test_single_cell_grid_allowed(self):
        g = grid(0.0, 1.0)
        m = GridMeasure(g, np.array([0.7]))
        assert m.total_mass == 0.7


class TestMeasureFromIncreasing:
    def test_zero_path(self):
        g = TimeGrid.uniform(1.0, 5)
        m = measure_from_increasing(IncreasingPath(g, np.zeros(6)))
        assert m.total_mass == 0.0

    def test_identity_path(self):
        g = TimeGrid.uniform(1.0, 4)
        m = measure_from_increasing(IncreasingPath(g, g.points.copy()))
        np.testing.assert_array_equal(m.increments, [0.25] * 4)

    def test_quadratic_path(self):
        g = grid(0.0, 0.5, 1.0)
        m = measure_from_increasing(IncreasingPath(g, g.points**2))
        np.testing.assert_allclose(m.increments, [0.25, 0.75])

    def test_decreasing_rejected_with_index(self):
        g = TimeGrid.uniform(1.0, 3)
        with pytest.raises(ValueError, match="decrease at index 2"):
            IncreasingPath(g, np.array([0.0, 0.5, 0.4, 1.0]))

    def test_roundtrip_with_prefix(self):
        g = TimeGrid.uniform(1.0, 6)
        inc = np.array([1, 0, 2, 5, 0, 3], dtype=float) / 8
        m = GridMeasure(g, inc)
        back = measure_from_increasing(m.to_increasing())
        np.testing.assert_array_equal(back.increments, inc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_increment_rejected_with_cell(self, bad):
        g = TimeGrid.uniform(1.0, 4)
        with pytest.raises(ValueError, match="non-finite increment at cell 0"):
            GridMeasure(g, [bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite increment at cell 2"):
            GridMeasure(g, [1.0, 1.0, bad, 1.0])


class TestSupMeasures:
    def test_single_measure_fixed_point(self):
        g = TimeGrid.uniform(1.0, 3)
        m = GridMeasure(g, np.array([0.5, 0.0, 0.25]))
        for refine in (0, 1, 3):
            out = sup_measures([m], refine=refine)
            np.testing.assert_array_equal(out.increments, m.increments)

    def test_disjoint_supports(self):
        g = grid(0.0, 0.5, 1.0)
        m1 = GridMeasure(g, np.array([1.0, 0.0]))
        m2 = GridMeasure(g, np.array([0.0, 1.0]))
        out = sup_measures([m1, m2], refine=1)
        np.testing.assert_array_equal(out.increments, [1.0, 1.0])

    def test_idempotent_on_equal_measures(self):
        g = grid(0.0, 0.5, 1.0)
        m = GridMeasure(g, np.array([0.5, 0.5]))
        out = sup_measures([m, m])
        np.testing.assert_array_equal(out.increments, [0.5, 0.5])

    def test_mismatched_grids_rejected(self):
        m1 = GridMeasure(TimeGrid.uniform(1.0, 2), np.array([0.5, 0.5]))
        m2 = GridMeasure(TimeGrid.uniform(2.0, 2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="different grids"):
            sup_measures([m1, m2])
        with pytest.raises(ValueError, match="at least one"):
            sup_measures([])

    @pytest.mark.parametrize("sup", [sup_measures, sup_measures_bruteforce])
    def test_negative_refine_rejected(self, sup):
        m = GridMeasure(TimeGrid.uniform(1.0, 2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="refine must be an integer >= 0, got -1$"):
            sup([m], refine=-1)

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            g = TimeGrid.uniform(1.0, k)
            ms = [
                GridMeasure(g, rng.integers(0, 65, size=k) / 64.0)
                for _ in range(int(rng.integers(1, 4)))
            ]
            for refine in (0, 1):
                a = sup_measures(ms, refine=refine)
                b = sup_measures_bruteforce(ms, refine=refine)
                np.testing.assert_array_equal(a.increments, b.increments)

    @given(
        data=st.lists(
            st.lists(st.integers(0, 64), min_size=4, max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dominates_every_input_and_is_minimal(self, data):
        g = TimeGrid.uniform(1.0, 4)
        ms = [GridMeasure(g, np.array(row) / 64.0) for row in data]
        out = sup_measures(ms, refine=1)
        stacked = np.stack([m.increments for m in ms])
        assert np.all(out.increments >= stacked.max(axis=0))
        assert np.all(out.increments <= stacked.sum(axis=0) + 1e-15)
        # minimality: any grid measure dominating all inputs cellwise
        # dominates the output
        dominating = stacked.max(axis=0)
        assert np.all(dominating >= out.increments)

    def test_block_additivity(self):
        # restricting to disjoint index blocks and summing reproduces the sup
        rng = np.random.default_rng(3)
        g = TimeGrid.uniform(1.0, 6)
        ms = [GridMeasure(g, rng.integers(0, 65, size=6) / 64.0) for _ in range(3)]
        out = sup_measures(ms)
        assert out.interval_mass(0, 3) + out.interval_mass(3, 6) == pytest.approx(
            out.total_mass, abs=0
        )


def _enumerated_partition_value(atom_masses):
    """The oracle as first written: every one of the 2^(n-1) consecutive-block
    partitions, each summed left to right (verbatim copy)."""
    n = atom_masses.shape[1]
    best = -np.inf
    for n_cuts in range(n):
        for cuts in combinations(range(1, n), n_cuts):
            bounds = (0, *cuts, n)
            total = 0.0
            for a, b in zip(bounds[:-1], bounds[1:]):
                total += float(np.max(np.sum(atom_masses[:, a:b], axis=1)))
            best = max(best, total)
    return best


def _enumerated_sup_measures(measures, refine):
    """``sup_measures_bruteforce`` on top of the enumeration (verbatim copy)."""
    g = measures[0].grid
    n_sub = 2**refine
    stacked = np.stack([m.increments for m in measures])
    atoms = np.repeat(stacked / n_sub, n_sub, axis=1)
    out = np.empty(g.n_cells)
    for c in range(g.n_cells):
        block = atoms[:, c * n_sub : (c + 1) * n_sub]
        out[c] = _enumerated_partition_value(block)
    return out


# finite non-negative masses from subnormal to 1e300, drawn from a small pool
# so that blocks see ties and zeros as well as wildly mixed magnitudes
_MASS = st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True)


@st.composite
def _atom_blocks(draw, max_atoms=10):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_atoms))
    pool = draw(st.lists(_MASS, min_size=1, max_size=6)) + [0.0]
    values = draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n))
    return np.array(values).reshape(m, n)


_WILD_BLOCK = np.array([[1e300, 5e-324, 1.0, 1e-8, 1e8, 0.1, 0.2, 0.3, 1e16, 1.0]])
_TIED_BLOCK = np.array([[0.1] * 10, [0.2] * 10, [0.0] * 10])
# one dominant row of 9 atoms whose whole-block sum in numpy's pairwise order
# beats every other chain of cuts: a row summed in another order misses it
_PAIRWISE_BLOCK = np.array([[0.1, 0.3, 0.2, 3.3, 0.2, 3.3, 10.0, 0.7, 0.2], [0.0] * 9])


class TestPartitionOracle:
    """The prefix recursion against the enumeration of all partitions it
    replaces: equal bit for bit, not only for dyadic masses, on the whole
    block and on every sub-block of its table."""

    @given(block=_atom_blocks())
    @settings(max_examples=300, deadline=None)
    @example(block=_WILD_BLOCK)
    @example(block=_TIED_BLOCK)
    @example(block=_PAIRWISE_BLOCK)
    def test_equals_enumeration(self, block):
        assert _best_partition_value(block)[0, -1] == _enumerated_partition_value(block)

    @given(block=_atom_blocks())
    @settings(max_examples=150, deadline=None)
    @example(block=_WILD_BLOCK)
    @example(block=_TIED_BLOCK)
    @example(block=_PAIRWISE_BLOCK)
    def test_every_entry_equals_enumeration(self, block):
        n = block.shape[1]
        table = _best_partition_value(block)
        assert table.shape == (n + 1, n + 1)
        for s in range(n + 1):
            assert table[s, s] == 0.0 and np.all(table[s, :s] == -np.inf)
            for b in range(s + 1, n + 1):
                assert table[s, b] == _enumerated_partition_value(block[:, s:b])

    @given(block=_atom_blocks(max_atoms=23))
    @settings(max_examples=50, deadline=None)
    @example(block=_PAIRWISE_BLOCK)
    def test_table_ignores_memory_order(self, block):
        # every row is summed as numpy sums a C-ordered row, so Fortran-ordered
        # and reversed copies of one block give one table, bit for bit
        table = _best_partition_value(block)
        assert np.array_equal(_best_partition_value(np.asfortranarray(block)), table)
        flipped = np.ascontiguousarray(block[:, ::-1])[:, ::-1]
        assert np.array_equal(_best_partition_value(flipped), table)

    @given(
        data=st.data(),
        k=st.integers(1, 3),
        n_meas=st.integers(1, 3),
        refine=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_bruteforce_equals_enumeration(self, data, k, n_meas, refine):
        g = TimeGrid.uniform(1.0, k)
        ms = [
            GridMeasure(g, np.array(data.draw(st.lists(_MASS, min_size=k, max_size=k))))
            for _ in range(n_meas)
        ]
        got = sup_measures_bruteforce(ms, refine=refine).increments
        assert np.array_equal(got, _enumerated_sup_measures(ms, refine))

    def test_empty_block_is_an_error(self):
        with pytest.raises(ValueError, match="empty block"):
            _best_partition_value(np.zeros((2, 0)))


class TestPartialSup:
    def test_first_element(self):
        g = grid(0.0, 0.5, 1.0)
        m1 = GridMeasure(g, np.array([1.0, 0.0]))
        m2 = GridMeasure(g, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(partial_sup([m1, m2], 1).increments, [1.0, 0.0])
        np.testing.assert_array_equal(partial_sup([m1, m2], 2).increments, [1.0, 1.0])

    def test_monotone_and_converges(self):
        rng = np.random.default_rng(7)
        g = TimeGrid.uniform(1.0, 5)
        ms = [GridMeasure(g, rng.uniform(0, 1, 5)) for _ in range(6)]
        prev = None
        for n in range(1, 7):
            cur = partial_sup(ms, n)
            if prev is not None:
                assert np.all(cur.increments >= prev.increments)
            prev = cur
        np.testing.assert_array_equal(prev.increments, sup_measures(ms).increments)

    def test_constant_for_identical_measures(self):
        g = TimeGrid.uniform(1.0, 3)
        m = GridMeasure(g, np.array([0.1, 0.2, 0.3]))
        for n in (1, 2, 3):
            np.testing.assert_array_equal(
                partial_sup([m, m, m], n).increments, m.increments
            )

    def test_out_of_range(self):
        g = TimeGrid.uniform(1.0, 2)
        m = GridMeasure(g, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="1..1"):
            partial_sup([m], 2)


class TestSupDensity:
    def test_single_density_is_integration(self):
        g = TimeGrid.uniform(1.0, 4)
        base = GridMeasure(g, np.array([0.1, 0.2, 0.3, 0.4]))
        out = sup_density_measures([2.0], base)
        np.testing.assert_array_equal(out.increments, 2.0 * base.increments)

    def test_disjoint_indicator_densities(self):
        g = TimeGrid.uniform(1.0, 4)
        lebesgue = GridMeasure(g, g.widths)
        f1 = np.array([2.0, 2.0, 0.0, 0.0])
        f2 = np.array([0.0, 0.0, 2.0, 2.0])
        out = sup_density_measures([f1, f2], lebesgue)
        assert out.total_mass == pytest.approx(2.0)

    def test_constant_max(self):
        g = TimeGrid.uniform(1.0, 2)
        base = GridMeasure(g, np.array([0.5, 0.5]))
        out = sup_density_measures([1.0, 3.0], base)
        assert out.total_mass == pytest.approx(3.0)

    def test_negative_density_rejected(self):
        g = TimeGrid.uniform(1.0, 2)
        base = GridMeasure(g, g.widths)
        with pytest.raises(ValueError, match="density 1 is negative"):
            sup_density_measures([1.0, np.array([0.5, -0.1])], base)

    def test_equals_sup_of_integrated_measures(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            g = TimeGrid.uniform(1.0, k)
            base = GridMeasure(g, rng.integers(0, 17, k) / 16.0)
            fs = [rng.integers(0, 33, k) / 16.0 for _ in range(int(rng.integers(1, 4)))]
            lhs = sup_density_measures(fs, base)
            rhs = sup_measures([GridMeasure(g, f * base.increments) for f in fs])
            np.testing.assert_array_equal(lhs.increments, rhs.increments)


class TestRadonNikodym:
    def test_identity_density(self):
        g = TimeGrid.uniform(1.0, 4)
        mu = GridMeasure(g, np.array([0.1, 0.0, 0.3, 0.4]))
        out = radon_nikodym(mu, mu)
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, 1.0])

    def test_constant_multiple(self):
        g = TimeGrid.uniform(1.0, 3)
        mu = GridMeasure(g, np.array([0.2, 0.3, 0.5]))
        nu = GridMeasure(g, 2.0 * mu.increments)
        np.testing.assert_allclose(radon_nikodym(nu, mu), 2.0)

    def test_recovers_cell_constant_density(self):
        g = TimeGrid.uniform(1.0, 8)
        mu = GridMeasure(g, g.widths)
        f = 0.5 * (g.left + g.right)  # midpoint sampled density t
        nu = sup_density_measures([f], mu)
        np.testing.assert_allclose(radon_nikodym(nu, mu), f, rtol=1e-14)

    def test_window_averages(self):
        g = TimeGrid.uniform(1.0, 4)
        mu = GridMeasure(g, g.widths)
        nu = GridMeasure(g, np.array([0.0, 0.25, 0.25, 0.5]))
        out = radon_nikodym(nu, mu, eps_window=2)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 1.5])

    def test_absolute_continuity_violation(self):
        g = TimeGrid.uniform(1.0, 3)
        mu = GridMeasure(g, np.array([0.5, 0.0, 0.5]))
        nu = GridMeasure(g, np.array([0.1, 0.2, 0.1]))
        with pytest.raises(ValueError, match=r"cells \[1\]"):
            radon_nikodym(nu, mu)
