"""Tests for dominance and the offline skyline / skyband oracles."""

import numpy as np
import pytest

from repro.core.dominance import (
    dominates,
    dominates_row,
    dominator_counts,
    skyband_indices,
    skyline_indices,
)
from repro.hiddendb import Row


class TestDominates:
    def test_strict_domination(self):
        assert dominates((0, 0), (1, 1))
        assert dominates((0, 1), (0, 2))

    def test_no_self_domination_on_equal_vectors(self):
        assert not dominates((1, 1), (1, 1))

    def test_incomparable(self):
        assert not dominates((0, 1), (1, 0))
        assert not dominates((1, 0), (0, 1))

    def test_antisymmetry(self):
        assert dominates((0, 0), (0, 1))
        assert not dominates((0, 1), (0, 0))

    def test_row_wrapper(self):
        assert dominates_row(Row(0, (0, 0)), Row(1, (1, 1)))


class TestSkylineIndices:
    def test_simple(self):
        matrix = np.array([[0, 9], [5, 5], [9, 0], [6, 6]])
        assert skyline_indices(matrix).tolist() == [0, 1, 2]

    def test_single_tuple(self):
        assert skyline_indices(np.array([[3, 3]])).tolist() == [0]

    def test_empty(self):
        assert skyline_indices(np.empty((0, 2))).size == 0

    def test_duplicates_are_all_on_the_skyline(self):
        matrix = np.array([[1, 1], [1, 1], [2, 2]])
        assert skyline_indices(matrix).tolist() == [0, 1]

    def test_one_dimension(self):
        matrix = np.array([[3], [1], [1], [2]])
        assert skyline_indices(matrix).tolist() == [1, 2]

    def test_total_dominator(self):
        matrix = np.array([[5, 5], [0, 0], [3, 9]])
        assert skyline_indices(matrix).tolist() == [1]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            skyline_indices(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        m = int(rng.integers(1, 5))
        matrix = rng.integers(0, 6, (n, m))
        naive = {
            i
            for i in range(n)
            if not any(
                dominates(matrix[j], matrix[i]) for j in range(n) if j != i
            )
        }
        assert set(skyline_indices(matrix).tolist()) == naive

    def test_large_chunked_path(self):
        # Many 512-candidate blocks: exercises the multi-block code path.
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 50, (10_000, 3))
        indices = skyline_indices(matrix)
        sky = matrix[indices]
        for candidate in sky[:20]:
            assert not any(
                dominates(other, candidate)
                for other in sky
                if not np.array_equal(other, candidate)
            )


class TestDominatorCounts:
    def test_chain(self):
        matrix = np.array([[0, 0], [1, 1], [2, 2]])
        assert dominator_counts(matrix).tolist() == [0, 1, 2]

    def test_cap(self):
        matrix = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert dominator_counts(matrix, cap=2).tolist() == [0, 1, 2, 2]

    def test_incomparable(self):
        matrix = np.array([[0, 1], [1, 0]])
        assert dominator_counts(matrix).tolist() == [0, 0]

    def test_duplicates_do_not_count(self):
        matrix = np.array([[1, 1], [1, 1]])
        assert dominator_counts(matrix).tolist() == [0, 0]


class TestSkyband:
    def test_band_one_is_skyline(self):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 8, (100, 3))
        assert skyband_indices(matrix, 1).tolist() == skyline_indices(matrix).tolist()

    def test_band_grows_monotonically(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 8, (100, 3))
        previous: set[int] = set()
        for band in (1, 2, 3, 4):
            current = set(skyband_indices(matrix, band).tolist())
            assert previous <= current
            previous = current

    def test_band_must_be_positive(self):
        with pytest.raises(ValueError):
            skyband_indices(np.array([[1]]), 0)
