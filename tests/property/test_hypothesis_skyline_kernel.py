"""``skyline_indices`` against a naive pairwise-dominance reference.

The blocked kernel is the oracle of every other skyline check in the
repository, so it is checked here against the definition itself: row ``i``
is on the skyline iff no row ``j`` is ``<=`` it everywhere and ``<`` it
somewhere.  Matrices are built from hypothesis-drawn shapes and seeds so
they can reach the sizes where the kernel's block boundaries sit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dominance import skyline_indices

#: Candidate-block size of the kernel; the sizes below straddle it.
BLOCK = 512


def naive_skyline(matrix: np.ndarray) -> np.ndarray:
    """O(n^2) reference: positions of rows no other row dominates."""
    keep = [
        position
        for position, row in enumerate(matrix)
        if not np.any(
            np.all(matrix <= row, axis=1) & np.any(matrix < row, axis=1)
        )
    ]
    return np.array(keep, dtype=np.int64)


def antichain(size: int, extra_dominated: int, seed: int, m: int) -> np.ndarray:
    """``size`` mutually incomparable vectors (all on the skyline), plus
    ``extra_dominated`` vectors each dominated by one of them, shuffled."""
    rng = np.random.default_rng(seed)
    first = np.arange(size)
    front = np.zeros((size, m), dtype=np.int64)
    front[:, 0] = first
    front[:, 1] = size - 1 - first
    if m > 2:
        front[:, 2:] = rng.integers(0, 3, (size, m - 2))
    pick = rng.integers(0, size, extra_dominated)
    worse = front[pick] + rng.integers(0, 3, (extra_dominated, m))
    worse[:, 0] += 1  # strictly worse on at least one attribute
    matrix = np.vstack([front, worse])
    return matrix[rng.permutation(matrix.shape[0])]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=400),
    m=st.integers(min_value=1, max_value=5),
    domain=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dtype=st.sampled_from([np.int64, np.int32]),
)
def test_random_matrices_match_naive(n, m, domain, seed, dtype):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, domain, (n, m)).astype(dtype)
    assert skyline_indices(matrix).tolist() == naive_skyline(matrix).tolist()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_duplicate_heavy_small_domains(n, m, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 3, (n, m))
    got = skyline_indices(matrix)
    assert got.tolist() == naive_skyline(matrix).tolist()
    # Every copy of a skyline vector is on the skyline.
    sky = {tuple(row) for row in matrix[got].tolist()}
    copies = [i for i, row in enumerate(matrix.tolist()) if tuple(row) in sky]
    assert copies == got.tolist()


@settings(max_examples=12, deadline=None)
@given(
    size=st.sampled_from(
        [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 7]
    ),
    extra=st.integers(min_value=0, max_value=300),
    m=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dtype=st.sampled_from([np.int64, np.int32]),
)
def test_block_boundaries_match_naive(size, extra, m, seed, dtype):
    matrix = antichain(size, extra, seed, m).astype(dtype)
    assert skyline_indices(matrix).tolist() == naive_skyline(matrix).tolist()


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_exact_block_sized_skylines(size):
    # Exactly ``size`` distinct vectors, all on the skyline.
    matrix = antichain(size, 0, seed=size, m=3)
    assert skyline_indices(matrix).tolist() == list(range(size))


def test_empty_input():
    for m in (1, 3):
        assert skyline_indices(np.empty((0, m), dtype=np.int64)).size == 0


def test_single_attribute_keeps_every_copy_of_the_minimum():
    matrix = np.array([[3], [1], [2], [1], [5]])
    assert skyline_indices(matrix).tolist() == [1, 3]


def test_many_blocks_of_candidates():
    # ~8 candidate blocks after deduplication, skyline of ~1,000 vectors.
    matrix = antichain(1000, 3000, seed=7, m=3)
    assert skyline_indices(matrix).tolist() == naive_skyline(matrix).tolist()


def test_caller_supplied_int32_matches_int64():
    matrix = antichain(600, 200, seed=3, m=3)
    assert (
        skyline_indices(matrix.astype(np.int32)).tolist()
        == skyline_indices(matrix).tolist()
        == naive_skyline(matrix).tolist()
    )
