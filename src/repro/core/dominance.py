"""Dominance tests and offline skyline / K-skyband computation.

These are the classical *full-access* operators (Borzsony et al., ICDE 2001)
used in two roles:

* as the ground-truth oracle that verifies the hidden-database discovery
  algorithms (the oracle sees the raw matrix; the algorithms never do);
* as the local post-processing step of the BASELINE crawler, which first
  crawls every tuple and then extracts the skyline locally.

All values are in preference space: smaller is better on every attribute.
A tuple ``t`` dominates ``u`` iff ``t <= u`` component-wise and ``t < u`` on
at least one component; tuples with identical value vectors do not dominate
each other (the paper's general-positioning convention).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hiddendb.table import Row


def dominates(left: Sequence[int], right: Sequence[int]) -> bool:
    """Whether value vector ``left`` dominates ``right``."""
    strictly_better = False
    for left_value, right_value in zip(left, right):
        if left_value > right_value:
            return False
        if left_value < right_value:
            strictly_better = True
    return strictly_better


def dominates_row(left: Row, right: Row) -> bool:
    """Whether row ``left`` dominates row ``right``."""
    return dominates(left.values, right.values)


#: Candidates tested together, and kept skyline vectors tested against them
#: at a time (strongest first: the kept skyline is in coordinate-sum order).
_BLOCK, _KEPT_PIECE = 512, 256


def _weakly_dominated(kept: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``(s, b)`` mask: column ``i`` of ``kept`` is ``<=`` column ``j`` of
    ``block`` on every attribute (both ``(m, .)``, one row per attribute)."""
    mask = kept[0][:, None] <= block[0][None, :]
    for attribute in range(1, kept.shape[0]):
        mask &= kept[attribute][:, None] <= block[attribute][None, :]
    return mask


def skyline_indices(matrix: np.ndarray) -> np.ndarray:
    """Row positions of the skyline of ``matrix``, sorted ascending.

    Sort-filter-skyline over the *distinct* value vectors: vectors are
    visited in ascending coordinate-sum order (no vector can be dominated by
    a later one) in blocks, each block first filtered against the kept
    skyline and then against itself.  Between distinct vectors weak
    dominance is strict dominance, so one ``<=`` mask decides both tests.
    Duplicated vectors do not dominate each other, so every row carrying a
    skyline vector is on the skyline.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if 0 in matrix.shape:
        # No rows, or no attributes: every row ties with every other.
        return np.arange(matrix.shape[0], dtype=np.int64)
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    order = np.argsort(unique.sum(axis=1), kind="stable")
    columns = np.ascontiguousarray(unique.T)
    kept = np.empty((unique.shape[1], 0), dtype=unique.dtype)
    on_skyline = np.zeros(unique.shape[0], dtype=bool)
    for start in range(0, order.size, _BLOCK):
        # By transitivity, testing against the kept skyline and the block's
        # own members is exact.
        block = order[start : start + _BLOCK]
        for piece in range(0, kept.shape[1], _KEPT_PIECE):
            strong = kept[:, piece : piece + _KEPT_PIECE]
            block = block[~_weakly_dominated(strong, columns[:, block]).any(axis=0)]
        own = columns[:, block]
        beaten = _weakly_dominated(own, own)
        np.fill_diagonal(beaten, False)
        block = block[~beaten.any(axis=0)]
        on_skyline[block] = True
        kept = np.concatenate([kept, columns[:, block]], axis=1)
    return np.flatnonzero(on_skyline[inverse.reshape(-1)])


def dominator_counts(matrix: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Number of tuples dominating each row (counts clip at ``cap``).

    Rows are visited in ascending coordinate-sum order, in blocks compared
    against the prefix that can dominate them: ``t`` dominates ``u`` iff
    ``t <= u`` everywhere and not ``u <= t`` everywhere.
    """
    matrix = np.asarray(matrix)
    counts = np.zeros(matrix.shape[0], dtype=np.int64)
    if 0 in matrix.shape:
        return counts
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    columns = np.ascontiguousarray(matrix[order].T)
    for start in range(0, order.size, _BLOCK):
        end = start + _BLOCK
        prefix, block = columns[:, :end], columns[:, start:end]
        beaten = _weakly_dominated(prefix, block)
        beaten &= ~_weakly_dominated(block, prefix).T
        counts[order[start:end]] = beaten.sum(axis=0)
    return counts if cap is None else np.minimum(counts, cap)


def skyband_indices(matrix: np.ndarray, k_band: int) -> np.ndarray:
    """Row positions of the top-``k_band`` skyband, sorted ascending.

    A tuple belongs to the K-skyband iff it is dominated by fewer than ``K``
    other tuples; the skyline is the special case ``K = 1``.
    """
    if k_band < 1:
        raise ValueError(f"k_band must be >= 1, got {k_band}")
    counts = dominator_counts(matrix, cap=k_band)
    return np.flatnonzero(counts < k_band)
