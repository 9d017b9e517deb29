"""Tests for :class:`repro.core.retrieved.RetrievedSet`.

``any_match`` and ``first_dominator`` replace two Python scans of RQ-DB-SKY
over every retrieved tuple; the reference functions below are those scans,
kept verbatim so the substrate is checked against the decisions it must
reproduce.
"""

import numpy as np
import pytest

from repro.core.dominance import dominates, skyband_indices, skyline_indices
from repro.core.retrieved import RetrievedSet, TraceEntry
from repro.hiddendb import Query, Row


def scan_any_match(rows, query):
    return any(query.matches_row(row) for row in rows)


def scan_first_dominator(rows, top, query):
    for row in rows:
        if (
            row.rid != top.rid
            and query.matches_row(row)
            and dominates(row.values, top.values)
        ):
            return row
    return None


def random_query(rng, m, domain):
    """A random conjunction of one- and two-ended ranges (maybe ``SELECT *``)."""
    query = Query.select_all()
    for attribute in range(m):
        roll = rng.integers(0, 4)
        if roll == 1:
            query = query.and_upper(attribute, int(rng.integers(0, domain)))
        elif roll == 2:
            query = query.and_lower(attribute, int(rng.integers(0, domain)), domain)
        elif roll == 3:
            lo, hi = sorted(int(v) for v in rng.integers(0, domain, 2))
            query = query.and_lower(attribute, lo, domain).and_upper(attribute, hi)
    return query


def random_history(rng, size, m, domain):
    """Rows with scattered, sometimes repeated rids (re-retrievals)."""
    rids = rng.choice(10 * size, size=size)
    return [
        Row(int(rid), tuple(int(v) for v in rng.integers(0, domain, m)))
        for rid in rids
    ]


def filled(rows):
    """A set holding ``rows``, the ``i``-th retrieved at cost ``i``."""
    retrieved = RetrievedSet()
    for cost, row in enumerate(rows):
        retrieved.add(row, cost)
    return retrieved


class TestAgainstScans:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        m, domain = int(rng.integers(1, 5)), int(rng.integers(2, 12))
        retrieved = RetrievedSet()
        seen: list[Row] = []
        # 300 additions: grows past the initial capacity mid-history.
        for cost, row in enumerate(random_history(rng, 300, m, domain)):
            if retrieved.add(row, cost) is not None:
                seen.append(row)
            for _ in range(3):
                query = random_query(rng, m, domain)
                assert retrieved.any_match(query) == scan_any_match(seen, query)
                top = seen[int(rng.integers(0, len(seen)))]
                if rng.integers(0, 2):
                    # A fresh vector, possibly outside everything seen.
                    top = Row(top.rid, tuple(
                        int(v) for v in rng.integers(0, domain + 1, m)
                    ))
                assert retrieved.first_dominator(
                    top, within=query
                ) == scan_first_dominator(seen, top, query)
        assert retrieved.rows == seen
        assert retrieved.rids.tolist() == [row.rid for row in seen]
        assert retrieved.values.tolist() == [list(row.values) for row in seen]

    def test_first_dominator_in_retrieval_order(self):
        retrieved = RetrievedSet()
        for cost, row in enumerate(
            [Row(7, (5, 5)), Row(3, (2, 4)), Row(9, (1, 1)), Row(4, (3, 3))]
        ):
            retrieved.add(row, cost)
        # rid 3, 9 and 4 all dominate (4, 4); 3 was retrieved first.
        assert retrieved.first_dominator(Row(1, (4, 4))).rid == 3
        assert retrieved.first_dominator(Row(1, (0, 0))) is None

    def test_own_rid_never_dominates(self):
        retrieved = RetrievedSet()
        retrieved.add(Row(5, (1, 1)), 1)
        retrieved.add(Row(6, (2, 2)), 1)
        # Same rid as the (1, 1) entry: it is skipped, (2, 2) is next.
        assert retrieved.first_dominator(Row(5, (3, 3))).rid == 6
        assert retrieved.first_dominator(Row(6, (3, 3))).rid == 5
        assert retrieved.first_dominator(Row(6, (2, 2))).rid == 5

    def test_within_subspace_query(self):
        # The skyband recursion roots a tree at a domination subspace; a
        # dominator outside it must not be chosen.
        retrieved = RetrievedSet()
        retrieved.add(Row(1, (0, 0)), 1)  # dominates everything, outside
        retrieved.add(Row(2, (3, 3)), 2)  # inside, dominates (4, 4)
        subspace = Query.select_all().and_lower(0, 1, 10)
        assert retrieved.first_dominator(Row(3, (4, 4))).rid == 1
        assert retrieved.first_dominator(Row(3, (4, 4)), within=subspace).rid == 2
        assert retrieved.any_match(subspace)
        assert not retrieved.any_match(Query.select_all().and_lower(0, 4, 10))

    def test_any_dominator(self):
        retrieved = filled([Row(0, (1, 1)), Row(1, (3, 0))])
        assert retrieved.first_dominator(Row(2, (2, 2))).rid == 0
        assert retrieved.first_dominator(Row(2, (0, 0))) is None

    def test_filters_are_ignored_like_matches_row(self):
        retrieved = RetrievedSet()
        retrieved.add(Row(1, (2, 2)), 1)
        assert retrieved.any_match(Query.select_all().and_filter("city", 3))


class TestBookkeeping:
    def test_empty_set(self):
        retrieved = RetrievedSet()
        assert len(retrieved) == 0
        assert 0 not in retrieved
        assert not retrieved.any_match(Query.select_all())
        assert retrieved.first_dominator(Row(0, (1, 1))) is None
        assert retrieved.skyline() == []
        assert retrieved.skyband(2) == []
        assert retrieved.values.shape[0] == 0
        assert retrieved.rows == []

    def test_repeat_keeps_first_cost(self):
        retrieved = RetrievedSet()
        assert retrieved.add(Row(4, (1, 2)), 3) == TraceEntry(3, Row(4, (1, 2)))
        assert retrieved.add(Row(4, (1, 2)), 8) is None
        assert retrieved.skyline() == [TraceEntry(3, Row(4, (1, 2)))]
        assert 4 in retrieved and len(retrieved) == 1

    def test_views_are_read_only(self):
        retrieved = RetrievedSet()
        retrieved.add(Row(1, (1, 2)), 1)
        with pytest.raises(ValueError):
            retrieved.values[0, 0] = 9
        with pytest.raises(ValueError):
            retrieved.rids[0] = 9

    def test_skyline_preserves_retrieval_order(self):
        retrieved = filled([Row(7, (5, 5)), Row(3, (0, 9)), Row(9, (6, 6))])
        assert [entry.row.rid for entry in retrieved.skyline()] == [7, 3]
        assert [entry.cost for entry in retrieved.skyline()] == [0, 1]

    def test_skyband_preserves_retrieval_order(self):
        retrieved = filled([Row(0, (0, 0)), Row(1, (1, 1)), Row(2, (2, 2))])
        assert [entry.row.rid for entry in retrieved.skyband(2)] == [0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_skyline_and_skyband_match_matrix_oracles(self, seed):
        rng = np.random.default_rng(seed)
        retrieved = RetrievedSet()
        for cost, row in enumerate(random_history(rng, 200, 3, 6)):
            retrieved.add(row, cost)
        rows = retrieved.rows
        matrix = np.array([row.values for row in rows])
        assert [e.row for e in retrieved.skyline()] == [
            rows[p] for p in skyline_indices(matrix)
        ]
        for band in (1, 2, 3):
            assert [e.row for e in retrieved.skyband(band)] == [
                rows[p] for p in skyband_indices(matrix, band)
            ]
