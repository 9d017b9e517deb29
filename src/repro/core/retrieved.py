"""The retrieved-tuple substrate of a discovery session.

:class:`RetrievedSet` keeps every distinct retrieved tuple, in first-retrieval
order, in an amortised-doubling ``int64`` matrix, so checks over "every tuple
retrieved so far" are numpy passes: RQ-DB-SKY's seen-tuple check (Algorithm 2,
line 3) and dominating-pivot rule (line 11), PQ's domination pruning, and the
skyline / skyband of a result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hiddendb.query import Query
from ..hiddendb.table import Row
from .dominance import skyband_indices, skyline_indices


@dataclass(frozen=True)
class TraceEntry:
    """One point of the anytime discovery curve."""

    cost: int  #: queries issued when the tuple was first retrieved
    row: Row


class RetrievedSet:
    """Distinct retrieved tuples and their first-retrieval cost, in order.

    The matrix width comes from the first added row, so an empty set never
    asks the endpoint for its schema.
    """

    def __init__(self) -> None:
        self._values = np.empty((0, 0), dtype=np.int64)
        self._rids = np.empty(0, dtype=np.int64)
        self._entries: list[TraceEntry] = []
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rid: object) -> bool:
        return rid in self._seen

    def add(self, row: Row, cost: int) -> TraceEntry | None:
        """Record ``row`` first retrieved at ``cost``; ``None`` if seen."""
        if row.rid in self._seen:
            return None
        size = len(self._entries)
        if size == self._rids.size:  # full: double (np.resize keeps rows)
            capacity = max(64, 2 * size)
            self._values = np.resize(self._values, (capacity, len(row.values)))
            self._rids = np.resize(self._rids, capacity)
        self._values[size] = row.values
        self._rids[size] = row.rid
        entry = TraceEntry(cost, row)
        self._entries.append(entry)
        self._seen.add(row.rid)
        return entry

    @property
    def values(self) -> np.ndarray:
        """Read-only ``(n, m)`` values; row ``i`` is the ``i``-th retrieval."""
        view = self._values[: len(self._entries)]
        view.flags.writeable = False
        return view

    @property
    def rids(self) -> np.ndarray:
        """Read-only row ids, aligned with :attr:`values`."""
        view = self._rids[: len(self._entries)]
        view.flags.writeable = False
        return view

    @property
    def rows(self) -> list[Row]:
        """The retrieved rows in first-retrieval order (a fresh list)."""
        return [entry.row for entry in self._entries]

    def _matching(self, query: Query) -> np.ndarray | bool:
        """Mask of tuples inside ``query``'s ranges (filters are ignored, as
        in :meth:`Query.matches_row`); ``True`` when it has none."""
        mask: np.ndarray | bool = True
        for index, interval in query.ranges.items():
            column = self.values[:, index]
            mask = mask & (column <= interval.hi)
            if interval.lo > 0:
                mask &= column >= interval.lo
        return mask

    def any_match(self, query: Query) -> bool:
        """Whether any retrieved tuple satisfies ``query``'s ranges."""
        return bool(self._entries) and bool(np.any(self._matching(query)))

    def first_dominator(self, row: Row, within: Query | None = None) -> Row | None:
        """The earliest-retrieved tuple dominating ``row``, never ``row``
        itself (by rid), and only among tuples matching ``within``."""
        if not self._entries:
            return None
        values, target = self.values, np.asarray(row.values, dtype=np.int64)
        mask = np.all(values <= target, axis=1) & np.any(values < target, axis=1)
        mask &= self.rids != row.rid
        if within is not None:
            mask &= self._matching(within)
        position = int(mask.argmax())
        return self._entries[position].row if mask[position] else None

    def skyline(self) -> list[TraceEntry]:
        """Entries on the skyline of everything retrieved, in retrieval order."""
        return [self._entries[p] for p in skyline_indices(self.values).tolist()]

    def skyband(self, band: int) -> list[TraceEntry]:
        """Entries on the top-``band`` skyband, in retrieval order."""
        return [self._entries[p] for p in skyband_indices(self.values, band).tolist()]
