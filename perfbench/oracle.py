"""Correctness checks applied to every crawl the benchmark times.

A crawl fails when it raises, ends incomplete, returns a skyline other
than the exact skyline of the generated table, bills a different number of
queries than the run's first cold crawl, or -- for a warm re-crawl over a
filled ledger -- bills anything at all or replays a different number of
ledger answers than the cold crawl billed.  Each check returns the list of
problems it found; an empty list means the crawl is correct.  Nothing is
retried or dropped: the runner counts every crawl with a problem in
``failed``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.dominance import skyline_indices


def skyline_oracle(matrix: np.ndarray) -> frozenset[tuple[int, ...]]:
    """The exact skyline of ``matrix`` as a set of value vectors."""
    return frozenset(
        tuple(int(v) for v in matrix[i]) for i in skyline_indices(matrix)
    )


def check_result(result, expected: frozenset[tuple[int, ...]]) -> list[str]:
    """Problems of one finished discovery run against its oracle skyline."""
    problems = []
    if not result.complete:
        problems.append("crawl ended incomplete")
    found = result.skyline_values
    if found != expected:
        problems.append(
            f"skyline differs from the oracle: {len(expected - found)} "
            f"missing, {len(found - expected)} extra"
        )
    return problems


def check_billing(
    kind: str, billed: int, ledger_hits: int, reference: int | None
) -> list[str]:
    """Problems of a crawl's billed count.

    ``reference`` is the billed count of the run's first cold crawl
    (``None`` while checking that crawl itself).  A cold crawl must bill
    exactly the reference; a warm crawl must bill nothing and answer every
    one of the reference's queries from the ledger.
    """
    if kind == "warm":
        problems = []
        if billed != 0:
            problems.append(f"warm re-crawl billed {billed} queries")
        if reference is not None and ledger_hits != reference:
            problems.append(
                f"warm re-crawl replayed {ledger_hits} ledger answers, "
                f"cold crawl billed {reference}"
            )
        return problems
    if reference is not None and billed != reference:
        return [f"billed {billed} queries, first crawl billed {reference}"]
    return []


def error_rate(problem_lists: Iterable[list[str]]) -> tuple[int, int]:
    """``(failed, attempted)`` over the problem lists of a run's crawls."""
    failed = attempted = 0
    for problems in problem_lists:
        attempted += 1
        failed += bool(problems)
    return failed, attempted
