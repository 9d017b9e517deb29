"""Golden query logs: the algorithms' decisions, pinned query by query.

Each digest is the SHA-256 (first 16 hex digits) of a run's full query log,
one canonical key per line in issue order.  Identical billed counts can hide
different decisions; identical logs cannot.  The digests were recorded on
the pure-Python scans that :class:`repro.core.retrieved.RetrievedSet`
replaced (the seen-tuple check, the dominating-pivot search, PQ's domination
pruning), so any drift in which query the substrate makes an algorithm issue
fails here.
"""

import hashlib

import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen.diamonds import diamonds_table
from repro.datagen.flights import flights_mixed_table, flights_pq_table


def log_digest(result) -> str:
    digest = hashlib.sha256()
    for answer in result.query_log:
        digest.update(answer.query.canonical_key().encode("utf-8") + b"\n")
    return digest.hexdigest()[:16]


DISCOVERER = Discoverer(DiscoveryConfig(record_log=True))

# (seed, billed, digest) per algorithm on diamonds_table(1000, seed), k=10.
DIAMONDS = {
    "rq": [
        (0, 237, "f94b5aea16d6c05a"),
        (1, 286, "674d35faff187a1a"),
        (2, 341, "6498bcc6c0d4f932"),
    ],
    # An all-RQ schema: MQ-DB-SKY runs the range tree only.
    "mq": [
        (0, 237, "f94b5aea16d6c05a"),
        (1, 286, "674d35faff187a1a"),
        (2, 341, "6498bcc6c0d4f932"),
    ],
}
RQ_SKYBAND_2 = [
    (0, 2389, "d7d2a60c70200e53"),
    (1, 2297, "3e1235425cad5092"),
    (2, 2674, "4d54184b2418f837"),
]


@pytest.mark.parametrize(
    "algorithm, seed, billed, digest",
    [(name, *case) for name, cases in DIAMONDS.items() for case in cases],
)
def test_diamonds_skyline_logs(algorithm, seed, billed, digest):
    result = DISCOVERER.run(
        TopKInterface(diamonds_table(1000, seed), k=10), algorithm
    )
    assert (result.total_cost, log_digest(result)) == (billed, digest)


@pytest.mark.parametrize("seed, billed, digest", RQ_SKYBAND_2)
def test_diamonds_rq_skyband_logs(seed, billed, digest):
    result = DISCOVERER.skyband(
        TopKInterface(diamonds_table(1000, seed), k=10), 2, "rq"
    )
    assert (result.total_cost, log_digest(result)) == (billed, digest)


@pytest.mark.parametrize(
    "seed, billed, digest",
    [(0, 405, "105a2b968b2043a1"), (1, 323, "6344c49f1f9941f9")],
)
def test_mixed_mq_logs(seed, billed, digest):
    # Three range + three point attributes: both MQ phases run.
    table = flights_mixed_table(2000, 3, 3, seed=seed)
    result = DISCOVERER.run(TopKInterface(table, k=10), "mq")
    assert (result.total_cost, log_digest(result)) == (billed, digest)


@pytest.mark.parametrize(
    "seed, band, billed, digest",
    [
        (0, 1, 732, "1f62d063f5069c0c"),
        (1, 1, 702, "411026879067110d"),
        (0, 2, 775, "2787179f117ce7d3"),
        (1, 2, 745, "6699aae3d6ac3741"),
    ],
)
def test_pq_logs(seed, band, billed, digest):
    interface = TopKInterface(flights_pq_table(2000, 4, seed=seed), k=10)
    if band == 1:
        result = DISCOVERER.run(interface, "pq")
    else:
        result = DISCOVERER.skyband(interface, band, "pq")
    assert (result.total_cost, log_digest(result)) == (billed, digest)
