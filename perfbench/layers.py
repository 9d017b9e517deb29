"""Per-layer time budget, measured from outside the program.

While a traced crawl runs, :func:`tracing` replaces the public functions at
each layer boundary with wrappers that record a span -- name, start, end,
parent span and crawl id -- into a :class:`SpanLog` held in memory.  The
program itself is not instrumented.  Two hot functions are only counted,
not timed (``Query`` construction and ``Query.matches_row``): a span per
call would cost more than the work it measures.

A span's self time is its duration minus the durations of its child spans;
spans nest strictly because every workload drives one thread.  A layer's
self time is the sum over its spans.  Whatever the timed layers do not
cover is the algorithm's own bookkeeping (``core.algo``), computed as the
remainder of the crawl's wall time.
"""

from __future__ import annotations

import functools
import http.client
from array import array
from contextlib import contextmanager
from time import perf_counter_ns as _clock
from typing import Iterable, Iterator

import numpy as np

from repro import Discoverer, Query, TopKInterface
from repro.core.base import DiscoverySession
from repro.service import RemoteTopKInterface
from repro.store import CrawlStore

#: Timed layers, in the order the budget report lists ties.
LAYERS = (
    "core.base.record",
    "hiddendb.interface",
    "hiddendb.dataplane",
    "hiddendb.query.validate",
    "service.client",
    "service.wire",
    "store.ledger_put",
    "store.ledger_get",
    "store.checkpoint",
)
#: The root span of one ``Discoverer.run``; its self time is algorithm time.
ROOT = "crawl"
#: Counted, untimed calls.
COUNTERS = ("hiddendb.query.built", "hiddendb.query.matches_row")


class SpanLog:
    """Spans of one traced run, kept in memory as parallel arrays."""

    def __init__(self) -> None:
        self.names = (ROOT, *LAYERS)
        self.parent = array("q")
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.crawl = array("q")
        self.crawl_id = 0  #: stamped on every span opened from now on
        self.counts = [0] * len(COUNTERS)  #: of the crawl being traced
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def timed(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        code = self.names.index(name)
        parent, names, start, end, crawl = (
            self.parent, self.name, self.start, self.end, self.crawl
        )
        stack = self._stack
        clock = _clock
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(code)
            crawl.append(log.crawl_id)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls."""
        slot = COUNTERS.index(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take_counts(self) -> dict[str, int]:
        """The counters since the last call, then reset them."""
        taken = dict(zip(COUNTERS, self.counts))
        self.counts[:] = [0] * len(COUNTERS)
        return taken

    def layer_totals(self, crawl_id: int) -> dict[str, dict[str, float]]:
        """``{layer: {calls, incl_s, self_s}}`` over one crawl's spans."""
        crawl = np.frombuffer(self.crawl, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int8)
        duration = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        )
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_ns = duration - covered
        mine = crawl == crawl_id
        totals = {}
        for code, layer in enumerate(self.names):
            pick = mine & (name == code)
            totals[layer] = {
                "calls": int(pick.sum()),
                "incl_s": float(duration[pick].sum()) / 1e9,
                "self_s": float(self_ns[pick].sum()) / 1e9,
            }
        return totals

    def write_jsonl(self, path) -> None:
        """One JSON object per span: id, parent, name, start, end, crawl."""
        names = self.names
        with open(path, "w", encoding="utf-8") as sink:
            for i, (p, c, s, e, k) in enumerate(
                zip(self.parent, self.name, self.start, self.end, self.crawl)
            ):
                sink.write(
                    f'{{"id":{i},"parent":{p},"name":"{names[c]}",'
                    f'"start_ns":{s},"end_ns":{e},"crawl":{k}}}\n'
                )


def _boundaries(log: SpanLog, engine_classes: Iterable[type]):
    """``(owner, attribute, wrapper)`` for every patched function."""
    timed = [
        (Discoverer, "run", ROOT),
        (DiscoverySession, "record", "core.base.record"),
        (TopKInterface, "query", "hiddendb.interface"),
        (TopKInterface, "batch_query", "hiddendb.interface"),
        (Query, "validate", "hiddendb.query.validate"),
        (RemoteTopKInterface, "query", "service.client"),
        (RemoteTopKInterface, "batch_query", "service.client"),
        (http.client.HTTPConnection, "request", "service.wire"),
        (http.client.HTTPConnection, "getresponse", "service.wire"),
        (http.client.HTTPResponse, "read", "service.wire"),
        (CrawlStore, "ledger_put", "store.ledger_put"),
        (CrawlStore, "ledger_get", "store.ledger_get"),
        (CrawlStore, "save_checkpoint", "store.checkpoint"),
    ]
    timed += [(cls, "top_rows", "hiddendb.dataplane") for cls in engine_classes]
    for owner, attr, name in timed:
        yield owner, attr, log.timed(name, getattr(owner, attr))
    yield Query, "__init__", log.counted("hiddendb.query.built", Query.__init__)
    yield Query, "matches_row", log.counted(
        "hiddendb.query.matches_row", Query.matches_row
    )


@contextmanager
def tracing(log: SpanLog, engine_classes: Iterable[type]) -> Iterator[SpanLog]:
    """Record spans into ``log`` for the duration of the block."""
    missing = object()
    saved = []
    try:
        for owner, attr, wrapper in _boundaries(log, engine_classes):
            saved.append((owner, attr, owner.__dict__.get(attr, missing)))
            setattr(owner, attr, wrapper)
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            if original is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def budget(
    totals: dict[str, dict[str, float]],
    wall_s: float,
    server: dict[str, float] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-layer ``{calls, self_s, share, us_per_call}`` of one crawl.

    ``server`` holds the ``/metrics`` deltas of a remote crawl: its request
    time is the part of the wire spans the server spent handling requests,
    so it moves from ``service.wire`` to ``service.server``.
    ``core.algo`` is the crawl wall time no timed layer covers.
    """
    rows: dict[str, dict[str, float]] = {}
    for layer in LAYERS:
        t = totals[layer]
        rows[layer] = {
            "calls": t["calls"],
            "self_s": t["self_s"],
            "us_per_call": t["incl_s"] / t["calls"] * 1e6 if t["calls"] else 0.0,
        }
    if server is not None and server["requests"]:
        rows["service.wire"]["self_s"] -= server["request_s"]
        rows["service.server"] = {
            "calls": server["requests"],
            "self_s": server["request_s"],
            "us_per_call": server["request_s"] / server["requests"] * 1e6,
        }
    rows["core.algo"] = {
        "calls": totals[ROOT]["calls"],
        "self_s": wall_s - sum(row["self_s"] for row in rows.values()),
        "us_per_call": 0.0,
    }
    for row in rows.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return rows


def negative_layers(rows: dict[str, dict[str, float]]) -> list[str]:
    """Layers whose self time came out negative (a measurement fault)."""
    return [layer for layer, row in rows.items() if row["self_s"] < 0]


def render(rows: dict[str, dict[str, float]]) -> str:
    """The budget as a table, largest share first."""
    lines = [f"{'layer':<26}{'calls':>10}{'self_s':>10}{'share':>8}{'us/call':>10}"]
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["share"]):
        per_call = f"{row['us_per_call']:.2f}" if row["us_per_call"] else "-"
        lines.append(
            f"{layer:<26}{int(row['calls']):>10}{row['self_s']:>10.4f}"
            f"{row['share']:>8.3f}{per_call:>10}"
        )
    return "\n".join(lines)
