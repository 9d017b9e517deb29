"""Host-speed calibration: a fixed reference kernel timed during every crawl.

The benchmark runs on a few vCPUs of a shared host.  Other tenants move
the speed of those vCPUs by tens of percent, over fractions of a second
to minutes, while the program does exactly the same work; the same crawl
has taken 1.9 s and 3.6 s within one run.  Such a move shows in any code
the CPU runs, so the benchmark times :func:`kernel` -- a fixed piece of
work that never touches the program -- between stretches of crawling of
about :data:`STRETCH_S` seconds each, and scales each stretch's wall time
and step intervals by how much slower or faster than :data:`REFERENCE_S`
the kernel ran at the stretch's two ends.  A change to the program moves
the crawl but not the kernel, so it shows in full.

The kernel mixes what the crawls spend their time on: interpreted loops
over tuples and dicts, small numpy calls, JSON encoding and decoding,
SQLite statements and socket system calls.  :data:`REFERENCE_S` is part of the benchmark's
definition: changing it rescales every timing.
"""

from __future__ import annotations

import json
import random
import socket
import sqlite3
import time

import numpy as np

#: The kernel's wall seconds on the reference host speed: roughly its
#: median during crawls on the 2-vCPU x86_64 host the benchmark was
#: written on, so a scaled time there reads about as its wall time.
REFERENCE_S = 0.009
#: Crawl wall seconds between two kernel runs (a stretch ends at the
#: first answer past this, so it is a little longer).
STRETCH_S = 0.1


def kernel() -> int:
    """A fixed amount of mixed work; returns a checksum of it."""
    rng = random.Random(7)
    rows = [tuple(rng.randrange(50) for _ in range(4)) for _ in range(300)]
    keep: list[tuple[int, ...]] = []
    for row in rows:
        if not any(all(a <= b for a, b in zip(k, row)) for k in keep):
            keep = [k for k in keep if not all(a <= b for a, b in zip(row, k))]
            keep.append(row)
    counts: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(rows):
        counts[row] = counts.get(row, 0) + i
    matrix = np.array(rows)
    hits = 0
    for i in range(40):
        hits += len((matrix[:, i % 4] < i).nonzero()[0])
    text = json.dumps({"rows": rows[:100], "keep": keep})
    hits += len(json.loads(text)["rows"])
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (a, b, c, d)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    hits += db.execute("SELECT count(*) FROM t WHERE a < 25").fetchone()[0]
    db.close()
    left, right = socket.socketpair()
    with left, right:
        for _ in range(100):
            left.sendall(text[:200].encode())
            hits += len(right.recv(256))
    return len(keep) + len(counts) + hits


def measure() -> float:
    """Wall seconds of one run of :func:`kernel`."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class ScaledClock:
    """Times one crawl in stretches, with a kernel run between stretches.

    The crawl calls :meth:`start` and :meth:`stop` around each target and
    :meth:`answer` for every answer.  Time outside the targets and in the
    kernel runs is not counted.  A step interval never spans two targets,
    and the interval that ends the first answer after a kernel run is left
    out: the kernel has just pushed the crawl's data out of the CPU
    caches, which slows that one query.  With ``inside=False`` the kernel
    runs only before the first target and after the last (for traced
    crawls, whose answer hook runs inside a timed layer).
    """

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.kernel_s = [measure()]  #: kernel time at each stretch end
        self.stretch_ns = [0]  #: crawl time of each stretch
        self.steps_ns: list[list[int]] = [[]]  #: step intervals per stretch
        self._mark = 0  # start of the running span of crawling
        self._last = 0  # previous answer of the running target, if any

    def start(self) -> None:
        self._mark = time.perf_counter_ns()
        self._last = 0

    def answer(self) -> None:
        now = time.perf_counter_ns()
        if self._last:
            self.steps_ns[-1].append(now - self._last)
        self._last = now
        if self.inside and (
            self.stretch_ns[-1] + now - self._mark >= STRETCH_S * 1e9
        ):
            self.stretch_ns[-1] += now - self._mark
            self._calibrate()
            self._mark = time.perf_counter_ns()
            self._last = 0

    def stop(self) -> None:
        self.stretch_ns[-1] += time.perf_counter_ns() - self._mark

    def finish(self) -> None:
        """Close the last stretch; call once, after the last target."""
        if self.stretch_ns[-1] or len(self.stretch_ns) == 1:
            self._calibrate()
        self.stretch_ns.pop()
        self.steps_ns.pop()

    def _calibrate(self) -> None:
        self.kernel_s.append(measure())
        self.stretch_ns.append(0)
        self.steps_ns.append([])

    def factors(self) -> list[float]:
        """Host-speed scale of each stretch, from the kernel at its ends."""
        return [
            REFERENCE_S / ((before + after) / 2)
            for before, after in zip(self.kernel_s, self.kernel_s[1:])
        ]
