"""The benchmark's four crawl workloads.

Every workload is a closed loop: one crawler process drives the serial
strategy, and each query waits for its answer before the next is sent.
The only other process is the ``repro serve`` under test in
``crawl-remote``.  The workload seed is the ``--seed`` argument; the
program only ever sees the tables generated from it.

Each workload opens an :class:`Env` -- its endpoints, the oracle skyline
of each, the algorithm and whether crawls run against a store -- and
:func:`crawl` times one crawl over it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import Discoverer, DiscoveryConfig, Query, TopKInterface
from repro.datagen.diamonds import diamonds_table
from repro.service import RemoteTopKInterface
from repro.store import CrawlStore

from . import calibrate, oracle


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` is for its tests."""

    n: int = 5000  #: catalogue size of crawl-remote and crawl-durable
    k: int = 10
    rq_n: int = 1000  #: size of each rq-inproc catalogue
    rq_catalogues: int = 40  #: catalogues crawled by one rq-inproc crawl
    sq_n: int = 30  #: size of each sq-inproc catalogue
    sq_catalogues: int = 600  #: catalogues crawled by one sq-inproc crawl


FULL = Scale()
TINY = Scale(n=1500, rq_n=1000, rq_catalogues=2, sq_catalogues=12)


@dataclass
class Target:
    """One endpoint to crawl and the exact skyline it must yield."""

    endpoint: object
    table: object  #: the generated table (for the oracle)
    skyline: frozenset = frozenset()


@dataclass
class Crawl:
    """One timed crawl over every target of an :class:`Env`."""

    kind: str  #: ``cold`` or ``warm``
    wall_s: float  #: crawl time, calibration runs left out
    billed: int
    stats: dict[str, int]  #: summed ``EngineStats`` counters
    problems: list[str]  #: oracle failures; empty when correct
    #: Crawl time, step intervals and host-speed scale of each stretch
    #: (see :mod:`perfbench.calibrate`), and the kernel times they came from.
    stretch_ns: list[int] = field(default_factory=list)
    steps_ns: list[list[int]] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    store_bytes: int = 0  #: store file size after the crawl (cold, durable)

    @property
    def scaled_s(self) -> float:
        """Crawl seconds scaled to the reference host speed."""
        return sum(n * f for n, f in zip(self.stretch_ns, self.factors)) / 1e9

    @property
    def scaled_steps_ns(self) -> list[float]:
        """Step intervals scaled to the reference host speed."""
        return [
            step * f for steps, f in zip(self.steps_ns, self.factors)
            for step in steps
        ]


@dataclass
class Env:
    """An opened workload: endpoints plus how to crawl them."""

    algorithm: str
    targets: list[Target]
    #: Crawls run against a fresh store, then re-crawl the same store warm.
    durable: bool = False
    server: "Server | None" = None
    #: Regenerates a served table for the oracle (remote targets hold none).
    oracle_table: Callable[[], object] | None = None
    closers: list[Callable[[], None]] = field(default_factory=list)

    @property
    def kinds(self) -> tuple[str, ...]:
        """The crawls of one operation."""
        return ("cold", "warm") if self.durable else ("cold",)

    def compute_oracles(self) -> None:
        for target in self.targets:
            table = target.table if target.table is not None else self.oracle_table()
            target.skyline = oracle.skyline_oracle(table.matrix)

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def _warm(interface: TopKInterface) -> TopKInterface:
    """Build the lazily built serving engine now, then forget the query."""
    interface.query(Query.select_all())
    interface.reset()
    return interface


def _inproc(table, k: int) -> Target:
    return Target(_warm(TopKInterface(table, k=k, engine="auto")), table)


def _population(seed: int, size: int, count: int, k: int) -> list[Target]:
    """``count`` catalogues of ``size`` diamonds, each seeded from ``seed``."""
    seeds = np.random.SeedSequence(seed).generate_state(count)
    return [_inproc(diamonds_table(size, int(s)), k) for s in seeds]


def open_rq_inproc(seed: int, scale: Scale, workdir: Path) -> Env:
    return Env("rq", _population(seed, scale.rq_n, scale.rq_catalogues, scale.k))


def open_sq_inproc(seed: int, scale: Scale, workdir: Path) -> Env:
    return Env("sq", _population(seed, scale.sq_n, scale.sq_catalogues, scale.k))


def open_crawl_durable(seed: int, scale: Scale, workdir: Path) -> Env:
    env = Env(
        "baseline",
        [_inproc(diamonds_table(scale.n, seed), scale.k)],
        durable=True,
    )
    # Store open is part of set-up: open (and discard) one store the way
    # every operation opens its own.
    path = workdir / f"setup-{os.getpid()}.db"
    CrawlStore(path).close()
    remove_store(path)
    return env


def open_crawl_remote(seed: int, scale: Scale, workdir: Path) -> Env:
    server = Server.start(seed, scale, workdir)
    env = Env(
        "baseline", [], server=server,
        oracle_table=lambda: diamonds_table(scale.n, seed),
        closers=[server.stop],
    )
    try:
        client = RemoteTopKInterface(server.url)
        env.closers.append(client.close)
        # The server builds its rank engine on the first query.
        client.query(Query.select_all())
    except BaseException:
        env.close()
        raise
    env.targets.append(Target(client, None))
    return env


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    open: Callable[[int, Scale, Path], Env]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rq-inproc",
            "RQ-DB-SKY over 40 catalogues of 1,000 diamonds in process: the "
            "seen and dominator scans of core/rq.py do ~87% of the work, "
            "serving ~11%",
            open_rq_inproc,
        ),
        Workload(
            "sq-inproc",
            "SQ-DB-SKY over 600 catalogues of 30 diamonds in process: the "
            "per-query constant (Query, drain core, interface, data plane) "
            "does the work",
            open_sq_inproc,
        ),
        Workload(
            "crawl-remote",
            "baseline crawl of 5,000 diamonds against repro serve over HTTP: "
            "client, wire, server and its data plane do ~3/4 of the work, the "
            "algorithm the rest",
            open_crawl_remote,
        ),
        Workload(
            "crawl-durable",
            "baseline crawl of 5,000 diamonds with a CrawlStore: the cold "
            "crawl writes the ledger, the warm re-crawl of the same file "
            "reads it",
            open_crawl_durable,
        ),
    )
}


def crawl(env: Env, kind: str, store: CrawlStore | None,
          traced: bool = False) -> Crawl:
    """Crawl every target of ``env`` once and check the answers.

    Only the discovery runs are timed; the oracle comparison happens after
    the clock stops.  The step intervals come from the public
    ``DiscoveryConfig(on_query=...)`` hook and never span two targets.
    The calibration kernel runs between stretches of the crawl, from the
    same hook, and its time is left out (see :mod:`perfbench.calibrate`);
    a traced crawl runs it only before and after.
    """
    clock = calibrate.ScaledClock(inside=not traced)
    config = DiscoveryConfig(
        strategy="serial", on_query=lambda _result: clock.answer(), store=store
    )
    outcomes = []
    for target in env.targets:
        clock.start()
        try:
            outcomes.append(Discoverer(config).run(target.endpoint, env.algorithm))
        except Exception as exc:  # a crawl that raises is a failed crawl
            outcomes.append(exc)
        clock.stop()
    clock.finish()

    problems: list[str] = []
    stats = dict.fromkeys(("issued", "deduped", "ledger_hits", "max_in_flight"), 0)
    billed = 0
    for target, outcome in zip(env.targets, outcomes):
        if isinstance(outcome, Exception):
            problems.append(f"crawl raised {type(outcome).__name__}: {outcome}")
            continue
        problems.extend(oracle.check_result(outcome, target.skyline))
        billed += outcome.total_cost
        engine = outcome.stats
        stats["issued"] += engine.issued
        stats["deduped"] += engine.deduped
        stats["ledger_hits"] += engine.ledger_hits
        stats["max_in_flight"] = max(stats["max_in_flight"], engine.max_in_flight)
    return Crawl(
        kind, sum(clock.stretch_ns) / 1e9, billed, stats, problems,
        clock.stretch_ns, clock.steps_ns, clock.factors(), clock.kernel_s,
    )


class Server:
    """A ``repro serve`` subprocess, started and stopped by the benchmark."""

    def __init__(self, proc: subprocess.Popen, url: str, log: Path) -> None:
        self.proc = proc
        self.url = url
        self.log = log

    @classmethod
    def start(cls, seed: int, scale: Scale, workdir: Path) -> "Server":
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        log = workdir / f"server-{os.getpid()}-{time.monotonic_ns()}.log"
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "diamonds", "--n", str(scale.n),
            "--k", str(scale.k), "--seed", str(seed), "--port", "0",
        ]
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                command, stdout=sink, stderr=subprocess.STDOUT, env=env
            )
        server = cls(proc, "", log)
        try:
            server.url = f"http://127.0.0.1:{server._wait_for_port()}"
            server._wait_for_health()
        except BaseException:
            server.stop()
            raise
        return server

    def _wait_for_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while True:
            found = re.search(r"^port\s*:\s*(\d+)", self.log.read_text(), re.M)
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}:\n"
                    + self.log.read_text()
                )
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not report its port")
            time.sleep(0.005)

    def _wait_for_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as r:
                    if r.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def scrape(self) -> dict[str, float]:
        """Request and scan totals from the server's ``/metrics``."""
        with urllib.request.urlopen(self.url + "/metrics", timeout=10) as r:
            text = r.read().decode("utf-8")
        totals = dict.fromkeys(
            ("request_s", "requests", "scan_s", "scans"), 0.0
        )
        sample = re.compile(r"^(\w+?)(?:\{([^}]*)\})?\s+(\S+)$")
        names = {
            "hiddendb_request_latency_seconds_sum": "request_s",
            "hiddendb_request_latency_seconds_count": "requests",
            "hiddendb_table_scan_seconds_sum": "scan_s",
            "hiddendb_table_scan_seconds_count": "scans",
        }
        for line in text.splitlines():
            found = sample.match(line)
            if not found or found.group(1) not in names:
                continue
            labels = found.group(2) or ""
            if "route=" in labels and not re.search(
                r'route="/api/(query|batch)"', labels
            ):
                continue
            totals[names[found.group(1)]] += float(found.group(3))
        return totals

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.unlink(missing_ok=True)
