"""The measurement loop, the metrics and the report of one benchmark run."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from repro import TopKInterface
from repro.store import CrawlStore

from . import calibrate, layers, oracle, workloads

OUT = Path(__file__).resolve().parent / "out"
#: Set-ups per run: at least SETUPS of them, and at least SETUP_S seconds.
SETUPS = 5
SETUP_S = 1.0

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "crawl_s": "s",
    "queries_per_s": "1/s",
    "warm_crawl_s": "s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "billed": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER = {"calls": "count", "us_per_call": "us", "share": "ratio"}
#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "core.algo.self_s": "s",
    "core.algo.share": "ratio",
    "hiddendb.query.matches_row.calls": "count",
    **{f"core.base.record.{k}": u for k, u in _LAYER.items()},
    "core.engine.issued": "count",
    "core.engine.deduped": "count",
    "core.engine.ledger_hits": "count",
    "core.engine.max_in_flight": "count",
    **{f"hiddendb.interface.{k}": u for k, u in _LAYER.items()},
    **{f"hiddendb.dataplane.{k}": u for k, u in _LAYER.items()},
    "hiddendb.query.built": "count",
    "hiddendb.query.validate.calls": "count",
    "hiddendb.query.validate.us_per_call": "us",
    **{f"service.client.{k}": u for k, u in _LAYER.items()},
    "service.client.retries": "count",
    "service.wire.us_per_query": "us",
    "service.wire.share": "ratio",
    "service.server.requests": "count",
    "service.server.us_per_request": "us",
    "service.server.scan_us_per_query": "us",
    "service.server.share": "ratio",
    "service.server.rss_mb": "MB",
    "store.ledger_put.calls": "count",
    "store.ledger_put.us_per_call": "us",
    "store.ledger_get.calls": "count",
    "store.ledger_get.us_per_call": "us",
    "store.checkpoint.calls": "count",
    "store.checkpoint.us_per_call": "us",
    "store.share": "ratio",
    "store.bytes_per_entry": "B",
    "trace.overhead": "ratio",
}
_STORE = ("store.ledger_put", "store.ledger_get", "store.checkpoint")


@dataclass
class Op:
    """One operation: a cold crawl, plus a warm re-crawl when durable."""

    traced: bool
    crawls: list = field(default_factory=list)
    #: Per crawl (traced ops only): layer totals, counters, server deltas.
    traces: list = field(default_factory=list)


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "machine": platform.machine(),
    }


def percentile(ordered: list[int], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples, and the samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
        scale: workloads.Scale) -> dict:
    """Set up, measure, report; returns the result object to print last."""
    OUT.mkdir(parents=True, exist_ok=True)
    facts = host_facts()
    # Every workload is a serial closed loop: the crawler and the server it
    # may start never compute at the same time.  One CPU for both keeps
    # cross-CPU wake-ups, whose latency follows the host's load rather
    # than the program, out of the step times.  The server inherits it.
    facts["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["cpu"]})
    print("host: " + json.dumps(facts, sort_keys=True))
    calibrate.kernel()  # its first run pays one-off start-up costs
    setups: list[float] = []
    kernel_s = [calibrate.measure()]
    env = None
    while len(setups) < SETUPS or sum(setups) < SETUP_S:
        if env is not None:
            env.close()
        started = time.perf_counter()
        env = workload.open(seed, scale, OUT)
        setups.append(time.perf_counter() - started)
        kernel_s.append(calibrate.measure())
    log = layers.SpanLog() if trace else None
    try:
        env.compute_oracles()
        ops = measure(env, seconds, log)
    finally:
        env.close()

    failed, attempted = oracle.error_rate(
        c.problems for op in ops for c in op.crawls
    )
    if log is None:
        metrics = end_to_end(ops, setups, kernel_s)
    else:
        metrics, negative = per_layer(ops)
        if negative:
            failed += 1
            attempted += 1
            print("budget check FAILED: negative self time in " + ", ".join(negative))
        spans = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
        log.write_jsonl(spans)
        print(f"spans: {len(log)} written to {spans}")
    for op in ops:
        for crawl in op.crawls:
            for problem in crawl.problems:
                print(f"FAILED {crawl.kind} crawl: {problem}")
    print(f"error_rate: {failed / attempted:.4f} "
          f"({failed} of {attempted} crawls failed)")

    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "trace": int(trace), "seconds": seconds, "host": facts,
        "setup_s": setups, "setup_kernel_s": kernel_s,
        "crawls": [
            {"kind": c.kind, "traced": op.traced, "wall_s": c.wall_s,
             "scaled_s": c.scaled_s, "stretch_ns": c.stretch_ns,
             "kernel_s": c.kernel_s,
             "billed": c.billed, "stats": c.stats, "problems": c.problems}
            for op in ops for c in op.crawls
        ],
        "metrics": metrics,
    }
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def measure(env: workloads.Env, seconds: float, log) -> list[Op]:
    """Run operations until the next one would end past ``seconds``.

    A traced run alternates untraced and traced operations and makes at
    least one of each, so that ``trace.overhead`` has both sides.
    """
    ops: list[Op] = []
    reference: list[int] = []  # billed of the run's first cold crawl
    started = time.perf_counter()
    while True:
        op_started = time.perf_counter()
        gc.collect()  # every operation starts from the same heap state
        ops.append(run_op(env, log if len(ops) % 2 else None, reference))
        now = time.perf_counter()
        if log is not None and len(ops) < 2:
            continue
        if now - started + (now - op_started) > seconds:
            return ops


def run_op(env: workloads.Env, log, reference: list[int]) -> Op:
    """One operation, checked against the oracle; traced when ``log`` is set."""
    op = Op(traced=log is not None)
    path = OUT / f"crawl-{os.getpid()}.db" if env.durable else None
    try:
        for kind in env.kinds:
            store = CrawlStore(path) if path is not None else None
            try:
                crawl, trace = _crawl(env, kind, store, log)
            finally:
                if store is not None:
                    store.close()
            if kind == "cold":
                if not reference:
                    reference.append(crawl.billed)
                expected = reference[0]
                cold_billed = crawl.billed
                if path is not None:
                    crawl.store_bytes = path.stat().st_size
            else:
                expected = cold_billed
            crawl.problems += oracle.check_billing(
                kind, crawl.billed, crawl.stats["ledger_hits"], expected
            )
            op.crawls.append(crawl)
            if trace is not None:
                op.traces.append(trace)
    finally:
        if path is not None:
            workloads.remove_store(path)
    return op


def _crawl(env: workloads.Env, kind: str, store, log):
    """One crawl, plus its layer totals when traced."""
    if log is None:
        return workloads.crawl(env, kind, store), None
    engines = {
        type(t.endpoint._engine)  # the bound serving engine's class
        for t in env.targets if isinstance(t.endpoint, TopKInterface)
    }
    retries = sum(getattr(t.endpoint, "retries", 0) for t in env.targets)
    before = env.server.scrape() if env.server is not None else None
    log.crawl_id += 1
    with layers.tracing(log, engines):
        crawl = workloads.crawl(env, kind, store, traced=True)
    server = None
    if before is not None:
        server = _delta(before, env.server.scrape())
    return crawl, {
        "totals": log.layer_totals(log.crawl_id),
        "counts": log.take_counts(),
        "server": server,
        "retries": sum(getattr(t.endpoint, "retries", 0) for t in env.targets)
        - retries,
    }


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _add(parts) -> dict:
    """Key-wise sum of flat dicts."""
    summed: dict = {}
    for part in parts:
        for key, value in part.items():
            summed[key] = summed.get(key, 0) + value
    return summed


def _crawls(ops: list[Op], kind: str, traced: bool) -> list:
    return [c for op in ops if op.traced == traced for c in op.crawls
            if c.kind == kind]


def _samples(crawls: list) -> str:
    return (f"median of {len(crawls)} crawls; wall median "
            f"{statistics.median(c.wall_s for c in crawls):.4f} s")


def end_to_end(ops: list[Op], setups: list[float],
               setup_kernel_s: list[float]) -> dict:
    """The end-to-end metrics over the run's untraced crawls, printed.

    Times are scaled to the reference host speed (see
    :mod:`perfbench.calibrate`); the log also shows the wall medians.
    """
    cold = _crawls(ops, "cold", False)
    warm = _crawls(ops, "warm", False)
    steps = sorted(s for c in cold for s in c.scaled_steps_ns)
    (p50, beyond50), (p99, beyond99) = percentile(steps, 50), percentile(steps, 99)
    crawl_s = statistics.median(c.scaled_s for c in cold)
    billed = statistics.median(c.billed for c in cold)
    values = {
        "crawl_s": (crawl_s, _samples(cold)),
        "queries_per_s": (
            statistics.median(c.billed / c.scaled_s for c in cold), _samples(cold)
        ),
        # Without a store nothing carries over: a re-crawl is a cold crawl.
        "warm_crawl_s": (
            (statistics.median(c.scaled_s for c in warm), _samples(warm))
            if warm else (crawl_s, "no store: equals crawl_s")
        ),
        "step_p50_us": (p50 / 1e3, f"{len(steps)} steps, {beyond50} beyond"),
        "step_p99_us": (p99 / 1e3, f"{len(steps)} steps, {beyond99} beyond"),
        "billed": (billed, f"{len(cold)} crawls"),
        # Set-ups are short: scaled by the median kernel time around all
        # of them.
        "setup_s": (
            statistics.median(setups)
            * calibrate.REFERENCE_S / statistics.median(setup_kernel_s),
            f"median of {len(setups)}; wall median "
            f"{statistics.median(setups):.4f} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "crawler process",
        ),
    }
    for name, (value, samples) in values.items():
        print(f"{name:<16}{value:>16.4f} {END_TO_END[name]:<6}({samples})")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}


def per_layer(ops: list[Op]) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced ops) and any negative layers.

    Prints the budget of every traced crawl.  An operation's budget (cold
    plus warm crawl when durable) gives the metrics.
    """
    per_op: list[dict[str, float]] = []
    negative: list[str] = []
    for op in (op for op in ops if op.traced):
        for crawl, trace in zip(op.crawls, op.traces):
            print(f"budget of a traced {crawl.kind} crawl "
                  f"({crawl.wall_s:.4f} s, {crawl.billed} billed):")
            print(layers.render(
                layers.budget(trace["totals"], crawl.wall_s, trace["server"])
            ))
        totals = {
            layer: _add(t["totals"][layer] for t in op.traces)
            for layer in op.traces[0]["totals"]
        }
        servers = [t["server"] for t in op.traces if t["server"] is not None]
        server = _add(servers) if servers else None
        rows = layers.budget(totals, sum(c.wall_s for c in op.crawls), server)
        negative += layers.negative_layers(rows)
        per_op.append(_layer_values(op, rows, server))
    values = {
        name: statistics.median(v[name] for v in per_op)
        for name in PER_LAYER if name != "trace.overhead"
    }
    values["trace.overhead"] = statistics.median(
        c.wall_s for c in _crawls(ops, "cold", True)
    ) / statistics.median(c.wall_s for c in _crawls(ops, "cold", False))
    print(f"trace.overhead: {values['trace.overhead']:.3f} "
          "(traced / untraced cold crawl_s)")
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}, negative


def _layer_values(op: Op, rows: dict, server: dict | None) -> dict[str, float]:
    values = {
        "core.algo.self_s": rows["core.algo"]["self_s"],
        "core.algo.share": rows["core.algo"]["share"],
    }
    for layer in ("core.base.record", "hiddendb.interface",
                  "hiddendb.dataplane", "service.client"):
        for key in _LAYER:
            values[f"{layer}.{key}"] = rows[layer][key]
    for layer in ("hiddendb.query.validate", *_STORE):
        values[f"{layer}.calls"] = rows[layer]["calls"]
        values[f"{layer}.us_per_call"] = rows[layer]["us_per_call"]
    counts = _add(t["counts"] for t in op.traces)
    values["hiddendb.query.built"] = counts["hiddendb.query.built"]
    values["hiddendb.query.matches_row.calls"] = counts["hiddendb.query.matches_row"]
    for key in ("issued", "deduped", "ledger_hits"):
        values[f"core.engine.{key}"] = sum(c.stats[key] for c in op.crawls)
    values["core.engine.max_in_flight"] = max(
        c.stats["max_in_flight"] for c in op.crawls
    )
    values["service.client.retries"] = sum(t["retries"] for t in op.traces)
    client_calls = rows["service.client"]["calls"]
    values["service.wire.us_per_query"] = (
        rows["service.wire"]["self_s"] / client_calls * 1e6 if client_calls else 0.0
    )
    values["service.wire.share"] = rows["service.wire"]["share"]
    served = rows.get("service.server", {"calls": 0, "us_per_call": 0.0, "share": 0.0})
    values["service.server.requests"] = served["calls"]
    values["service.server.us_per_request"] = served["us_per_call"]
    values["service.server.share"] = served["share"]
    values["service.server.scan_us_per_query"] = (
        server["scan_s"] / server["scans"] * 1e6 if server and server["scans"] else 0.0
    )
    # Peak RSS of the largest waited-for child: the servers, stopped by now.
    values["service.server.rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if server else 0.0
    )
    values["store.share"] = sum(rows[layer]["share"] for layer in _STORE)
    cold = op.crawls[0]
    values["store.bytes_per_entry"] = (
        cold.store_bytes / cold.billed if cold.store_bytes and cold.billed else 0.0
    )
    return values
