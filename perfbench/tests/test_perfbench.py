"""Tests of the benchmark itself, at tiny scale.

Run from the root of the repository::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import calibrate, layers, oracle, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_workloads_match_their_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def test_oracle_counts_a_corrupted_skyline(tmp_path):
    env = workloads.open_rq_inproc(1, workloads.TINY, tmp_path)
    env.compute_oracles()
    assert workloads.crawl(env, "cold", None).problems == []
    target = env.targets[0]
    target.skyline = frozenset(list(target.skyline)[1:])
    crawl = workloads.crawl(env, "cold", None)
    assert any("skyline differs" in p for p in crawl.problems)
    assert oracle.error_rate([crawl.problems]) == (1, 1)


def test_oracle_counts_a_warm_crawl_that_bills(tmp_path):
    env = workloads.open_rq_inproc(1, workloads.TINY, tmp_path)
    env.compute_oracles()
    cold = workloads.crawl(env, "cold", None)
    # No store: the "warm" re-crawl has no ledger and bills everything.
    warm = workloads.crawl(env, "warm", None)
    problems = oracle.check_billing(
        "warm", warm.billed, warm.stats["ledger_hits"], cold.billed
    )
    assert any("billed" in p for p in problems)
    assert oracle.error_rate([[], problems]) == (1, 2)
    assert oracle.check_billing("cold", cold.billed + 1, 0, cold.billed)


def test_scaled_clock_leaves_out_kernel_runs(monkeypatch):
    monkeypatch.setattr(calibrate, "STRETCH_S", 0.0)  # a kernel run per answer
    clock = calibrate.ScaledClock()
    for _ in range(2):  # two targets of four answers each
        clock.start()
        for _ in range(4):
            clock.answer()
        clock.stop()
    clock.finish()
    # Each answer ends a stretch; the step after a kernel run is left out.
    assert len(clock.kernel_s) == len(clock.stretch_ns) + 1 == 10
    assert sum(map(len, clock.steps_ns)) == 0
    # Crawl time excludes the kernel runs in between.
    assert sum(clock.stretch_ns) / 1e9 < sum(clock.kernel_s)
    assert clock.factors() == [
        calibrate.REFERENCE_S / ((a + b) / 2)
        for a, b in zip(clock.kernel_s, clock.kernel_s[1:])
    ]


def test_scaled_crawl_reads_as_wall_time_at_reference_speed(tmp_path):
    env = workloads.open_rq_inproc(1, workloads.TINY, tmp_path)
    env.compute_oracles()
    crawl = workloads.crawl(env, "cold", None)
    assert crawl.wall_s == pytest.approx(sum(crawl.stretch_ns) / 1e9)
    assert len(crawl.factors) == len(crawl.stretch_ns) >= 1
    unit = workloads.Crawl(
        "cold", 0.0, 0, {}, [], crawl.stretch_ns, crawl.steps_ns,
        [1.0] * len(crawl.factors),
    )
    assert unit.scaled_s == pytest.approx(crawl.wall_s)
    assert sorted(unit.scaled_steps_ns) == sorted(
        s for steps in crawl.steps_ns for s in steps
    )


def test_self_time_subtracts_child_spans():
    log = layers.SpanLog()
    inner = log.timed("hiddendb.dataplane", lambda: sum(range(20000)))
    outer = log.timed("hiddendb.interface", lambda: inner() + inner())
    log.crawl_id = 1
    outer()
    totals = log.layer_totals(1)
    interface, dataplane = totals["hiddendb.interface"], totals["hiddendb.dataplane"]
    assert dataplane["calls"] == 2 and interface["calls"] == 1
    assert interface["self_s"] == pytest.approx(
        interface["incl_s"] - dataplane["incl_s"]
    )
    rows = layers.budget(totals, interface["incl_s"] * 2)
    assert not layers.negative_layers(rows)
    assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_bench("rq-inproc", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
