"""Unit tests for the ``BENCH_<group>.json`` record helper."""

from __future__ import annotations

import json

from _record import bench_path, record


def test_record_creates_a_missing_bench_dir(tmp_path, monkeypatch):
    target = tmp_path / "not" / "yet" / "there"
    monkeypatch.setenv("BENCH_DIR", str(target))
    path = record("unit", "first", wall_seconds=1.23456789, queries=7)
    assert path == bench_path("unit") == target / "BENCH_unit.json"
    assert json.loads(path.read_text()) == {
        "first": {"queries": 7, "wall_seconds": 1.234568}
    }


def test_record_merges_and_overwrites_entries(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_DIR", str(tmp_path))
    record("unit", "a", value=1)
    record("unit", "b", value=2)
    path = record("unit", "a", value=3)
    assert json.loads(path.read_text()) == {"a": {"value": 3}, "b": {"value": 2}}
