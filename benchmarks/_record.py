"""Machine-readable benchmark records: ``BENCH_<group>.json`` files.

The figure benchmarks assert qualitative shapes; this helper tracks the
*performance trajectory* across PRs in a form CI can archive and diff:
each call merges one named entry into ``BENCH_<group>.json`` at the repo
root (override the directory with ``$BENCH_DIR``), e.g.::

    from _record import record
    record("core", "rq_uniform_n10k",
           wall_seconds=1.92, queries=4811, queries_per_second=2505.7)

Entries are plain metric dicts; re-recording a name overwrites it, so the
file always holds the latest run per benchmark.  CI uploads the
``BENCH_*.json`` files as workflow artifacts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

_REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_path(group: str) -> Path:
    """Location of the ``BENCH_<group>.json`` record file."""
    base = os.environ.get("BENCH_DIR")
    root = Path(base) if base else _REPO_ROOT
    return root / f"BENCH_{group}.json"


def record(group: str, name: str, **metrics: Any) -> Path:
    """Merge one benchmark entry into ``BENCH_<group>.json``.

    ``metrics`` must be JSON-representable (numbers, strings, bools);
    floats are rounded to 6 digits to keep diffs readable.
    """
    path = bench_path(group)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing: dict[str, Any] = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = {}
    rounded = {
        key: round(value, 6) if isinstance(value, float) else value
        for key, value in metrics.items()
    }
    existing[name] = rounded
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path
