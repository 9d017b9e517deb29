#!/usr/bin/env python3
"""Run one crawl workload, check it, and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rq-inproc --seed 0 --seconds 27 --trace 0

The workload's endpoints are set up at least five times and for at least
a second (the median is ``setup_s``); the last set-up is then crawled over
and over until the next crawl would end past ``--seconds``.  Every crawl
is checked against the oracle (see :mod:`perfbench.oracle`).  Timings are
medians over the run, scaled to a reference host speed by a calibration
kernel timed between stretches of crawling (see
:mod:`perfbench.calibrate`); the log shows the wall-time medians too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced crawls (at least one of each), prints the per-layer
budget of every traced crawl and reports the per-layer metrics; the spans
are written as JSONL when the run ends.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run records and spans go to ``perfbench/out``.

The program is imported from ``src/`` of the same checkout; without it the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, and the salt moves the layout
        # of every str-keyed dict, and with it the timings, from one run to
        # the next.  One fixed salt for this process and the server it
        # starts (which inherits the environment); the same process id.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    args = parse_args(argv)
    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import measure, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} scale={args.scale}")
    print(f"why: {workload.why}")
    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    result = measure.run(workload, args.seed, args.seconds, bool(args.trace), scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
