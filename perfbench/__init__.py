"""The repository's crawl benchmark.

One command runs one of four crawl workloads through the public API,
checks every crawl against an oracle and prints the end-to-end metrics;
with ``--trace 1`` it prints a per-layer time budget instead::

    python3 perfbench/run.py --workload rq-inproc --seed 0 --seconds 27 --trace 0

Modules:

* :mod:`perfbench.run` -- the command line;
* :mod:`perfbench.workloads` -- the workload definitions (each with the
  one-sentence reason it exists) and the timed crawl;
* :mod:`perfbench.oracle` -- the correctness checks every crawl must pass;
* :mod:`perfbench.calibrate` -- the host-speed kernel that every timing
  is scaled by;
* :mod:`perfbench.layers` -- spans recorded around the public functions of
  each layer, and the self-time budget computed from them;
* :mod:`perfbench.measure` -- set-up, the measurement loop, the metrics
  and the report.

``BASELINE.md`` holds the first record; the benchmark's own tests run with
``python -m pytest perfbench/tests``.
"""
