"""Experiment harness: one module per evaluation figure of the paper.

Each module exposes ``run(...) -> list[dict]`` (structured series points)
and a ``main()`` printing the series as an aligned table.  Run them all
with ``python -m repro.experiments`` or individually, e.g.::

    python -m repro.experiments.fig13_impact_k

Each module is named after the figure of the paper's experimental
evaluation (§8) it reproduces: ``figNN_<topic>`` regenerates Figure NN.
"""

from . import (
    fig04_analysis,
    fig06_sq_vs_rq,
    fig13_impact_k,
    fig14_impact_n,
    fig15_impact_m,
    fig16_pq_n,
    fig17_pq_domain,
    fig18_mixed_n,
    fig19_mixed_attrs,
    fig20_anytime_range,
    fig21_anytime_pq,
    fig22_bluenile,
    fig23_gflights,
    fig24_yautos,
)

ALL_FIGURES = {
    "fig04": fig04_analysis,
    "fig06": fig06_sq_vs_rq,
    "fig13": fig13_impact_k,
    "fig14": fig14_impact_n,
    "fig15": fig15_impact_m,
    "fig16": fig16_pq_n,
    "fig17": fig17_pq_domain,
    "fig18": fig18_mixed_n,
    "fig19": fig19_mixed_attrs,
    "fig20": fig20_anytime_range,
    "fig21": fig21_anytime_pq,
    "fig22": fig22_bluenile,
    "fig23": fig23_gflights,
    "fig24": fig24_yautos,
}

__all__ = ["ALL_FIGURES"] + [module.__name__.split(".")[-1] for module in ALL_FIGURES.values()]
