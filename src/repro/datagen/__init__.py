"""Workload generators standing in for the paper's datasets.

Every generator returns a :class:`~repro.hiddendb.table.Table` whose schema
reproduces the interface taxonomy, domain sizes and attribute correlations
of the corresponding data source in the paper's experimental setup (§8.1
for the offline datasets, §8.3 for the live web databases):

* :mod:`~repro.datagen.synthetic` -- micro-benchmark distributions
  (independent / correlated / anti-correlated, plus the Figure-6
  correlation sweep);
* :mod:`~repro.datagen.flights` -- the US DOT on-time extract;
* :mod:`~repro.datagen.diamonds` -- the Blue Nile catalogue;
* :mod:`~repro.datagen.gflights` -- Google Flights route/date instances;
* :mod:`~repro.datagen.autos` -- Yahoo! Autos listings.
"""

import numpy as np

from ..hiddendb.attributes import Attribute, Schema
from ..hiddendb.table import Table
from .adversarial import (
    priority_case_study_table,
    theorem1_skyline_size,
    theorem1_table,
)
from .autos import autos_table
from .diamonds import diamonds_table
from .flights import (
    flights_mixed_table,
    flights_pq_table,
    flights_range_table,
    flights_table,
)
from .gflights import DAILY_QUERY_LIMIT, flight_instance, flight_instances
from .mutations import CHURN_MIX, churn_ops, validate_ops
from .sqlio import sqlite_table, table_to_sqlite
from .synthetic import (
    anticorrelated,
    correlated,
    correlation_sweep_table,
    exact_skyline_table,
    independent,
)


def truncate_domains(table: Table, domain: int) -> Table:
    """Shrink every ranking domain to its ``domain`` best *occupied* values.

    The Figure-17 procedure: remove from each attribute's domain all but
    ``v`` values, along with the tuples holding a removed value.  Kept values
    are the ``v`` most-preferred values actually occurring in the data
    (remapped to ``0 .. v-1``), so the truncated table keeps the paper's
    "every domain value is occupied" property.
    """
    if domain < 1:
        raise ValueError(f"domain must be >= 1, got {domain}")
    matrix = table.matrix
    keep = np.ones(table.n, dtype=bool)
    remapped_columns = []
    new_sizes = []
    for column in range(table.m):
        occupied = np.unique(matrix[:, column])
        kept_values = occupied[:domain]
        new_sizes.append(max(len(kept_values), 1))
        keep &= np.isin(matrix[:, column], kept_values)
        mapping = np.full(
            int(occupied[-1]) + 1 if occupied.size else 1, -1, dtype=np.int64
        )
        mapping[kept_values] = np.arange(len(kept_values))
        remapped_columns.append(mapping)
    kept_rows = np.flatnonzero(keep)
    new_matrix = np.column_stack(
        [
            remapped_columns[column][matrix[kept_rows, column]]
            for column in range(table.m)
        ]
    ) if kept_rows.size else np.empty((0, table.m), dtype=np.int64)
    attributes = []
    ranking_position = 0
    for attribute in table.schema.attributes:
        if not attribute.is_ranking:
            attributes.append(attribute)
            continue
        attributes.append(
            Attribute(
                attribute.name,
                new_sizes[ranking_position],
                attribute.kind,
            )
        )
        ranking_position += 1
    filters = {
        attribute.name: np.asarray(
            [table.filter_value(attribute.name, int(rid)) for rid in kept_rows]
        )
        for attribute in table.schema.filtering_attributes
    }
    return Table(Schema(attributes), new_matrix, filters)


def rediscretize_domains(table: Table, domain: int) -> Table:
    """Re-discretise every ranking attribute into ``domain`` buckets.

    Order-preserving, equal-frequency bucketing: bucket 0 collects the most
    preferred values.  Unlike :func:`truncate_domains` this keeps every
    tuple, which makes it the cleaner knob for studying query cost as a pure
    function of the domain size (Figure 17) when attribute preferences
    conflict -- joint value-removal can otherwise empty the table.
    """
    if domain < 1:
        raise ValueError(f"domain must be >= 1, got {domain}")
    matrix = table.matrix
    columns = []
    new_sizes = []
    for column in range(table.m):
        values = matrix[:, column]
        occupied = np.unique(values)
        # An attribute with fewer occupied values than ``domain`` cannot be
        # stretched; it keeps one bucket per occupied value.
        effective = max(min(domain, len(occupied)), 1)
        new_sizes.append(effective)
        # Equal-frequency bucket boundaries over the occupied values.
        positions = np.searchsorted(occupied, values)
        buckets = positions * effective // max(len(occupied), 1)
        columns.append(np.minimum(buckets, effective - 1))
    new_matrix = (
        np.column_stack(columns)
        if table.n
        else np.empty((0, table.m), dtype=np.int64)
    )
    attributes = []
    ranking_position = 0
    for attribute in table.schema.attributes:
        if not attribute.is_ranking:
            attributes.append(attribute)
            continue
        attributes.append(
            Attribute(
                attribute.name,
                new_sizes[ranking_position],
                attribute.kind,
            )
        )
        ranking_position += 1
    filters = {
        attribute.name: np.asarray(
            [table.filter_value(attribute.name, rid) for rid in range(table.n)]
        )
        for attribute in table.schema.filtering_attributes
    }
    return Table(Schema(attributes), new_matrix, filters)


__all__ = [
    "CHURN_MIX",
    "DAILY_QUERY_LIMIT",
    "anticorrelated",
    "autos_table",
    "churn_ops",
    "correlated",
    "correlation_sweep_table",
    "diamonds_table",
    "exact_skyline_table",
    "flight_instance",
    "flight_instances",
    "flights_mixed_table",
    "flights_pq_table",
    "flights_range_table",
    "flights_table",
    "independent",
    "priority_case_study_table",
    "rediscretize_domains",
    "sqlite_table",
    "table_to_sqlite",
    "theorem1_skyline_size",
    "theorem1_table",
    "truncate_domains",
    "validate_ops",
]
