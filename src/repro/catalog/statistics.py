"""Table statistics — the optimizer's ANALYZE.

System R's optimizer [SEL 79] kept relation cardinalities and per-column
"image sizes" (distinct-value counts) in the catalog and fell back to
magic-number selectivities without them.  Same here:
:func:`analyze_table` scans a table once (the scan is charged page I/O,
as a real ANALYZE would be) and records, per column:

* the distinct-value count (drives equality selectivity ``1/d`` and the
  planner's estimate of NEST-JA2's ``Pt2`` — the distinct projection of
  the outer join column);
* min/max (drives range-predicate interpolation for numeric columns);
* the NULL count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics for one column."""

    distinct: int
    null_count: int
    min_value: object = None
    max_value: object = None

    def equality_selectivity(self) -> float:
        """System R: 1 / (number of distinct values)."""
        return 1.0 / max(1, self.distinct)

    def range_selectivity(self, op: str, value: object) -> float | None:
        """Linear interpolation between min and max (numeric columns).

        Returns None when interpolation is impossible (non-numeric, or
        a degenerate single-value range), signalling the caller to use
        the default.
        """
        low, high = self.min_value, self.max_value
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (low, high, value)
        )
        if not numeric or low is None or high is None or high <= low:
            return None
        fraction = (value - low) / (high - low)
        fraction = min(1.0, max(0.0, fraction))
        if op in ("<", "<="):
            return fraction
        if op in (">", ">="):
            return 1.0 - fraction
        return None


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for one table."""

    num_rows: int
    num_pages: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    #: catalog.data_version of the snapshot the ANALYZE scan observed —
    #: the statistics travel with the data state they describe.
    data_version: int = 0


class _Tally:
    """The per-column accumulators of one ANALYZE scan."""

    __slots__ = ("values", "nulls", "minima", "maxima")

    def __init__(self, width: int) -> None:
        self.values: list[set] = [set() for _ in range(width)]
        self.nulls = [0] * width
        self.minima: list[object] = [None] * width
        self.maxima: list[object] = [None] * width

    def observe(self, row: tuple) -> None:
        for index, value in enumerate(row):
            if value is None:
                self.nulls[index] += 1
                continue
            self.values[index].add(value)
            if self.minima[index] is None or value < self.minima[index]:
                self.minima[index] = value
            if self.maxima[index] is None or value > self.maxima[index]:
                self.maxima[index] = value


def analyze_table(catalog: Catalog, name: str) -> TableStatistics:
    """Scan a table and compute its statistics (charged page I/O).

    The result is also stored in ``catalog.statistics[name]`` so the
    planner finds it.
    """
    entry = catalog.get(name)
    column_names = entry.schema.column_names
    heap = entry.heap

    # Scan under the active snapshot (if any): the counts below must
    # describe the same row set the scans observed, not whatever the
    # heap tail holds by the time the scan finishes.
    total = _Tally(len(column_names))
    for row in heap.scan():
        total.observe(row)

    stats = TableStatistics(
        num_rows=heap.visible_rows(),
        num_pages=heap.visible_pages(),
        data_version=catalog.data_version,
        columns={
            column: ColumnStatistics(
                distinct=len(total.values[index]),
                null_count=total.nulls[index],
                min_value=total.minima[index],
                max_value=total.maxima[index],
            )
            for index, column in enumerate(column_names)
        },
    )
    catalog.record_statistics(name, stats)
    return stats


def analyze_all(catalog: Catalog) -> dict[str, TableStatistics]:
    """ANALYZE every (non-temp) table."""
    return {
        name: analyze_table(catalog, name)
        for name in catalog.table_names()
        if not catalog.get(name).is_temp
    }
