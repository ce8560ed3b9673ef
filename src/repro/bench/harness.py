"""Measured benchmark runs over the simulated storage engine.

Every measurement follows the same protocol: flush and empty the buffer
pool (cold cache), zero the I/O counters, run the query, snapshot the
counters.  That makes the measured page I/O directly comparable to the
paper's analytical figures, which also assume cold sequential scans.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.core.pipeline import Engine
from repro.storage.stats import IOStats


@dataclass
class MeasuredRun:
    """One measured query execution."""

    method: str
    io: IOStats
    rows: list[tuple]
    seconds: float

    @property
    def page_ios(self) -> int:
        return self.io.page_ios


def measure(catalog: Catalog, sql: str, method: str, **settings) -> MeasuredRun:
    """Run one query cold and return rows + page I/O + wall time;
    ``settings`` are the engine's (:class:`~repro.config.ExecConfig`)."""
    engine = Engine(catalog, **settings)
    catalog.buffer.evict_all()
    catalog.buffer.reset_stats()
    start = time.perf_counter()
    report = engine.run(sql, method=method)
    elapsed = time.perf_counter() - start
    return MeasuredRun(
        method=method, io=report.io, rows=report.result.rows, seconds=elapsed
    )


def compare_methods(
    catalog: Catalog, sql: str, check: str | None = "bag", **settings
) -> tuple[MeasuredRun, MeasuredRun]:
    """Measure nested iteration and transformation (under the engine
    ``settings`` given) on the same query.

    ``check`` verifies the transformed result against the baseline:
    ``"bag"`` (multiset equality, the default) or None (for deliberately
    buggy algorithms such as ``ja_algorithm="kim"``).  A benchmark must
    never silently time a wrong answer.
    """
    baseline = measure(catalog, sql, "nested_iteration")
    transformed = measure(catalog, sql, "transform", **settings)
    if settings.get("ja_algorithm") == "kim":
        check = None
    if check == "bag" and Counter(baseline.rows) != Counter(transformed.rows):
        raise AssertionError(
            "methods disagree (bag): "
            f"nested_iteration={sorted(baseline.rows, key=str)} "
            f"transform={sorted(transformed.rows, key=str)}"
        )
    return baseline, transformed
