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
from repro.core.pipeline import Engine, prepare_query
from repro.serve.plan import run_transform
from repro.sql.parser import parse
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
    return _cold(catalog, method, lambda: engine.run(sql, method=method))


def measure_transform(
    catalog: Catalog, sql: str, algorithm, join_method: str = "merge"
) -> MeasuredRun:
    """:func:`measure` for a plan no engine builds: ``algorithm`` — a
    section 5 demonstrator such as
    :func:`~repro.core.nest_ja.kim_nest_g` — transforms the prepared
    ``sql`` and :func:`~repro.serve.plan.run_transform` runs the
    result, unverified."""
    transform = algorithm(prepare_query(parse(sql), catalog), catalog)
    return _cold(
        catalog, "transform", lambda: run_transform(catalog, transform, join_method)
    )


def _cold(catalog: Catalog, method: str, run) -> MeasuredRun:
    catalog.buffer.evict_all()
    catalog.buffer.reset_stats()
    start = time.perf_counter()
    report = run()
    elapsed = time.perf_counter() - start
    return MeasuredRun(
        method=method, io=report.io, rows=report.result.rows, seconds=elapsed
    )


def compare_methods(
    catalog: Catalog, sql: str, **settings
) -> tuple[MeasuredRun, MeasuredRun]:
    """Measure nested iteration and transformation (under the engine
    ``settings`` given) on the same query.

    The transformed result must equal the baseline as a multiset, or
    this raises: a benchmark must never silently time a wrong answer.
    """
    baseline = measure(catalog, sql, "nested_iteration")
    transformed = measure(catalog, sql, "transform", **settings)
    if Counter(baseline.rows) != Counter(transformed.rows):
        raise AssertionError(
            "methods disagree (bag): "
            f"nested_iteration={sorted(baseline.rows, key=str)} "
            f"transform={sorted(transformed.rows, key=str)}"
        )
    return baseline, transformed
