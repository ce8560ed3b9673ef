"""External (B-1)-way merge sort.

The paper (section 7, quoting Kim's notation): "When it is necessary to
sort a relation, a (B-1)-way multi-way merge sort is used, which
requires 2·P·log_{B-1}(P) page I/O's to sort a relation R."

This module implements that sort for real: run formation fills the B
buffer pages, each merge pass combines up to B-1 runs, and every page
touched flows through the buffer pool so the measured I/O can be
compared against the model's ``2·P·log`` term.  An optional
``unique=True`` removes duplicate rows while sorting — the paper's
"sorting it and removing duplicates" step in building ``Rt2``/``Rt3``.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.engine.relation import Relation, temp_rows_per_page
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile


def sort_key(row: tuple, key_columns: Sequence[int]) -> tuple:
    """Total-order sort key: chosen columns first, whole row as tiebreak.

    NULL sorts before every value (an arbitrary but consistent choice),
    and the wrapper keeps Python from comparing None with ints.
    """
    return tuple(_orderable(row[i]) for i in key_columns) + tuple(
        _orderable(v) for v in row
    )


def _orderable(value: object) -> tuple:
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


def external_sort(
    source: Relation,
    key_columns: Sequence[int],
    buffer: BufferPool,
    unique: bool = False,
    name: str | None = None,
) -> Relation:
    """Sort a relation by the given columns into a new heap-backed relation.

    Args:
        source: the input (heap-backed or in-memory).
        key_columns: tuple positions forming the (major) sort key.
        buffer: the buffer pool; its capacity is the paper's ``B``.
        unique: drop duplicate *rows* while sorting (sort-based
            duplicate elimination, as the paper's temp-table builds use).
        name: optional name for the output relation.
    """
    rows_per_page = (
        source.heap.rows_per_page
        if source.heap is not None
        else temp_rows_per_page(len(source.schema))
    )
    run_rows = max(1, buffer.capacity * rows_per_page)
    key = list(key_columns)

    # Every run ever written, so that a failure part-way (a source page
    # freed under the scan, a full pool) frees them all; on success only
    # the result is still allocated, its inputs dropped as they merged.
    written: list[HeapFile] = []

    def write_run(rows: Iterable[tuple]) -> HeapFile:
        run = HeapFile(buffer, rows_per_page=rows_per_page, name="sort-run")
        written.append(run)
        run.extend(rows)
        run.flush()
        return run

    try:
        runs = _form_runs(source, key, run_rows, unique, write_run)
        result_heap = _merge_runs(runs, key, buffer, unique, write_run)
    except BaseException:
        for run in written:
            run.truncate()
        raise
    if result_heap is None:
        result_heap = HeapFile(buffer, rows_per_page=rows_per_page)
    result_heap.name = name
    return Relation(source.schema, heap=result_heap, name=name)


def _form_runs(
    source: Relation,
    key: list[int],
    run_rows: int,
    unique: bool,
    write_run: Callable[[Iterable[tuple]], HeapFile],
) -> list[HeapFile]:
    """Scan the input, producing sorted runs of at most ``run_rows`` rows."""
    runs: list[HeapFile] = []
    chunk: list[tuple] = []

    def emit() -> None:
        if not chunk:
            return
        chunk.sort(key=lambda row: sort_key(row, key))
        runs.append(write_run(_dedup_sorted(iter(chunk)) if unique else chunk))
        chunk.clear()

    for row in source:
        chunk.append(row)
        if len(chunk) >= run_rows:
            emit()
    emit()
    return runs


def _merge_runs(
    runs: list[HeapFile],
    key: list[int],
    buffer: BufferPool,
    unique: bool,
    write_run: Callable[[Iterable[tuple]], HeapFile],
) -> HeapFile | None:
    """(B-1)-way merge passes until a single run remains (None: no rows)."""
    fan_in = max(2, buffer.capacity - 1)

    while len(runs) > 1:
        next_runs: list[HeapFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            rows: Iterator[tuple] = heapq.merge(
                *(run.scan() for run in group),
                key=lambda row: sort_key(row, key),
            )
            if unique:
                rows = _dedup_sorted(rows)
            next_runs.append(write_run(rows))
            for run in group:
                run.truncate()
        runs = next_runs

    return runs[0] if runs else None


def _dedup_sorted(rows: Iterator[tuple]) -> Iterator[tuple]:
    """Drop consecutive duplicate rows from a sorted stream."""
    previous: tuple | None = None
    for row in rows:
        if row != previous:
            yield row
        previous = row


def sort_cost_model(pages: int, buffer_pages: int) -> float:
    """The paper's analytic sort cost: ``2·P·log_{B-1}(P)`` page I/Os.

    Continuous logarithm, as the paper's section 7.4 arithmetic implies
    (see DESIGN.md, "Cost-model logarithms").  Returns 0 for relations
    of one page or fewer.
    """
    import math

    if pages <= 1:
        return 0.0
    base = max(2, buffer_pages - 1)
    return 2.0 * pages * math.log(pages, base)
