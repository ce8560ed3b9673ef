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

The module also owns the engine's one total order (:func:`orderable`)
and the choice of the cheapest key that induces it for a given run
(:func:`order_key`): the paper's model has no CPU term, so a comparison
is made as cheap as the values allow while the page schedule stays
exactly as it was (DESIGN.md §4b-1, "Order contract").
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, groupby
from operator import itemgetter, ne
from typing import Any

from repro.engine.relation import Relation, temp_rows_per_page
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile

#: One column's profile: the set of its values' exact types.
ColumnTypes = set[type]
#: A key callable for ``list.sort`` / ``heapq.merge``; None means the
#: rows' own tuple comparison already is the order.
OrderKey = Callable[[tuple], Any] | None


class _NaN:
    """Profile marker for a float column that holds a NaN (which has no
    place in any order, so the column is never compared raw)."""


def orderable(value: object) -> tuple:
    """Wrap one value so that any two values compare: the total order.

    NULL sorts before every value (an arbitrary but consistent choice),
    then numbers (a bool as its int), then everything else by its text.
    This is the only definition of the order; :func:`order_key` merely
    skips the wrapper where the raw values already compare this way.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


def value_types(values: Iterable[object]) -> ColumnTypes:
    """Profile one column with a C-speed scan of its values' types."""
    values = tuple(values)
    types = set(map(type, values))
    if float in types and any(map(ne, values, values)):
        types.add(_NaN)
    return types


def column_profile(rows: Sequence[tuple]) -> list[ColumnTypes]:
    """Per-column profiles of a row list (empty for no rows)."""
    return [value_types(column) for column in zip(*rows)]


def compares_raw(types: ColumnTypes) -> bool:
    """True when a column of these types orders itself exactly as
    :func:`orderable` would: all ``int``/``float`` or all ``str``.
    NULL, ``bool``, NaN, subclasses and mixed columns do not."""
    return types <= {int, float} or types == {str}


def column_order(
    width: int, key_columns: Sequence[int], tiebreak: bool = True
) -> list[int]:
    """Key columns first, then (as tiebreak) the rest of the row.

    A column already in the key is not repeated: comparing it a second
    time can never decide anything.
    """
    order = list(key_columns)
    if tiebreak:
        order += [c for c in range(width) if c not in key_columns]
    return order


def order_key(
    profile: Sequence[ColumnTypes],
    key_columns: Sequence[int],
    tiebreak: bool = True,
) -> OrderKey:
    """The cheapest key that sorts rows of ``profile`` in the total order.

    The order is always the same — :func:`orderable` per value, key
    columns first, whole row as tiebreak (the executor's sorts; nested
    iteration's stable ORDER BY passes ``tiebreak=False``) — so runs
    sorted under different profiles are still mutually ordered and a
    merge may key on the union of their profiles.  What varies is the
    cost: a column that :func:`compares_raw` contributes its bare value,
    any other column alone is wrapped, and when nothing is wrapped and
    the columns are already in row order there is no key at all.
    """
    if not profile:  # no rows (or no columns): nothing to order
        return None
    order = column_order(len(profile), key_columns, tiebreak)
    wrapped = [not compares_raw(profile[c]) for c in order]
    if not any(wrapped):
        if order == list(range(len(profile))):
            return None
        return itemgetter(*order)
    plan = list(zip(order, wrapped))
    return lambda row: tuple(
        [orderable(row[c]) if wrap else row[c] for c, wrap in plan]
    )


def sort_key(row: tuple, key_columns: Sequence[int]) -> tuple:
    """The every-column-wrapped key: what :func:`order_key` returns for
    a profile in which nothing compares raw, and the reference the
    tests hold every cheaper key to."""
    return tuple(
        [orderable(row[c]) for c in column_order(len(row), key_columns)]
    )


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

    The result claims the order it is in: the key columns, then (the
    tiebreak) every other column — under ``unique`` a key of it.
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
        runs, profile = _form_runs(source, key, run_rows, unique, write_run)
        result_heap = _merge_runs(runs, profile, key, buffer, unique, write_run)
    except BaseException:
        for run in written:
            run.truncate()
        raise
    if result_heap is None:
        result_heap = HeapFile(buffer, rows_per_page=rows_per_page)
    result_heap.name = name
    order = (tuple(column_order(len(source.schema), key)), unique)
    return Relation(source.schema, heap=result_heap, name=name, order=order)


def _form_runs(
    source: Relation,
    key: list[int],
    run_rows: int,
    unique: bool,
    write_run: Callable[[Iterable[tuple]], HeapFile],
) -> tuple[list[HeapFile], list[ColumnTypes]]:
    """Read the input a page at a time, producing sorted runs of at most
    ``run_rows`` rows; also returns the union of the runs' profiles."""
    runs: list[HeapFile] = []
    profile: list[ColumnTypes] = []

    def emit(rows: list[tuple]) -> None:
        types = column_profile(rows)
        rows.sort(key=order_key(types, key))
        runs.append(write_run(_dedup_sorted(rows) if unique else rows))
        if profile:
            for seen, new in zip(profile, types):
                seen |= new
        else:
            profile.extend(types)

    chunk: list[tuple] = []
    for batch in source.iter_batches():
        chunk.extend(batch)
        while len(chunk) >= run_rows:
            emit(chunk[:run_rows])
            del chunk[:run_rows]
    if chunk:
        emit(chunk)
    return runs, profile


def _merge_runs(
    runs: list[HeapFile],
    profile: list[ColumnTypes],
    key: list[int],
    buffer: BufferPool,
    unique: bool,
    write_run: Callable[[Iterable[tuple]], HeapFile],
) -> HeapFile | None:
    """(B-1)-way merge passes until a single run remains (None: no rows)."""
    fan_in = max(2, buffer.capacity - 1)
    merge_key = order_key(profile, key)

    while len(runs) > 1:
        next_runs: list[HeapFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            rows: Iterable[tuple] = heapq.merge(
                *(chain.from_iterable(run.scan_pages()) for run in group),
                key=merge_key,
            )
            if unique:
                rows = _dedup_sorted(rows)
            next_runs.append(write_run(rows))
            for run in group:
                run.truncate()
        runs = next_runs

    return runs[0] if runs else None


def _dedup_sorted(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Drop consecutive duplicate rows from a sorted stream."""
    return map(itemgetter(0), groupby(rows))


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
