"""Runs of whole pages read what pages read.

A reader of one input takes a heap in runs of whole pages
(``HeapFile.scan_pages(run_rows)``, ``Relation.iter_runs``) where the
others take it a page at a time.  The run reader must yield exactly the
concatenation of the page reader's batches, in the same order, with the
same ``get_page`` calls in the same order: the buffer pool cannot tell
the two apart.  And the per-batch work it saves must stay saved: a
restriction over an N-page heap runs its kernel once per run.
"""

from __future__ import annotations

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.operators as operators
from repro import Database
from repro.engine.relation import _RUN_ROWS, Relation
from repro.engine.schema import RowSchema
from repro.storage import visibility
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from tests.evaluation import evaluation


class _Horizon:
    def __init__(self, limit: int) -> None:
        self.limit = limit

    def limit_for(self, name: str) -> int | None:
        return self.limit


def _cold_heap(rows: int, rows_per_page: int, buffer_pages: int) -> HeapFile:
    pool = BufferPool(DiskManager(), capacity=buffer_pages)
    heap = HeapFile(pool, rows_per_page=rows_per_page, name="T")
    heap.extend((i, i % 7) for i in range(rows))
    heap.flush()
    pool.evict_all()
    return heap


def _read(heap: HeapFile, read) -> tuple[list[list[tuple]], list[int], tuple]:
    """``read()``'s batches, the page ids it asked the pool for, and the
    pool's counters afterwards, from a cold pool."""
    pool = heap.buffer
    pool.evict_all()
    pool.reset_stats()
    asked: list[int] = []
    get_page = pool.get_page

    def spy(page_id, **kwargs):
        asked.append(page_id)
        return get_page(page_id, **kwargs)

    pool.get_page = spy
    try:
        batches = list(read())
    finally:
        del pool.get_page
    stats = pool.stats()
    return batches, asked, (stats.page_reads, stats.page_writes, stats.buffer_hits)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 90),
    rows_per_page=st.integers(1, 12),
    buffer_pages=st.integers(2, 6),
    run_rows=st.sampled_from([0, 1, 5, 17, _RUN_ROWS]),
    horizon=st.none() | st.integers(0, 100),
)
def test_runs_are_the_pages_concatenated(
    rows, rows_per_page, buffer_pages, run_rows, horizon
):
    heap = _cold_heap(rows, rows_per_page, buffer_pages)
    token = None
    if horizon is not None:
        # A versioned heap under a snapshot whose horizon may fall
        # mid-page, on a page boundary, or past the end.
        heap.versioned = True
        token = visibility.activate(_Horizon(horizon))
    try:
        pages, page_calls, page_io = _read(heap, heap.scan_pages)
        runs, run_calls, run_io = _read(heap, lambda: heap.scan_pages(run_rows))
    finally:
        if token is not None:
            visibility.deactivate(token)

    assert [row for run in runs for row in run] == [row for page in pages for row in page]
    assert run_calls == page_calls
    assert run_io == page_io
    # A run is whole pages: it ends where some page ends.
    assert set(accumulate(map(len, runs))) <= set(accumulate(map(len, pages)))
    # Every run but the last holds at least run_rows rows, and the page
    # that took it there is the run's last.
    assert all(len(run) >= run_rows for run in runs[:-1])
    if run_rows == 0:
        assert runs == pages


def test_relation_runs_read_like_its_batches():
    heap = _cold_heap(rows=437, rows_per_page=9, buffer_pages=3)
    relation = Relation(RowSchema.for_table("T", ["A", "B"]), heap=heap, owns_heap=False)
    pages, page_calls, page_io = _read(heap, relation.iter_batches)
    runs, run_calls, run_io = _read(heap, relation.iter_runs)
    assert sum(runs, []) == sum(pages, [])
    assert (run_calls, run_io) == (page_calls, page_io)
    assert len(pages) == 49
    # 18 pages of 9 rows reach _RUN_ROWS = 160: 162 rows a run.
    assert [len(run) for run in runs] == [162, 162, 113]


def test_the_row_axis_splits_runs_into_one_row_batches():
    heap = _cold_heap(rows=40, rows_per_page=4, buffer_pages=2)
    relation = Relation(RowSchema.for_table("T", ["A", "B"]), heap=heap, owns_heap=False)
    with evaluation("row"):
        runs = list(relation.iter_runs())
        pages = list(relation.iter_batches())
    assert runs == pages == [[(i, i % 7)] for i in range(40)]


def test_a_restriction_runs_its_kernel_once_per_run(monkeypatch):
    """The counted guard on run-sized batches: a restriction over a
    100-page heap calls its kernel at most ⌈rows / _RUN_ROWS⌉ times, and
    reads each page once.  Back at one page per batch it would be 100."""
    calls = []
    body = operators.restrict_project_body

    def counted(*args, **kwargs):
        schema, process = body(*args, **kwargs)

        def kernel(batch):
            calls.append(len(batch))
            return process(batch)

        return schema, kernel

    monkeypatch.setattr(operators, "restrict_project_body", counted)
    db = Database(buffer_pages=8)
    db.create_table("T", ["A", "B"], rows_per_page=10)
    rows = 1000
    db.insert("T", [(i, i % 13) for i in range(rows)])
    db.cold_cache()
    report = db.run("SELECT A FROM T WHERE B > 3", method="transform")
    assert len(report.result.rows) == sum(1 for i in range(rows) if i % 13 > 3)
    assert report.io.page_reads == 100
    assert sum(calls) == rows
    assert len(calls) <= -(-rows // _RUN_ROWS)
