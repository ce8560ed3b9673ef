"""Heap tail rollback and abort-time durability ordering (PR 8 audit).

``rollback_to`` is the storage half of transaction abort: because
writers are serialized, an aborting transaction's rows are exactly the
heap tail, so undo is a tail trim.  These tests audit the invariants
the transaction layer relies on:

* no pinned tail page survives an abort mid-append (the write cursor
  is released before any page is freed or trimmed);
* freed tail pages leave no stale dirty accounting in the buffer pool
  (``free_page`` discards the frame without writeback);
* a trimmed boundary page is marked dirty so the surviving rows are
  written back.
"""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile


def make_heap(rows_per_page=4, capacity=8):
    disk = DiskManager()
    buffer = BufferPool(disk, capacity=capacity)
    heap = HeapFile(buffer, rows_per_page=rows_per_page, name="T")
    return heap, buffer, disk


def fill(heap, n, start=0):
    heap.extend((i, i * 10) for i in range(start, start + n))


class TestRollbackTo:
    def test_rollback_to_zero_equals_empty(self):
        heap, buffer, _ = make_heap()
        fill(heap, 10)
        heap.rollback_to(0)
        assert heap.num_rows == 0
        assert heap.num_pages == 0
        assert list(heap.scan()) == []

    def test_rollback_trims_boundary_page_in_place(self):
        heap, buffer, _ = make_heap(rows_per_page=4)
        fill(heap, 10)  # 3 pages: 4 + 4 + 2
        heap.rollback_to(6)  # trim into the middle page
        assert heap.num_rows == 6
        assert heap.num_pages == 2
        assert list(heap.scan()) == [(i, i * 10) for i in range(6)]

    def test_rollback_frees_whole_tail_pages(self):
        heap, buffer, disk = make_heap(rows_per_page=4)
        fill(heap, 4)
        before_pages = list(heap.page_ids)
        fill(heap, 8, start=4)  # two more pages
        heap.rollback_to(4)
        assert heap.page_ids == before_pages
        assert list(heap.scan()) == [(i, i * 10) for i in range(4)]

    def test_rollback_to_current_count_is_noop(self):
        heap, _, _ = make_heap()
        fill(heap, 5)
        pages = list(heap.page_ids)
        heap.rollback_to(5)
        assert heap.page_ids == pages
        assert heap.num_rows == 5

    def test_negative_target_rejected(self):
        heap, _, _ = make_heap()
        with pytest.raises(ValueError):
            heap.rollback_to(-1)

    def test_rollback_survives_eviction_roundtrip(self):
        """Rolled-back state must be what disk serves after eviction."""
        heap, buffer, _ = make_heap(rows_per_page=4, capacity=8)
        fill(heap, 10)
        heap.rollback_to(6)
        buffer.evict_all()
        assert list(heap.scan()) == [(i, i * 10) for i in range(6)]


class TestAbortDurabilityOrdering:
    def test_abort_mid_append_leaves_no_pinned_tail(self):
        """The audit scenario: appends in flight, then rollback."""
        heap, buffer, _ = make_heap(rows_per_page=4)
        fill(heap, 4)
        # append_rows without close_writes: the tail page stays pinned.
        heap.append_rows([(100, 0)])
        heap.append_rows([(101, 0)])
        assert len(buffer._pinned) == 1
        heap.rollback_to(4)
        assert len(buffer._pinned) == 0
        assert heap.num_rows == 4
        # The pool must be fully evictable afterwards (no leaked pin).
        buffer.evict_all()
        assert list(heap.scan()) == [(i, i * 10) for i in range(4)]

    def test_freed_tail_pages_leave_no_dirty_accounting(self):
        heap, buffer, disk = make_heap(rows_per_page=4)
        fill(heap, 4)
        heap.append_rows([(100, 0)])  # allocates + dirties a new tail page
        heap.rollback_to(4)
        # The freed page must not be written back by a later flush.
        heap.flush()
        buffer.evict_all()
        assert heap.num_pages == 1
        assert list(heap.scan()) == [(i, i * 10) for i in range(4)]

    def test_truncate_mid_append_releases_cursor_first(self):
        heap, buffer, _ = make_heap(rows_per_page=4)
        heap.append_rows([(1, 1)])
        assert len(buffer._pinned) == 1
        heap.truncate()
        assert len(buffer._pinned) == 0
        assert heap.num_rows == 0
        buffer.evict_all()

    def test_flush_mid_append_releases_cursor_first(self):
        heap, buffer, _ = make_heap(rows_per_page=4)
        heap.append_rows([(1, 1)])
        assert len(buffer._pinned) == 1
        heap.flush()
        assert len(buffer._pinned) == 0
        buffer.evict_all()
        assert list(heap.scan()) == [(1, 1)]


class TestSnapshotVisibility:
    """Versioned heaps trim scans to the active snapshot's horizon."""

    def test_unversioned_heap_ignores_snapshots(self):
        from repro.storage import visibility

        heap, _, _ = make_heap()
        fill(heap, 8)

        class Limit:
            def limit_for(self, name):
                return 2

        token = visibility.activate(Limit())
        try:
            assert len(list(heap.scan())) == 8
        finally:
            visibility.deactivate(token)

    def test_versioned_heap_trims_to_horizon(self):
        from repro.storage import visibility

        heap, _, _ = make_heap(rows_per_page=4)
        heap.versioned = True
        fill(heap, 10)

        class Limit:
            def limit_for(self, name):
                return 6

        token = visibility.activate(Limit())
        try:
            assert list(heap.scan()) == [(i, i * 10) for i in range(6)]
            assert heap.visible_rows() == 6
            assert heap.visible_pages() == 2
            pages = list(heap.scan_pages())
            assert sum(len(p) for p in pages) == 6
            with_positions = list(heap.scan_with_positions())
            assert len(with_positions) == 6
        finally:
            visibility.deactivate(token)

    def test_horizon_at_count_still_bounds_the_scan(self):
        """Even a horizon equal to the row count must stay in force:
        degenerating to the untrimmed path would leak a concurrent
        writer's mid-scan appends into the snapshot read."""
        from repro.storage import visibility

        heap, _, _ = make_heap()
        heap.versioned = True
        fill(heap, 5)

        class Limit:
            def limit_for(self, name):
                return 5

        token = visibility.activate(Limit())
        try:
            assert heap._scan_limit() == 5
            assert len(list(heap.scan())) == 5
        finally:
            visibility.deactivate(token)

    def test_mid_scan_append_invisible_under_snapshot(self):
        """Rows appended while a snapshot scan is suspended must not
        appear in it — the tail page's row list is live."""
        from repro.storage import visibility

        heap, _, _ = make_heap(rows_per_page=4)
        heap.versioned = True
        fill(heap, 5)  # horizon == num_rows: the racy degenerate case

        class Limit:
            def limit_for(self, name):
                return 5

        token = visibility.activate(Limit())
        try:
            iterator = heap.scan()
            first = [next(iterator) for _ in range(2)]
            # A "writer" appends to the tail page mid-scan.
            heap.extend([(100, 0)])
            rest = list(iterator)
            assert first + rest == [(i, i * 10) for i in range(5)]
        finally:
            visibility.deactivate(token)
