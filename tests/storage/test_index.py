"""Tests for the ISAM index and heap fetch-by-position."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile
from repro.storage.index import IsamIndex


def make_heap(rows, rows_per_page=4, buffer_pages=8):
    disk = DiskManager()
    buffer = BufferPool(disk, capacity=buffer_pages)
    heap = HeapFile(buffer, rows_per_page=rows_per_page, name="T")
    heap.extend(rows)
    heap.flush()
    return disk, buffer, heap


class TestHeapFetch:
    def test_fetch_by_position(self):
        _, _, heap = make_heap([(i, i * 10) for i in range(10)], rows_per_page=3)
        positions = dict(heap.scan_with_positions())
        # invert: find the position of row (7, 70)
        for position, row in heap.scan_with_positions():
            if row == (7, 70):
                assert heap.fetch(*position) == (7, 70)
                break
        else:
            pytest.fail("row not found")

    def test_fetch_counts_page_read_when_cold(self):
        disk, buffer, heap = make_heap([(i,) for i in range(8)], rows_per_page=2)
        position, row = next(heap.scan_with_positions())
        buffer.evict_all()
        disk.reset_stats()
        assert heap.fetch(*position) == row
        assert disk.page_reads == 1


class TestIsamIndex:
    def make_indexed(self, rows, **kwargs):
        disk, buffer, heap = make_heap(rows, **kwargs)
        index = IsamIndex(heap, key_column=0, buffer=buffer, entries_per_page=4)
        return disk, buffer, heap, index

    def test_lookup_single_match(self):
        _, _, _, index = self.make_indexed([(3, "a"), (1, "b"), (2, "c")])
        assert list(index.lookup(2)) == [(2, "c")]

    def test_lookup_duplicates(self):
        _, _, _, index = self.make_indexed(
            [(1, "a"), (2, "b"), (1, "c"), (1, "d")]
        )
        assert sorted(index.lookup(1)) == [(1, "a"), (1, "c"), (1, "d")]

    def test_lookup_missing_key(self):
        _, _, _, index = self.make_indexed([(1, "a")])
        assert list(index.lookup(99)) == []

    def test_lookup_null_never_matches(self):
        _, _, _, index = self.make_indexed([(None, "a"), (1, "b")])
        assert list(index.lookup(None)) == []
        assert index.num_entries == 1  # NULL key not indexed

    def test_duplicates_spanning_leaf_pages(self):
        rows = [(5, i) for i in range(10)] + [(1, -1), (9, -2)]
        _, _, _, index = self.make_indexed(rows)
        assert len(list(index.lookup(5))) == 10

    def test_range_queries(self):
        rows = [(i, str(i)) for i in range(10)]
        _, _, _, index = self.make_indexed(rows)
        assert [r[0] for r in index.range(3, 6)] == [3, 4, 5, 6]
        assert [r[0] for r in index.range(3, 6, inclusive=(False, False))] == [4, 5]
        assert [r[0] for r in index.range(None, 2)] == [0, 1, 2]
        assert [r[0] for r in index.range(8, None)] == [8, 9]

    def test_string_keys(self):
        rows = [("b", 1), ("a", 2), ("c", 3)]
        _, _, _, index = self.make_indexed(rows)
        assert list(index.lookup("a")) == [("a", 2)]
        assert [r[0] for r in index.range("a", "b")] == ["a", "b"]

    def test_empty_heap(self):
        _, _, _, index = self.make_indexed([])
        assert list(index.lookup(1)) == []
        assert index.num_pages == 0

    def test_probe_costs_few_pages(self):
        rows = [(i, i) for i in range(256)]
        disk, buffer, heap, index = self.make_indexed(rows, rows_per_page=4)
        buffer.evict_all()
        disk.reset_stats()
        assert list(index.lookup(100)) == [(100, 100)]
        # One-ish leaf page + one heap page, never a full scan.
        assert disk.page_reads <= 4
        assert disk.page_reads < heap.num_pages

    def test_rebuild_after_updates(self):
        disk, buffer, heap, index = self.make_indexed([(1, "a")])
        heap.extend([(2, "b")])
        heap.flush()
        assert list(index.lookup(2)) == []  # static: stale until rebuilt
        index.build()
        assert list(index.lookup(2)) == [(2, "b")]

    def test_drop_frees_pages(self):
        disk, buffer, heap, index = self.make_indexed([(i,) for i in range(20)])
        heap_pages = set(heap.page_ids)
        index.drop()
        assert set(heap.page_ids) == heap_pages  # heap untouched
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            list(index.lookup(1))

    @given(
        keys=st.lists(st.integers(0, 20), max_size=60),
        probe=st.integers(0, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_equals_filter(self, keys, probe):
        rows = [(k, i) for i, k in enumerate(keys)]
        _, _, _, index = self.make_indexed(rows, rows_per_page=3)
        expected = sorted(r for r in rows if r[0] == probe)
        assert sorted(index.lookup(probe)) == expected

    @given(
        keys=st.lists(st.integers(0, 20), max_size=60),
        low=st.integers(0, 20),
        span=st.integers(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_equals_filter(self, keys, low, span):
        high = low + span
        rows = [(k, i) for i, k in enumerate(keys)]
        _, _, _, index = self.make_indexed(rows, rows_per_page=3)
        expected = sorted(r for r in rows if low <= r[0] <= high)
        assert sorted(index.range(low, high)) == expected
