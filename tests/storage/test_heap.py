"""Unit and property tests for heap files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapFile


def make_heap(rows_per_page=4, buffer_pages=4):
    disk = DiskManager()
    pool = BufferPool(disk, capacity=buffer_pages)
    return disk, pool, HeapFile(pool, rows_per_page=rows_per_page, name="T")


class TestHeapFile:
    def test_empty_heap(self):
        _, _, heap = make_heap()
        assert heap.num_pages == 0
        assert heap.num_rows == 0
        assert list(heap.scan()) == []

    def test_append_and_scan_preserves_order(self):
        _, _, heap = make_heap(rows_per_page=3)
        rows = [(i,) for i in range(10)]
        heap.extend(rows)
        assert list(heap.scan()) == rows

    def test_page_count_matches_ceiling_division(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(10))
        assert heap.num_pages == 3  # ceil(10/4)
        assert heap.num_rows == 10

    def test_exact_page_boundary(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(8))
        assert heap.num_pages == 2

    def test_scan_pages_groups_by_page(self):
        _, _, heap = make_heap(rows_per_page=4)
        heap.extend((i,) for i in range(6))
        pages = list(heap.scan_pages())
        assert [len(p) for p in pages] == [4, 2]

    def test_truncate_frees_pages(self):
        disk, _, heap = make_heap(rows_per_page=2)
        heap.extend((i,) for i in range(6))
        heap.truncate()
        assert heap.num_pages == 0
        assert heap.num_rows == 0
        assert disk.num_pages == 0

    def test_scan_costs_one_read_per_page_when_cold(self):
        disk, pool, heap = make_heap(rows_per_page=2, buffer_pages=4)
        heap.extend((i,) for i in range(8))  # 4 pages
        heap.flush()
        pool.evict_all()
        disk.reset_stats()
        list(heap.scan())
        assert disk.page_reads == 4

    def test_flush_writes_each_page_once(self):
        disk, _, heap = make_heap(rows_per_page=2, buffer_pages=8)
        heap.extend((i,) for i in range(8))  # 4 pages
        heap.flush()
        assert disk.page_writes == 4

    def test_append_after_scan(self):
        _, _, heap = make_heap(rows_per_page=2)
        heap.extend([(1,)])
        assert list(heap.scan()) == [(1,)]
        heap.extend([(2,)])
        heap.extend([(3,)])
        assert list(heap.scan()) == [(1,), (2,), (3,)]


class TestHeapProperties:
    @given(
        rows=st.lists(st.tuples(st.integers(), st.integers()), max_size=200),
        rows_per_page=st.integers(min_value=1, max_value=7),
        buffer_pages=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_geometry(self, rows, rows_per_page, buffer_pages):
        """Whatever the page/buffer geometry, scan returns what was appended."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=buffer_pages)
        heap = HeapFile(pool, rows_per_page=rows_per_page)
        heap.extend(rows)
        assert list(heap.scan()) == rows
        expected_pages = (len(rows) + rows_per_page - 1) // rows_per_page
        assert heap.num_pages == expected_pages

    @given(
        n=st.integers(min_value=0, max_value=100),
        rows_per_page=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_cold_scan_reads_exactly_num_pages(self, n, rows_per_page):
        """A cold sequential scan costs exactly Pk page reads."""
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        heap = HeapFile(pool, rows_per_page=rows_per_page)
        heap.extend((i,) for i in range(n))
        heap.flush()
        pool.evict_all()
        disk.reset_stats()
        assert len(list(heap.scan())) == n
        assert disk.page_reads == heap.num_pages


def reference_extend(heap, rows):
    """The retired row-at-a-time writer, kept here as the oracle: it
    re-finds and re-pins the tail page through the pool for every tuple
    and allocates the next page when the tuple that needs it arrives."""
    pool = heap.buffer
    pinned = None
    for row in rows:
        tail = None
        if heap.page_ids:
            tail = pool.get_page(heap.page_ids[-1], pin=True)
            if pinned != tail.page_id:
                if pinned is not None:
                    pool.unpin(pinned)
                pinned = tail.page_id
        if tail is None or tail.is_full:
            if pinned is not None:
                pool.unpin(pinned)
            tail = pool.new_page(heap.rows_per_page, pin=True)
            pinned = tail.page_id
            heap.page_ids.append(tail.page_id)
        tail.append(row)
        heap._num_rows += 1
    if pinned is not None:
        pool.unpin(pinned)


class TestStreamingWriterSchedule:
    """``extend`` holds the pinned tail instead of looking it up per row;
    nothing the paper's cost model can see may change because of it."""

    @staticmethod
    def world(buffer_pages, rows_per_page, source_rows, prefilled, cold):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=buffer_pages)
        source = HeapFile(pool, rows_per_page=3, name="S")
        source.extend((i, -i) for i in range(source_rows))
        source.flush()
        target = HeapFile(pool, rows_per_page=rows_per_page, name="T")
        target.extend((-1, i) for i in range(prefilled))
        target.flush()
        if cold:
            pool.evict_all()
        disk.reset_stats()
        return disk, pool, source, target

    @given(
        buffer_pages=st.integers(min_value=2, max_value=6),
        rows_per_page=st.integers(min_value=1, max_value=5),
        source_rows=st.integers(min_value=0, max_value=40),
        prefilled=st.integers(min_value=0, max_value=11),
        cold=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_io_schedule_as_the_per_row_writer(
        self, buffer_pages, rows_per_page, source_rows, prefilled, cold
    ):
        setup = (buffer_pages, rows_per_page, source_rows, prefilled, cold)
        disk, pool, source, target = self.world(*setup)
        ref_disk, ref_pool, ref_source, ref_target = self.world(*setup)

        # The source reads its pages through the same pool the target
        # writes into, so faults and allocations interleave.
        target.extend(source.scan())
        reference_extend(ref_target, ref_source.scan())

        assert target.page_ids == ref_target.page_ids
        assert target.num_rows == ref_target.num_rows
        assert list(target.scan_pages()) == list(ref_target.scan_pages())
        assert disk.page_reads == ref_disk.page_reads
        assert disk.page_writes == ref_disk.page_writes
        assert list(pool._lru) == list(ref_pool._lru)
        assert not pool._pinned and not ref_pool._pinned
        target.flush()
        ref_target.flush()
        assert disk.page_writes == ref_disk.page_writes

    def test_empty_iterable_touches_nothing(self):
        disk, pool, _source, target = self.world(4, 2, 6, 3, cold=True)
        target.extend(iter(()))
        assert (disk.page_reads, disk.page_writes, pool.hits) == (0, 0, 0)
        assert pool.resident_pages == 0
        assert target.num_rows == 3

    def test_tail_pinned_exactly_while_writing(self):
        _disk, pool, _source, target = self.world(4, 2, 0, 3, cold=False)
        seen = []

        def rows():
            for i in range(5):
                # Nothing is pinned before the first row arrives; from
                # then on exactly the current tail is.
                seen.append((set(pool._pinned), target.page_ids[-1]))
                yield (i, i)

        target.extend(rows())
        assert seen[0][0] == set()
        assert all(pinned == {tail} for pinned, tail in seen[1:])
        assert not pool._pinned

    def test_cursor_released_when_the_source_raises(self):
        _disk, pool, _source, target = self.world(4, 2, 0, 0, cold=False)

        def rows():
            yield (1, 1)
            yield (2, 2)
            yield (3, 3)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            target.extend(rows())
        assert not pool._pinned
        # What arrived before the failure stays appended and counted.
        assert list(target.scan()) == [(1, 1), (2, 2), (3, 3)]
        assert target.num_rows == 3
