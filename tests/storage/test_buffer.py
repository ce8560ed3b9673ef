"""Unit tests for the LRU buffer pool.

The key behaviour under test is the one the paper's cost model relies
on: a relation that fits in the buffer is read from disk once no matter
how many times it is rescanned, while a larger relation is re-fetched.
"""

import threading

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


def make_pool(capacity=4):
    disk = DiskManager()
    return disk, BufferPool(disk, capacity=capacity)


class TestBasics:
    def test_min_capacity_enforced(self):
        disk = DiskManager()
        with pytest.raises(StorageError):
            BufferPool(disk, capacity=1)

    def test_first_access_is_a_miss(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.get_page(pid)
        assert disk.page_reads == 1
        assert pool.hits == 0

    def test_second_access_is_a_hit(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.get_page(pid)
        pool.get_page(pid)
        assert disk.page_reads == 1
        assert pool.hits == 1

    def test_new_page_needs_no_read(self):
        disk, pool = make_pool()
        page = pool.new_page(capacity=4)
        assert disk.page_reads == 0
        assert page.dirty

    def test_mark_dirty_requires_residency(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        with pytest.raises(StorageError):
            pool.mark_dirty(pid)


class TestEvictionAndWriteback:
    def test_lru_eviction_order(self):
        disk, pool = make_pool(capacity=2)
        a, b, c = disk.allocate(), disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.get_page(b)
        pool.get_page(c)  # evicts a (least recently used)
        assert disk.page_reads == 3
        pool.get_page(b)  # still resident
        assert pool.hits == 1
        pool.get_page(a)  # was evicted: one more read
        assert disk.page_reads == 4

    def test_touch_refreshes_lru_position(self):
        disk, pool = make_pool(capacity=2)
        a, b, c = disk.allocate(), disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.get_page(b)
        pool.get_page(a)  # a is now most recent
        pool.get_page(c)  # evicts b
        pool.get_page(a)
        assert disk.page_reads == 3  # a, b, c — a never re-read
        assert pool.hits == 2

    def test_eviction_writes_back_dirty_page(self):
        disk, pool = make_pool(capacity=2)
        dirty = pool.new_page(capacity=4)
        dirty.append((1,))
        a, b = disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.get_page(b)  # evicts the dirty page → one write
        assert disk.page_writes == 1
        reread = pool.get_page(dirty.page_id)
        assert reread.rows == [(1,)]

    def test_eviction_skips_clean_pages(self):
        disk, pool = make_pool(capacity=2)
        a, b, c = disk.allocate(), disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.get_page(b)
        pool.get_page(c)
        assert disk.page_writes == 0

    def test_flush_all_writes_dirty_once(self):
        disk, pool = make_pool(capacity=4)
        page = pool.new_page(4)
        page.append((1,))
        pool.flush_all()
        pool.flush_all()  # second flush: page now clean
        assert disk.page_writes == 1

    def test_evict_all_empties_pool(self):
        disk, pool = make_pool(capacity=4)
        pool.new_page(4)
        pool.evict_all()
        assert pool.resident_pages == 0


class TestPinning:
    def test_pinned_page_survives_eviction_pressure(self):
        disk, pool = make_pool(capacity=2)
        a = disk.allocate()
        pool.get_page(a)
        pool.pin(a)
        for _ in range(5):
            pool.get_page(disk.allocate())
        pool.get_page(a)  # never left the pool
        assert disk.page_reads == 6
        assert pool.hits == 1

    def test_pin_requires_residency(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        with pytest.raises(StorageError):
            pool.pin(pid)

    def test_fully_pinned_pool_refuses_admission(self):
        disk, pool = make_pool(capacity=2)
        pids = [disk.allocate() for _ in range(2)]
        for pid in pids:
            pool.get_page(pid)
            pool.pin(pid)
        with pytest.raises(StorageError, match="every page is pinned"):
            pool.get_page(disk.allocate())

    def test_unpin_reopens_the_pool(self):
        disk, pool = make_pool(capacity=2)
        a, b = disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.pin(a)
        pool.get_page(b)
        pool.pin(b)
        pool.unpin(a)
        c = disk.allocate()
        pool.get_page(c)  # evicts a, the only unpinned frame
        assert pool.resident_pages == 2
        pool.get_page(b)
        assert pool.hits == 1  # b stayed put

    def test_unpin_is_idempotent_and_keeps_lru_order(self):
        disk, pool = make_pool(capacity=2)
        a, b = disk.allocate(), disk.allocate()
        pool.get_page(a)
        pool.get_page(b)
        pool.unpin(a)  # never pinned: must not promote a to MRU
        pool.get_page(disk.allocate())  # evicts a, not b
        pool.get_page(b)
        assert pool.hits == 1

    def test_dirty_pinned_page_writes_back_after_unpin(self):
        disk, pool = make_pool(capacity=2)
        page = pool.new_page(capacity=4)
        page.append((42,))
        pool.pin(page.page_id)
        pool.get_page(disk.allocate())
        pool.unpin(page.page_id)
        pool.get_page(disk.allocate())
        pool.get_page(disk.allocate())  # pressure evicts the dirty page
        assert disk.page_writes == 1
        assert pool.get_page(page.page_id).rows == [(42,)]


class TestRescanBehaviour:
    """The buffer property the paper's nested-iteration analysis uses."""

    def test_small_relation_rescans_cost_nothing(self):
        disk, pool = make_pool(capacity=4)
        pids = [disk.allocate() for _ in range(3)]  # fits in B=4
        for _ in range(10):
            for pid in pids:
                pool.get_page(pid)
        assert disk.page_reads == 3  # only the cold pass

    def test_large_relation_rescans_refetch_everything(self):
        disk, pool = make_pool(capacity=2)
        pids = [disk.allocate() for _ in range(5)]  # exceeds B=2
        for _ in range(3):
            for pid in pids:
                pool.get_page(pid)
        # Sequential scans over 5 pages with 2 buffer frames under LRU
        # never hit: 15 reads.
        assert disk.page_reads == 15
        assert pool.hits == 0


class _CountingLock:
    """Counts acquisitions of the lock it wraps."""

    def __init__(self, lock):
        self._lock = lock
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestFreePages:
    def test_frees_frames_pins_and_disk_pages(self):
        disk, pool = make_pool(capacity=4)
        kept = pool.new_page()
        doomed = [pool.new_page(pin=(i == 0)) for i in range(3)]
        pool.free_pages([page.page_id for page in doomed])
        assert pool.resident_pages == 1 and disk.num_pages == 1
        assert disk.page_writes == 0  # dirty frames dropped, not written
        for page in doomed:
            pool.unpin(page.page_id)  # a reader's late unpin is a no-op
            assert not disk.exists(page.page_id)
        assert pool.get_page(kept.page_id) is kept

    def test_a_missing_page_is_reported_after_the_rest_are_freed(self):
        disk, pool = make_pool()
        pages = [pool.new_page().page_id for _ in range(3)]
        pool.free_page(pages[1])
        with pytest.raises(StorageError, match=f"no such page: {pages[1]}"):
            pool.free_pages(pages)
        assert disk.num_pages == 0 and pool.resident_pages == 0

    def test_truncate_takes_each_lock_once_per_heap(self):
        from repro.storage.heap import HeapFile

        disk, pool = make_pool(capacity=4)
        heap = HeapFile(pool, rows_per_page=2)
        heap.extend((i,) for i in range(40))
        heap.flush()
        assert heap.num_pages == 20
        pool._lock = _CountingLock(pool._lock)
        disk._lock = _CountingLock(disk._lock)
        heap.truncate()
        assert (pool._lock.acquisitions, disk._lock.acquisitions) == (1, 1)
        assert heap.num_pages == 0 and heap.num_rows == 0
        assert disk.num_pages == 0 and pool.resident_pages == 0


class TestBufferCounterAtomicity:
    @pytest.mark.stress
    def test_hits_plus_reads_account_for_every_access(self):
        """8 threads x 2000 get_page calls with no eviction pressure:
        every access is exactly one hit or one disk read, so the
        counters must sum to the access count (no lost updates)."""
        buffer = BufferPool(DiskManager(), capacity=64)
        pages = [buffer.new_page(4).page_id for _ in range(16)]
        for page_id in pages:
            buffer.flush_page(page_id)
        buffer.evict_all()
        buffer.reset_stats()

        per_thread = 2000
        start = threading.Barrier(8, timeout=30)
        failures: list[BaseException] = []

        def worker(seed):
            try:
                start.wait()
                for i in range(per_thread):
                    buffer.get_page(pages[(seed + i) % len(pages)])
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        stats = buffer.stats()
        assert stats.buffer_hits + stats.page_reads == 8 * per_thread
        # All 16 pages stayed resident, so reads happened once per page.
        assert stats.page_reads == len(pages)
