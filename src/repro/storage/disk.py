"""Simulated disk: page store plus the I/O counters the paper measures."""

from __future__ import annotations

import time
from collections.abc import Collection

from repro.errors import StorageError
from repro.storage.locks import make_lock
from repro.storage.page import PAGE_CAPACITY_DEFAULT, Page
from repro.storage.stats import IOStats


class DiskManager:
    """Holds pages and counts every page read and write.

    The "disk" is a dict from page id to a frozen snapshot of the
    page's tuples.  Reads return a fresh :class:`Page` object so buffer
    frames never alias disk state.

    All state is guarded by an internal lock, so concurrent readers
    (the serving layer's worker threads) can miss in the buffer pool
    and fault pages in simultaneously.

    Args:
        io_delay: optional simulated seconds per page *read*.  The sleep
            happens outside the lock (and releases the GIL), modelling a
            disk whose transfers overlap across threads; throughput
            benchmarks use it so multi-threaded scaling reflects an
            I/O-bound workload rather than pure-Python CPU contention.
            Writes are not delayed (write-behind cache behaviour).
    """

    def __init__(self, io_delay: float = 0.0) -> None:
        self._pages: dict[int, tuple[tuple, ...]] = {}
        self._capacities: dict[int, int] = {}
        self._next_page_id = 0
        self.page_reads = 0
        self.page_writes = 0
        self.io_delay = io_delay
        self._lock = make_lock("disk")

    # -- allocation ----------------------------------------------------------

    def allocate(self, capacity: int = PAGE_CAPACITY_DEFAULT) -> int:
        """Allocate a fresh, empty page and return its id.

        Allocation itself is free (no I/O is counted); the page is
        charged when it is first written back.
        """
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            self._pages[page_id] = ()
            self._capacities[page_id] = capacity
            return page_id

    def deallocate(self, page_id: int) -> None:
        """Release a page (no I/O is counted)."""
        self.deallocate_pages((page_id,))

    def deallocate_pages(self, page_ids: Collection[int]) -> None:
        """Release pages under one acquisition of the lock.

        Every page that exists is released even when another does not
        (a double free); the first of those is then reported.
        """
        with self._lock:
            missing: int | None = None
            for page_id in page_ids:
                if page_id in self._pages:
                    del self._pages[page_id]
                    del self._capacities[page_id]
                elif missing is None:
                    missing = page_id
            if missing is not None:
                raise StorageError(f"no such page: {missing}")

    @property
    def num_pages(self) -> int:
        with self._lock:
            return len(self._pages)

    def exists(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._pages

    # -- I/O -----------------------------------------------------------------

    def read_page(self, page_id: int) -> Page:
        """Fetch a page from disk (counts one page read)."""
        with self._lock:
            self._check_exists(page_id)
            self.page_reads += 1
            page = Page(
                page_id,
                capacity=self._capacities[page_id],
                rows=list(self._pages[page_id]),
            )
        if self.io_delay:
            # Simulated transfer time; deliberately outside the lock so
            # concurrent faults overlap, as real disk requests would.
            time.sleep(self.io_delay)
        return page

    def write_page(self, page: Page) -> None:
        """Write a page back to disk (counts one page write)."""
        with self._lock:
            self._check_exists(page.page_id)
            self.page_writes += 1
            self._pages[page.page_id] = tuple(page.rows)

    # -- statistics ----------------------------------------------------------

    def stats(self, buffer_hits: int = 0) -> IOStats:
        """Snapshot the counters (optionally folding in buffer hits)."""
        with self._lock:
            return IOStats(
                page_reads=self.page_reads,
                page_writes=self.page_writes,
                buffer_hits=buffer_hits,
            )

    def reset_stats(self) -> None:
        """Zero the counters (used between benchmark phases)."""
        with self._lock:
            self.page_reads = 0
            self.page_writes = 0

    def _check_exists(self, page_id: int) -> None:
        if page_id not in self._pages:
            raise StorageError(f"no such page: {page_id}")
