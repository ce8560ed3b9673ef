"""LRU buffer pool of exactly ``B`` pages.

``B`` is the paper's "size in pages of available main-memory buffer
space" (section 7).  The pool caches page frames, counts hits, and
writes dirty frames back on eviction.  All page access in the engine —
scans, sorts, joins, temp-table builds — goes through here, so the
benchmark numbers reflect real buffer behaviour: an inner relation that
fits in ``B - 1`` pages is fetched from disk once no matter how many
times nested iteration rescans it, exactly the distinction the paper's
cost analysis draws.

Concurrency.  The pool is safe for N worker threads executing cached
plans concurrently (the serving layer's read path):

* a pool-level re-entrant lock guards all structural state (residency
  map, LRU order, pin set, hit counter);
* a fixed array of *stripe latches* (page id mod stripe count)
  serializes disk faults per page, so two threads missing on the same
  page fetch it once — and, crucially, the disk read happens while
  holding only the stripe latch, letting faults on different pages
  overlap their (simulated) transfer time;
* lock order is stripe latch → pool lock → disk lock, everywhere, so
  the hierarchy is deadlock-free.  Eviction runs entirely under the
  pool lock and never touches a stripe latch.

Pinned pages were already excluded from the LRU; ``get_page``/
``new_page`` additionally take ``pin=True`` so callers can make the
lookup-then-pin sequence atomic (a lone ``pin()`` after ``get_page()``
could race with another thread's eviction).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection

from repro.errors import StorageError
from repro.storage.disk import DiskManager
from repro.storage.locks import make_lock
from repro.storage.page import PAGE_CAPACITY_DEFAULT, Page
from repro.storage.stats import IOStats

#: Default buffer size in pages; benchmarks override it per experiment.
DEFAULT_BUFFER_PAGES = 8

#: Default number of per-page fault latches (modulo-mapped), so
#: serving threads faulting on different pages rarely share a latch.
_STRIPE_COUNT = 16


class BufferPool:
    """An LRU cache of page frames backed by a :class:`DiskManager`."""

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_BUFFER_PAGES,
        stripes: int = _STRIPE_COUNT,
    ) -> None:
        if capacity < 2:
            raise StorageError(
                f"buffer pool needs at least 2 pages, got {capacity}"
            )
        if stripes < 1:
            raise StorageError(f"stripe count must be >= 1, got {stripes}")
        self.disk = disk
        self.capacity = capacity
        # Residency and eviction order are tracked separately: _frames
        # maps every resident page to its frame, while _lru orders only
        # the *unpinned* residents.  Pinning removes a page from _lru,
        # so eviction is a single popitem — O(1) amortized — instead of
        # a scan past however many pages happen to be pinned.
        self._frames: dict[int, Page] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._pinned: set[int] = set()
        self.hits = 0
        self._lock = make_lock("buffer.pool", reentrant=True)
        self._stripes = tuple(
            make_lock("buffer.stripe") for _ in range(stripes)
        )

    # -- page access ---------------------------------------------------------

    def get_page(self, page_id: int, *, pin: bool = False) -> Page:
        """Return the frame for ``page_id``, fetching from disk on miss.

        With ``pin=True`` the page is pinned atomically with the lookup.
        """
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
                if pin:
                    self._pin_locked(page_id)
                elif page_id in self._lru:
                    self._lru.move_to_end(page_id)
                return frame
        # Miss: fault the page in under its stripe latch so concurrent
        # misses on the same page read it once, while faults on other
        # pages proceed in parallel.
        with self._stripes[page_id % len(self._stripes)]:
            with self._lock:
                frame = self._frames.get(page_id)
                if frame is not None:
                    self.hits += 1
                    if pin:
                        self._pin_locked(page_id)
                    elif page_id in self._lru:
                        self._lru.move_to_end(page_id)
                    return frame
            # Disk read outside the pool lock (stripe latch held).
            frame = self.disk.read_page(page_id)
            with self._lock:
                resident = self._frames.get(page_id)
                if resident is not None:
                    # Raced with another stripe's admit (cannot happen
                    # for the same page — the stripe latch prevents it —
                    # but kept for safety).
                    frame = resident
                    self.hits += 1
                elif not self.disk.exists(page_id):
                    # The page was freed between our disk read and this
                    # admit (a concurrent heap truncate).  Admitting it
                    # would leave a stale frame for a deallocated page;
                    # hand the caller its snapshot without caching it.
                    if pin:
                        raise StorageError(
                            f"cannot pin freed page {page_id}"
                        )
                    return frame
                else:
                    self._admit(frame)
                if pin:
                    self._pin_locked(page_id)
                return frame

    def new_page(
        self, capacity: int = PAGE_CAPACITY_DEFAULT, *, pin: bool = False
    ) -> Page:
        """Allocate a fresh page and admit an empty, dirty frame for it.

        The page is charged one write when it is eventually flushed or
        evicted, matching the paper's convention that building a P-page
        temporary costs P page writes.
        """
        page_id = self.disk.allocate(capacity)
        frame = Page(page_id, capacity=capacity)
        frame.dirty = True
        with self._lock:
            self._admit(frame)
            if pin:
                self._pin_locked(page_id)
        return frame

    def pin(self, page_id: int) -> None:
        """Protect a resident page from eviction (e.g. a write cursor).

        A real buffer manager pins the page a writer is filling; without
        this, appending row-by-row under a tiny buffer would charge
        spurious write/read pairs that no actual system incurs.

        Prefer ``get_page(..., pin=True)`` under concurrency: a separate
        pin after the lookup can race with another thread's eviction.
        """
        with self._lock:
            self._pin_locked(page_id)

    def _pin_locked(self, page_id: int) -> None:
        if page_id not in self._frames:
            raise StorageError(f"cannot pin non-resident page {page_id}")
        self._pinned.add(page_id)
        self._lru.pop(page_id, None)

    def unpin(self, page_id: int) -> None:
        """Release a pin (idempotent); the page re-enters LRU as MRU."""
        with self._lock:
            if page_id in self._pinned:
                self._pinned.remove(page_id)
                if page_id in self._frames:
                    self._lru[page_id] = None

    def mark_dirty(self, page_id: int) -> None:
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None:
                raise StorageError(f"page {page_id} is not resident")
            frame.dirty = True

    def flush_page(self, page_id: int) -> None:
        """Write one resident page back to disk if dirty (keeps it cached)."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None and frame.dirty:
                self.disk.write_page(frame)
                frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty frame (keeps them cached)."""
        with self._lock:
            for frame in self._frames.values():
                if frame.dirty:
                    self.disk.write_page(frame)
                    frame.dirty = False

    def evict_all(self) -> None:
        """Flush and drop every frame; the pool becomes cold."""
        with self._lock:
            self.flush_all()
            self._frames.clear()
            self._lru.clear()
            self._pinned.clear()

    def discard(self, page_id: int) -> None:
        """Drop a frame without writing it back (for deallocated pages)."""
        with self._lock:
            self._frames.pop(page_id, None)
            self._lru.pop(page_id, None)
            self._pinned.discard(page_id)

    def free_page(self, page_id: int) -> None:
        """Free one page (see :meth:`free_pages`)."""
        self.free_pages((page_id,))

    def free_pages(self, page_ids: Collection[int]) -> None:
        """Atomically discard the pages' frames and deallocate them on disk.

        Holding the pool lock across both steps closes the race a
        separate discard-then-deallocate sequence leaves open: eviction
        (which writes dirty frames back under this same lock) can never
        pick a page mid-free, and a faulting reader's admit — also
        under this lock, with an existence re-check — can never install
        a stale frame for a page that no longer exists.  A concurrent
        reader's pin on a page is dropped with the frame: the reader
        keeps its (snapshot) frame reference, and its later ``unpin``
        is a no-op.

        A whole heap goes in one call: the pool lock and the disk lock
        are each taken once, not once per page.
        """
        with self._lock:
            for page_id in page_ids:
                self._frames.pop(page_id, None)
                self._lru.pop(page_id, None)
                self._pinned.discard(page_id)
            self.disk.deallocate_pages(page_ids)

    # -- statistics ----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    def stats(self) -> IOStats:
        """Current counters from the underlying disk plus hit count."""
        with self._lock:
            return self.disk.stats(buffer_hits=self.hits)

    def reset_stats(self) -> None:
        with self._lock:
            self.disk.reset_stats()
            self.hits = 0

    # -- internals (caller holds the pool lock) ------------------------------

    def _admit(self, frame: Page) -> None:
        """Make a page that is not resident resident, as the MRU."""
        while len(self._frames) >= self.capacity:
            self._evict_lru()
        self._frames[frame.page_id] = frame
        self._lru[frame.page_id] = None

    def _evict_lru(self) -> None:
        if not self._lru:
            raise StorageError("buffer pool exhausted: every page is pinned")
        victim, _ = self._lru.popitem(last=False)
        frame = self._frames.pop(victim)
        if frame.dirty:
            self.disk.write_page(frame)
            frame.dirty = False
