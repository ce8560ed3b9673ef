"""Heap files: unordered paged storage for one relation.

A heap file owns an ordered list of page ids.  ``scan()`` reads the
pages in order through the buffer pool, which is the sequential scan
the paper's cost model assumes ("for simplicity relations Ri and Rj are
scanned sequentially", section 7).
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import islice

from repro.storage import visibility
from repro.storage.buffer import BufferPool
from repro.storage.page import PAGE_CAPACITY_DEFAULT, Page


class HeapFile:
    """An append-only paged file of tuples.

    *Versioned* heaps (base tables under the transaction layer) trim
    their scans to the active snapshot's row horizon — see
    :mod:`repro.storage.visibility`.  Because the file is append-only
    and every page except the tail is filled before a new page is
    allocated, "the first N rows" always occupies a page-aligned prefix
    plus at most one partially visible boundary page, so a snapshot
    scan reads exactly the pages the table occupied at that commit
    point.  Unversioned heaps (temps, plain single-writer catalogs)
    behave exactly as before.
    """

    def __init__(
        self,
        buffer: BufferPool,
        rows_per_page: int = PAGE_CAPACITY_DEFAULT,
        name: str | None = None,
    ) -> None:
        self.buffer = buffer
        self.rows_per_page = rows_per_page
        self.name = name
        self.page_ids: list[int] = []
        self._num_rows = 0
        #: The write cursor: the pinned tail page, or None when closed.
        self._tail_page: Page | None = None
        #: Set by the catalog for non-temp tables: scans consult the
        #: active MVCC snapshot (if any) for a row-visibility horizon.
        self.versioned = False

    # -- writing ---------------------------------------------------------

    def _write_cursor(self) -> Page | None:
        """The pinned tail page, re-pinning it if the cursor was closed.

        While ``_tail_page`` is set the page is pinned and cannot be
        evicted, so the cached object is authoritative: a pinned page
        is outside the LRU, which means looking it up again would move
        nothing and fault nothing — the writers below consult the
        buffer pool once per touched page, not once per row, with an
        identical page-fault schedule.  Returns None when the file has
        no pages yet.
        """
        if self._tail_page is not None:
            return self._tail_page
        if not self.page_ids:
            return None
        # pin=True makes lookup-and-pin atomic: a separate pin()
        # after get_page() could race with another thread's evict.
        tail = self.buffer.get_page(self.page_ids[-1], pin=True)
        self._tail_page = tail
        return tail

    def _new_tail(self) -> Page:
        """Unpin the full tail and open a fresh pinned page."""
        self._unpin_tail()
        page = self.buffer.new_page(self.rows_per_page, pin=True)
        self._tail_page = page
        self.page_ids.append(page.page_id)
        return page

    def _tail_with_room(self) -> Page:
        """The pinned tail page, replaced by a fresh one when it is full.

        Called only once a row that needs the room has arrived: a full
        tail stays the tail until then, so an exactly-filled file never
        owns an empty page.
        """
        tail = self._write_cursor()
        if tail is None or tail.is_full:
            tail = self._new_tail()
        return tail

    def extend(self, rows: Iterable[tuple]) -> None:
        """Stream tuples onto the tail and release the write cursor.

        The single row-stream writer.  The tail page stays pinned while
        it fills (as a real write cursor would be), so filling a page
        costs exactly one eventual write, never an evict/re-read churn,
        and the next page is allocated only when the first row that
        needs it has been pulled from ``rows`` — a source that reads
        through the same pool sees its own faults and this file's
        allocations interleave exactly as they would row by row.  The
        cursor is released on the way out even when the source raises;
        the rows that arrived before the failure stay appended.
        """
        source = iter(rows)
        try:
            for row in source:
                tail = self._tail_with_room()
                filled = len(tail.rows)
                try:
                    tail.rows.append(row)
                    tail.rows.extend(islice(source, tail.capacity - filled - 1))
                finally:
                    tail.dirty = True
                    self._num_rows += len(tail.rows) - filled
        finally:
            self.close_writes()

    def append_rows(self, rows: list[tuple]) -> None:
        """Append a batch of tuples, filling pages chunk-wise.

        Page geometry is identical to :meth:`extend` over the same rows
        — same pages, same eventual writes.  Unlike ``extend`` the write
        cursor stays pinned between calls (a batch producer calls this
        once per batch); finish with :meth:`close_writes` or
        :meth:`flush` like any other writer.
        """
        index = 0
        total = len(rows)
        while index < total:
            tail = self._tail_with_room()
            take = min(tail.capacity - len(tail.rows), total - index)
            tail.rows.extend(rows[index : index + take])
            tail.dirty = True
            self._num_rows += take
            index += take

    def close_writes(self) -> None:
        """Release the pinned write cursor (safe to call repeatedly)."""
        self._unpin_tail()

    def flush(self) -> None:
        """Force all of this file's dirty pages to disk.

        The write cursor is released *before* any page is flushed, so
        even if a flush raises (e.g. a page freed by a concurrent drop)
        no pinned tail page survives in the buffer pool.
        """
        self.close_writes()
        for page_id in self.page_ids:
            self.buffer.flush_page(page_id)

    def truncate(self) -> None:
        """Drop all pages (frees them on the simulated disk, no I/O).

        Frame discard and disk deallocation happen atomically under the
        pool lock, taken once for the whole file
        (:meth:`~repro.storage.buffer.BufferPool.free_pages`), so a
        concurrent reader can never re-admit a stale frame for a freed
        page and eviction can never write one back.  A reader that
        races the drop may see ``StorageError: no such page`` —
        the documented outcome of scanning a relation while it is
        dropped — never silent corruption.

        Durability-ordering audit (transaction aborts): the pinned
        write cursor is released *first*, so a truncate racing an
        abort mid-``append_rows`` cannot leave ``free_pages`` to discard
        a pin this file still believes it holds (a later
        ``close_writes`` would then unpin a page id that may have been
        recycled).  ``free_pages`` itself drops the frames without
        writing them back, so no dirty-page accounting outlives a page.
        """
        self.close_writes()
        self.buffer.free_pages(self.page_ids)
        self.page_ids.clear()
        self._num_rows = 0

    def rollback_to(self, target_rows: int) -> None:
        """Undo appends past ``target_rows`` (transaction abort).

        The rows being removed are exactly the file's tail — writers
        are serialized by the transaction manager's commit lock, so an
        aborting transaction's appends are the most recent rows.  Tail
        pages emptied by the undo are freed (atomically, like
        :meth:`truncate`); a partially rolled-back boundary page is
        trimmed in place and marked dirty.  The write cursor is
        released first so no pinned or stale-dirty tail page survives
        an abort mid-``append_rows``.
        """
        if target_rows < 0:
            raise ValueError(f"cannot roll back to {target_rows} rows")
        self.close_writes()
        excess = self._num_rows - target_rows
        while excess > 0 and self.page_ids:
            page_id = self.page_ids[-1]
            page = self.buffer.get_page(page_id)
            if not page.rows:
                # Empty tail (allocation raced the abort): just free it.
                self.buffer.free_page(page_id)
                self.page_ids.pop()
                continue
            take = min(len(page.rows), excess)
            if take == len(page.rows):
                self.buffer.free_page(page_id)
                self.page_ids.pop()
            else:
                del page.rows[-take:]
                page.dirty = True
            self._num_rows -= take
            excess -= take

    def _unpin_tail(self) -> None:
        if self._tail_page is not None:
            self.buffer.unpin(self._tail_page.page_id)
            self._tail_page = None

    # -- reading ---------------------------------------------------------

    # Scans iterate a snapshot of the page list: a concurrent truncate
    # clears ``page_ids``, and mutating a list mid-iteration would skip
    # pages silently; with the snapshot a racing scan instead fails
    # cleanly on the first freed page it touches.

    def _scan_limit(self) -> int | None:
        """Row horizon for this scan, or None for the whole file.

        Consults the active MVCC snapshot for versioned heaps.  The
        horizon is honored even when it equals the current row count:
        degenerating to the untrimmed path there would let a writer's
        mid-scan appends leak into a snapshot read (the tail page's
        row list is live).  The bounded path reads exactly the same
        pages, so the paper's page-I/O accounting is unaffected.
        """
        if not self.versioned:
            return None
        return visibility.visible_limit(self.name)

    def visible_rows(self) -> int:
        """Tuple count under the active snapshot (``num_rows`` if none)."""
        limit = self._scan_limit()
        return self._num_rows if limit is None else limit

    def visible_pages(self) -> int:
        """Page count a snapshot scan reads (``num_pages`` if no snapshot)."""
        limit = self._scan_limit()
        if limit is None:
            return self.num_pages
        return min(self.num_pages, -(-limit // self.rows_per_page))

    def scan(self) -> Iterator[tuple]:
        """Yield every visible tuple, reading pages sequentially."""
        limit = self._scan_limit()
        if limit is None:
            for page_id in list(self.page_ids):
                page = self.buffer.get_page(page_id)
                yield from page.rows
            return
        remaining = limit
        for page_id in list(self.page_ids):
            if remaining <= 0:
                break
            # Slice every page: a concurrent writer may be appending to
            # the tail, and yielding the live row list would hand its
            # uncommitted rows to this snapshot scan mid-iteration.
            taken = self.buffer.get_page(page_id).rows[:remaining]
            remaining -= len(taken)
            yield from taken

    def scan_pages(self, run_rows: int = 0) -> Iterator[list[tuple]]:
        """Yield the file in runs of whole pages, each a fresh list.

        A run takes pages, one ``get_page`` at a time in file order,
        until it holds at least ``run_rows`` rows (so ``0``, the
        default, is one page per run: external sort, merge and
        nested-loop inputs).  Each page's rows are copied out before
        the next page is read and no frame is held or pinned across a
        run, so the pool sees the same fault sequence at any run size.
        """
        limit = self._scan_limit()
        remaining = sys.maxsize if limit is None else limit
        run: list[tuple] = []
        for page_id in list(self.page_ids):
            if remaining <= 0:
                break
            # One slice is the copy, and it stops a snapshot scan at its
            # horizon: a concurrent writer may be appending to the tail.
            rows = self.buffer.get_page(page_id).rows[:remaining]
            remaining -= len(rows)
            if run:
                run += rows
            else:
                run = rows
            if len(run) >= run_rows:
                yield run
                run = []
        if run:
            yield run

    def scan_range(self, start: int, stop: int) -> Iterator[tuple]:
        """Yield rows ``[start, stop)`` in file order, reading only the
        pages that hold them.

        Rows never move once appended, so the rows a commit added — the
        difference of two snapshot horizons — are exactly such a range:
        a reader reads the delta of a commit without reading what the
        table held before it.
        """
        first = start // self.rows_per_page
        for page_index in range(first, -(-stop // self.rows_per_page)):
            offset = page_index * self.rows_per_page
            rows = self.buffer.get_page(self.page_ids[page_index]).rows
            yield from rows[max(start - offset, 0) : stop - offset]

    def scan_with_positions(self) -> Iterator[tuple[tuple[int, int], tuple]]:
        """Yield ``((page_id, slot), row)`` pairs — used by index builds."""
        limit = self._scan_limit()
        remaining = self._num_rows if limit is None else limit
        for page_id in list(self.page_ids):
            if remaining <= 0:
                break
            page = self.buffer.get_page(page_id)
            taken = page.rows[:remaining]
            for slot, row in enumerate(taken):
                yield (page_id, slot), row
            remaining -= len(taken)

    def fetch(self, page_id: int, slot: int) -> tuple:
        """Fetch one tuple by position (an index probe's heap access).

        Reads the page through the buffer pool, so probes are charged
        page I/O like every other access.
        """
        page = self.buffer.get_page(page_id)
        return page.rows[slot]

    # -- metadata --------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Page count — the paper's ``Pk`` for this relation."""
        return len(self.page_ids)

    @property
    def num_rows(self) -> int:
        """Tuple count — the paper's ``Nk`` for this relation."""
        return self._num_rows

    def __repr__(self) -> str:
        label = self.name or "?"
        return (
            f"HeapFile({label}, pages={self.num_pages}, rows={self.num_rows})"
        )
