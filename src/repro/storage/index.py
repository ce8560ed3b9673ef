"""ISAM-style single-column indexes.

The paper mentions indexes once, and pointedly (section 5.2): a system
may be tempted to perform a join *first* "to take advantage of indices
on the join columns" — which breaks the restriction-before-outer-join
ordering NEST-JA2 needs.  To reproduce that trap (and to give System
R-style nested iteration its classic accelerator) this module provides
a page-accounted index:

* **leaf pages** hold sorted ``(key, heap_page_id, slot)`` entries and
  live on the simulated disk — probes read them through the buffer
  pool and are charged page I/O;
* the **directory** (first key of each leaf page) is kept in memory,
  standing in for the upper B-tree levels a real system would almost
  always have cached.

The index is static (ISAM): it is built by one scan of the heap and
must be rebuilt after updates — adequate for this repository's
read-only analytical workloads, and documented here so nobody mistakes
it for a full B-tree.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from repro.engine.sort import orderable
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile

#: Entries per leaf page (a (key, page, slot) triple is small).
INDEX_ENTRIES_PER_PAGE = 64


class IsamIndex:
    """A static sorted index over one column of a heap file."""

    def __init__(
        self,
        heap: HeapFile,
        key_column: int,
        buffer: BufferPool,
        name: str | None = None,
        entries_per_page: int = INDEX_ENTRIES_PER_PAGE,
    ) -> None:
        self.heap = heap
        self.key_column = key_column
        self.buffer = buffer
        self.name = name or f"idx_{heap.name}_{key_column}"
        self._leaves = HeapFile(
            buffer, rows_per_page=entries_per_page, name=self.name
        )
        #: First key of each leaf page (the in-memory directory).
        self._directory: list = []
        self._built = False
        self.build()

    # -- construction -----------------------------------------------------

    def build(self) -> None:
        """(Re)build the index with one scan of the heap.

        NULL keys are not indexed (they can never match an equality or
        range probe).
        """
        self._leaves.truncate()
        entries = [
            (orderable(row[self.key_column]), position)
            for position, row in self.heap.scan_with_positions()
            if row[self.key_column] is not None
        ]
        entries.sort(key=lambda e: e[0])
        self._leaves.extend(
            (key, page_id, slot) for key, (page_id, slot) in entries
        )
        self._leaves.flush()

        self._directory = [
            page_rows[0][0] for page_rows in self._leaves.scan_pages()
        ]
        self._built = True

    @property
    def num_pages(self) -> int:
        """Leaf page count of the index."""
        return self._leaves.num_pages

    @property
    def num_entries(self) -> int:
        return self._leaves.num_rows

    # -- probes -----------------------------------------------------------

    def lookup(self, key: object) -> Iterator[tuple]:
        """Yield every heap row whose key equals ``key``.

        Cost: the leaf pages containing the key range, plus one heap
        page read per matching row (buffer hits when clustered).
        """
        if key is None:
            return
        yield from self._probe(orderable(key), orderable(key))

    def range(
        self, low: object = None, high: object = None,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> Iterator[tuple]:
        """Yield heap rows with key in the given (optional) bounds."""
        low_key = orderable(low) if low is not None else None
        high_key = orderable(high) if high is not None else None
        yield from self._probe(low_key, high_key, inclusive)

    def _probe(
        self,
        low_key,
        high_key,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> Iterator[tuple]:
        if not self._built:
            raise StorageError(f"index {self.name} is not built")
        if not self._directory:
            return

        # Directory search is free (cached internal levels); choose the
        # first leaf that could contain low_key.
        if low_key is None:
            start_leaf = 0
        else:
            # First leaf that can contain low_key: the last leaf whose
            # first key is strictly below it (duplicates of low_key may
            # span several leaves, so bisect_left, not bisect_right).
            start_leaf = max(0, bisect.bisect_left(self._directory, low_key) - 1)

        for page_index in range(start_leaf, self._leaves.num_pages):
            page = self.buffer.get_page(self._leaves.page_ids[page_index])
            for key, heap_page, slot in page.rows:
                if low_key is not None:
                    if key < low_key:
                        continue
                    if key == low_key and not inclusive[0]:
                        continue
                if high_key is not None:
                    if key > high_key:
                        return
                    if key == high_key and not inclusive[1]:
                        return
                yield self.heap.fetch(heap_page, slot)

    def drop(self) -> None:
        """Free the index pages."""
        self._leaves.truncate()
        self._directory = []
        self._built = False
